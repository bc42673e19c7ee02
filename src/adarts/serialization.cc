// Save/Load of trained engines as deterministic model bundles (see
// Adarts::Save in adarts.h). The format is a versioned snapshot: one magic
// line, one header line `header <format_version> <engine_version>
// <created_unix> <payload_bytes> <fnv1a-hex>`, then the payload — a
// whitespace-separated text archive in which doubles round-trip at 17
// significant digits. Classifier training is fully deterministic given the
// stored seeds, so a loaded engine's committee is bit-identical to the
// saved one. Load verifies the header bounds, the declared payload length
// and the FNV-1a content checksum BEFORE parsing a single payload token:
// a torn write, a flipped byte, or a future-format file is rejected with a
// precise error instead of being half-trusted (DESIGN.md §12).

#include <ctime>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "adarts/adarts.h"
#include "common/failpoint.h"

namespace adarts {

namespace {

constexpr char kMagic[] = "ADARTS_MODEL_V2";
constexpr char kMagicV1[] = "ADARTS_MODEL_V1";
constexpr std::uint32_t kFormatVersion = 2;
// Upper bound on the declared payload length — rejects absurd headers
// before any read of attacker-controlled size succeeds in allocating.
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{1} << 30;  // 1 GiB

// Upper bounds a well-formed bundle can never exceed. Load validates every
// on-disk size against these BEFORE any reserve/resize, so a truncated or
// hostile bundle yields InvalidArgument instead of a multi-GB allocation
// attempt (the sizes are attacker-controlled text; trusting them would let a
// one-line file OOM the serving daemon at startup).
constexpr std::size_t kMaxPoolSize = 256;
constexpr std::size_t kMaxCommitteeSize = 4096;
constexpr std::size_t kMaxPipelineParams = 1024;
constexpr std::size_t kMaxFeatureDim = std::size_t{1} << 20;
// Total feature values (samples * dim) — caps the dataset block at 512 MiB.
constexpr std::size_t kMaxDatasetValues = std::size_t{1} << 26;
// Bounds for the optional growth blocks (DESIGN.md §13).
constexpr std::size_t kMaxClusterReps = 64;
constexpr std::size_t kMaxSeriesLength = std::size_t{1} << 20;
constexpr std::size_t kMaxFoldScores = 4096;

Status Expect(std::istream& in, const std::string& token) {
  std::string got;
  if (!(in >> got) || got != token) {
    return Status::InvalidArgument("model bundle: expected '" + token +
                                   "', got '" + got + "'");
  }
  return Status::OK();
}

// One pipeline spec as whitespace-separated fields — the shape shared by
// the committee's `pipeline` lines and the warm-start block's `elite`
// lines (which append race statistics after these fields).
void WritePipelineSpec(std::ostream& out, const automl::Pipeline& spec) {
  out << ml::ClassifierKindToString(spec.classifier) << ' '
      << ml::ScalerKindToString(spec.scaler) << ' ' << spec.scaler_param << ' '
      << spec.id << ' ' << spec.params.size();
  for (const auto& [key, value] : spec.params) {
    out << ' ' << key << ' ' << value;
  }
}

Result<automl::Pipeline> ParsePipelineSpec(std::istream& in) {
  automl::Pipeline spec;
  std::string classifier_name;
  std::string scaler_name;
  std::size_t num_params = 0;
  if (!(in >> classifier_name >> scaler_name >> spec.scaler_param >> spec.id >>
        num_params) ||
      num_params > kMaxPipelineParams) {
    return Status::InvalidArgument("model bundle: bad pipeline header");
  }
  ADARTS_ASSIGN_OR_RETURN(spec.classifier,
                          ml::ClassifierKindFromString(classifier_name));
  bool found_scaler = false;
  for (ml::ScalerKind kind : ml::AllScalerKinds()) {
    if (ml::ScalerKindToString(kind) == scaler_name) {
      spec.scaler = kind;
      found_scaler = true;
    }
  }
  if (!found_scaler) {
    return Status::NotFound("model bundle: unknown scaler " + scaler_name);
  }
  for (std::size_t p = 0; p < num_params; ++p) {
    std::string key;
    double value = 0.0;
    if (!(in >> key >> value)) {
      return Status::InvalidArgument("model bundle: truncated params");
    }
    spec.params[key] = value;
  }
  return spec;
}

std::string ChecksumHex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(checksum));
  return std::string(buf);
}

// Parses the magic + header lines from `in`. Shared by Adarts::Load and
// ReadSnapshotHeader so the two can never disagree on what a valid header
// looks like.
Result<SnapshotHeader> ParseHeader(std::istream& in, const std::string& path) {
  std::string magic;
  if (!std::getline(in, magic)) {
    return Status::InvalidArgument("model bundle: empty file: " + path);
  }
  if (magic == kMagicV1) {
    return Status::InvalidArgument(
        "model bundle: unversioned V1 snapshot no longer supported "
        "(re-save with this build to produce a V2 snapshot): " +
        path);
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("model bundle: bad magic '" + magic +
                                   "' (want '" + kMagic + "'): " + path);
  }
  std::string header_line;
  if (!std::getline(in, header_line)) {
    return Status::InvalidArgument("model bundle: missing header line: " +
                                   path);
  }
  std::istringstream hs(header_line);
  SnapshotHeader header;
  std::string tag;
  std::string checksum_hex;
  if (!(hs >> tag >> header.format_version >> header.engine_version >>
        header.created_unix >> header.payload_bytes >> checksum_hex) ||
      tag != "header") {
    return Status::InvalidArgument("model bundle: malformed header line '" +
                                   header_line + "': " + path);
  }
  std::string trailing;
  if (hs >> trailing) {
    return Status::InvalidArgument(
        "model bundle: trailing header fields starting at '" + trailing +
        "': " + path);
  }
  if (header.format_version != kFormatVersion) {
    const std::string relation =
        header.format_version > kFormatVersion
            ? "newer than this build understands"
            : "older than this build supports";
    return Status::InvalidArgument(
        "model bundle: format_version " +
        std::to_string(header.format_version) + " is " + relation +
        " (want " + std::to_string(kFormatVersion) + "): " + path);
  }
  if (header.engine_version == 0) {
    return Status::InvalidArgument(
        "model bundle: engine_version 0 is reserved: " + path);
  }
  if (header.payload_bytes == 0 || header.payload_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "model bundle: implausible payload_bytes " +
        std::to_string(header.payload_bytes) + " (max " +
        std::to_string(kMaxPayloadBytes) + "): " + path);
  }
  if (checksum_hex.size() != 16 ||
      checksum_hex.find_first_not_of("0123456789abcdef") !=
          std::string::npos) {
    return Status::InvalidArgument("model bundle: bad checksum field '" +
                                   checksum_hex + "': " + path);
  }
  header.checksum = std::strtoull(checksum_hex.c_str(), nullptr, 16);
  return header;
}

}  // namespace

std::uint64_t Fnv1a64(std::string_view data) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Result<SnapshotHeader> ReadSnapshotHeader(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open: " + path);
  return ParseHeader(file, path);
}

Status Adarts::Save(const std::string& path) const {
  std::ostringstream out;
  out.precision(17);

  const features::FeatureExtractorOptions& fopts = extractor_.options();
  out << "extractor " << (fopts.statistical ? 1 : 0) << ' '
      << (fopts.topological ? 1 : 0) << ' ' << fopts.embedding_dimension << ' '
      << fopts.embedding_tau << ' ' << fopts.landmarks << ' '
      << fopts.max_acf_lag << '\n';

  out << "pool " << pool_.size();
  for (impute::Algorithm a : pool_) {
    out << ' ' << impute::AlgorithmToString(a);
  }
  out << '\n';

  out << "committee " << committee().size() << '\n';
  for (const automl::TrainedPipeline& member : committee()) {
    out << "pipeline ";
    WritePipelineSpec(out, member.spec);
    out << '\n';
  }

  out << "dataset " << training_data_.size() << ' ' << training_data_.dim()
      << ' ' << training_data_.num_classes << '\n';
  for (std::size_t i = 0; i < training_data_.size(); ++i) {
    out << training_data_.labels[i];
    for (double v : training_data_.features[i]) {
      out << ' ' << v;
    }
    out << '\n';
  }

  // Optional growth blocks, only for engines that can AppendSeries.
  // Engines without growth state (TrainFromLabeled, exhaustive labeling)
  // write exactly the pre-growth payload, and Load accepts bundles that go
  // straight from the dataset rows to `end` — pre-growth snapshots keep
  // loading unchanged.
  if (growth_.present) {
    out << "clusters " << growth_.clusters.size() << '\n';
    for (const ClusterGrowthState& c : growth_.clusters) {
      out << "cluster " << c.label << ' ' << c.member_count << ' '
          << c.representatives.size() << '\n';
      for (const ts::TimeSeries& rep : c.representatives) {
        // Masked positions write 0 (their in-memory placeholder may be
        // anything, including NaN, which would not round-trip as text);
        // the mask itself is stored as explicit indices.
        out << "rep " << rep.length() << ' ' << rep.MissingCount();
        for (std::size_t i = 0; i < rep.length(); ++i) {
          out << ' ' << (rep.IsMissing(i) ? 0.0 : rep.values()[i]);
        }
        for (std::size_t i : rep.MissingIndices()) {
          out << ' ' << i;
        }
        out << '\n';
      }
    }
    out << "warmstart " << growth_.warm_start.elites.size() << '\n';
    for (const automl::RacedPipeline& elite : growth_.warm_start.elites) {
      out << "elite ";
      WritePipelineSpec(out, elite.spec);
      out << ' ' << elite.mean_score << ' ' << elite.mean_f1 << ' '
          << elite.mean_recall_at3 << ' ' << elite.mean_time_seconds << ' '
          << elite.scores.size();
      for (double s : elite.scores) {
        out << ' ' << s;
      }
      out << '\n';
    }
  }
  // Optional like the growth blocks: written only when set, so snapshots
  // of default extractors stay byte-identical and older ones load `false`.
  if (fopts.missingness) out << "missingness 1\n";
  out << "end\n";

  // The checksum covers exactly the payload bytes (extractor..end); the
  // header line carries its length and FNV-1a so Load can verify integrity
  // before parsing a single payload token.
  const std::string payload = out.str();
  const std::uint64_t created = static_cast<std::uint64_t>(std::time(nullptr));
  std::ostringstream head;
  head << kMagic << '\n'
       << "header " << kFormatVersion << ' ' << engine_version_ << ' '
       << created << ' ' << payload.size() << ' '
       << ChecksumHex(Fnv1a64(payload)) << '\n';
  const std::string bundle = head.str() + payload;

  // Atomic publish: the bundle is written to a private temp file and renamed
  // over the destination, so a crash, ENOSPC, or an armed failpoint at any
  // point leaves the previously-good snapshot at `path` untouched — the
  // invariant a restarting adarts_serve depends on. rename(2) on the same
  // filesystem replaces the target atomically.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  Status written = [&]() -> Status {
    std::ofstream file(tmp, std::ios::trunc | std::ios::binary);
    if (!file) return Status::Internal("cannot open for writing: " + tmp);
    // Models a crash mid-write: the temp file exists but its contents never
    // complete. The destination must survive this bit-identically.
    ADARTS_FAILPOINT("adarts.save.write");
    file << bundle;
    file.flush();
    if (!file.good()) return Status::Internal("write failed: " + tmp);
    return Status::OK();
  }();
  if (!written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  // Models a crash between the completed write and the publish.
  if (FailpointRegistry::Armed()) {
    Status fp = FailpointRegistry::Instance().Check("adarts.save.commit");
    if (!fp.ok()) {
      std::remove(tmp.c_str());
      return fp;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path + ": " +
                            std::strerror(err));
  }
  return Status::OK();
}

Result<Adarts> Adarts::Load(const std::string& path) {
  ADARTS_FAILPOINT("adarts.load.read");
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open: " + path);

  ADARTS_ASSIGN_OR_RETURN(SnapshotHeader header, ParseHeader(file, path));

  // Pull exactly the declared payload: fewer bytes means a torn write, more
  // means trailing garbage — both are rejected before any token is trusted.
  std::string payload(header.payload_bytes, '\0');
  file.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint64_t got = static_cast<std::uint64_t>(file.gcount());
  if (got < header.payload_bytes) {
    return Status::InvalidArgument(
        "model bundle: torn snapshot — header declares " +
        std::to_string(header.payload_bytes) + " payload bytes but only " +
        std::to_string(got) + " present: " + path);
  }
  if (file.peek() != std::ifstream::traits_type::eof()) {
    return Status::InvalidArgument(
        "model bundle: trailing bytes after declared payload: " + path);
  }

  // Models a checksum/verify failure without needing a corrupt file on disk.
  ADARTS_FAILPOINT("adarts.load.verify");
  const std::uint64_t actual = Fnv1a64(payload);
  if (actual != header.checksum) {
    return Status::InvalidArgument(
        "model bundle: checksum mismatch — header says " +
        ChecksumHex(header.checksum) + ", payload hashes to " +
        ChecksumHex(actual) + " (corrupted snapshot): " + path);
  }

  std::istringstream in(payload);

  ADARTS_RETURN_NOT_OK(Expect(in, "extractor"));
  features::FeatureExtractorOptions fopts;
  int statistical = 0;
  int topological = 0;
  if (!(in >> statistical >> topological >> fopts.embedding_dimension >>
        fopts.embedding_tau >> fopts.landmarks >> fopts.max_acf_lag)) {
    return Status::InvalidArgument("model bundle: bad extractor block");
  }
  fopts.statistical = statistical != 0;
  fopts.topological = topological != 0;

  ADARTS_RETURN_NOT_OK(Expect(in, "pool"));
  std::size_t pool_size = 0;
  if (!(in >> pool_size) || pool_size == 0 || pool_size > kMaxPoolSize) {
    return Status::InvalidArgument("model bundle: bad pool size " +
                                   std::to_string(pool_size) + " (max " +
                                   std::to_string(kMaxPoolSize) + ")");
  }
  std::vector<impute::Algorithm> pool;
  pool.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    std::string name;
    if (!(in >> name)) {
      return Status::InvalidArgument("model bundle: truncated pool");
    }
    ADARTS_ASSIGN_OR_RETURN(impute::Algorithm a,
                            impute::AlgorithmFromString(name));
    pool.push_back(a);
  }

  ADARTS_RETURN_NOT_OK(Expect(in, "committee"));
  std::size_t committee_size = 0;
  if (!(in >> committee_size) || committee_size == 0 ||
      committee_size > kMaxCommitteeSize) {
    return Status::InvalidArgument("model bundle: bad committee size " +
                                   std::to_string(committee_size) + " (max " +
                                   std::to_string(kMaxCommitteeSize) + ")");
  }
  std::vector<automl::Pipeline> specs;
  specs.reserve(committee_size);
  for (std::size_t i = 0; i < committee_size; ++i) {
    ADARTS_RETURN_NOT_OK(Expect(in, "pipeline"));
    ADARTS_ASSIGN_OR_RETURN(automl::Pipeline spec, ParsePipelineSpec(in));
    specs.push_back(std::move(spec));
  }

  ADARTS_RETURN_NOT_OK(Expect(in, "dataset"));
  std::size_t samples = 0;
  std::size_t dim = 0;
  ml::Dataset labeled;
  if (!(in >> samples >> dim >> labeled.num_classes) || samples == 0 ||
      dim == 0 || dim > kMaxFeatureDim || samples > kMaxDatasetValues / dim ||
      labeled.num_classes <= 0 ||
      static_cast<std::size_t>(labeled.num_classes) > kMaxPoolSize) {
    return Status::InvalidArgument("model bundle: bad dataset header (" +
                                   std::to_string(samples) + " x " +
                                   std::to_string(dim) + ", " +
                                   std::to_string(labeled.num_classes) +
                                   " classes)");
  }
  labeled.features.reserve(samples);
  labeled.labels.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    int label = 0;
    if (!(in >> label)) {
      return Status::InvalidArgument("model bundle: truncated labels");
    }
    la::Vector f(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      if (!(in >> f[j])) {
        return Status::InvalidArgument("model bundle: truncated features");
      }
    }
    labeled.labels.push_back(label);
    labeled.features.push_back(std::move(f));
  }
  // The growth blocks are optional: pre-growth snapshots (and engines
  // without growth state) go straight from the dataset rows to `end`.
  std::string token;
  if (!(in >> token)) {
    return Status::InvalidArgument("model bundle: missing end marker");
  }
  GrowthState growth;
  if (token == "clusters") {
    std::size_t num_clusters = 0;
    if (!(in >> num_clusters) || num_clusters == 0 || num_clusters > samples) {
      return Status::InvalidArgument("model bundle: bad cluster count " +
                                     std::to_string(num_clusters) + " (max " +
                                     std::to_string(samples) + ")");
    }
    growth.clusters.reserve(num_clusters);
    for (std::size_t k = 0; k < num_clusters; ++k) {
      ADARTS_RETURN_NOT_OK(Expect(in, "cluster"));
      ClusterGrowthState c;
      std::size_t num_reps = 0;
      if (!(in >> c.label >> c.member_count >> num_reps) || c.label < 0 ||
          static_cast<std::size_t>(c.label) >= pool.size() ||
          c.member_count == 0 || num_reps == 0 || num_reps > kMaxClusterReps) {
        return Status::InvalidArgument("model bundle: bad cluster header");
      }
      c.representatives.reserve(num_reps);
      for (std::size_t r = 0; r < num_reps; ++r) {
        ADARTS_RETURN_NOT_OK(Expect(in, "rep"));
        std::size_t length = 0;
        std::size_t num_missing = 0;
        if (!(in >> length >> num_missing) || length == 0 ||
            length > kMaxSeriesLength || num_missing > length) {
          return Status::InvalidArgument(
              "model bundle: bad representative header");
        }
        la::Vector values(length);
        for (std::size_t i = 0; i < length; ++i) {
          if (!(in >> values[i])) {
            return Status::InvalidArgument(
                "model bundle: truncated representative values");
          }
        }
        std::vector<bool> missing(length, false);
        for (std::size_t m = 0; m < num_missing; ++m) {
          std::size_t idx = 0;
          if (!(in >> idx) || idx >= length) {
            return Status::InvalidArgument(
                "model bundle: bad representative missing index");
          }
          missing[idx] = true;
        }
        ADARTS_ASSIGN_OR_RETURN(
            ts::TimeSeries rep,
            ts::TimeSeries::Create(std::move(values), std::move(missing)));
        c.representatives.push_back(std::move(rep));
      }
      growth.clusters.push_back(std::move(c));
    }
    growth.present = true;
    if (!(in >> token)) {
      return Status::InvalidArgument("model bundle: missing end marker");
    }
  }
  if (token == "warmstart") {
    std::size_t num_elites = 0;
    if (!(in >> num_elites) || num_elites > kMaxCommitteeSize) {
      return Status::InvalidArgument("model bundle: bad warm-start size " +
                                     std::to_string(num_elites) + " (max " +
                                     std::to_string(kMaxCommitteeSize) + ")");
    }
    growth.warm_start.elites.reserve(num_elites);
    for (std::size_t e = 0; e < num_elites; ++e) {
      ADARTS_RETURN_NOT_OK(Expect(in, "elite"));
      automl::RacedPipeline elite;
      ADARTS_ASSIGN_OR_RETURN(elite.spec, ParsePipelineSpec(in));
      std::size_t num_scores = 0;
      if (!(in >> elite.mean_score >> elite.mean_f1 >> elite.mean_recall_at3 >>
            elite.mean_time_seconds >> num_scores) ||
          num_scores > kMaxFoldScores) {
        return Status::InvalidArgument("model bundle: bad elite statistics");
      }
      elite.scores = la::Vector(num_scores);
      for (std::size_t s = 0; s < num_scores; ++s) {
        if (!(in >> elite.scores[s])) {
          return Status::InvalidArgument(
              "model bundle: truncated elite scores");
        }
      }
      growth.warm_start.elites.push_back(std::move(elite));
    }
    if (!(in >> token)) {
      return Status::InvalidArgument("model bundle: missing end marker");
    }
  }
  if (token == "missingness") {
    int missingness = 0;
    if (!(in >> missingness) || !(in >> token)) {
      return Status::InvalidArgument("model bundle: bad missingness block");
    }
    fopts.missingness = missingness != 0;
  }
  if (token != "end") {
    return Status::InvalidArgument("model bundle: expected 'end', got '" +
                                   token + "'");
  }
  ADARTS_RETURN_NOT_OK(labeled.Validate());
  if (static_cast<int>(pool.size()) != labeled.num_classes) {
    return Status::InvalidArgument("model bundle: pool/classes mismatch");
  }

  // Refit the committee deterministically on the stored dataset.
  std::vector<automl::TrainedPipeline> committee;
  committee.reserve(specs.size());
  automl::ModelRaceReport report;  // reconstructed spec-only report
  for (const automl::Pipeline& spec : specs) {
    ADARTS_ASSIGN_OR_RETURN(automl::TrainedPipeline fitted,
                            automl::FitPipeline(spec, labeled));
    committee.push_back(std::move(fitted));
    report.elites.push_back({spec, {}, 0, 0, 0, 0});
  }
  ADARTS_ASSIGN_OR_RETURN(
      automl::VotingRecommender recommender,
      automl::VotingRecommender::FromPipelines(std::move(committee),
                                               labeled.num_classes));
  Adarts engine(features::FeatureExtractor(fopts), std::move(recommender),
                std::move(report), std::move(pool), std::move(labeled));
  engine.growth_ = std::move(growth);
  engine.engine_version_ = header.engine_version;
  engine.created_unix_ = header.created_unix;
  return engine;
}

}  // namespace adarts
