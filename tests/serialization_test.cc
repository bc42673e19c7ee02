// Save/Load round-trip tests of the deterministic model bundle.

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "adarts/adarts.h"
#include "common/failpoint.h"
#include "tests/test_util.h"

namespace adarts {
namespace {

std::string TempBundlePath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Result<Adarts> TrainSmallEngine(std::uint64_t seed = 17) {
  const ml::Dataset labeled = testing::MakeBlobs(3, 30, 6, 41);
  const std::vector<impute::Algorithm> pool = {
      impute::Algorithm::kCdRec, impute::Algorithm::kTkcm,
      impute::Algorithm::kLinearInterp};
  automl::ModelRaceOptions race;
  race.num_seed_pipelines = 12;
  race.num_partial_sets = 2;
  ExecContext ctx;
  return Adarts::TrainFromLabeled(labeled, pool, {}, race, seed, ctx);
}

TEST(SerializationTest, RoundTripReproducesRecommendations) {
  auto engine = TrainSmallEngine();
  ASSERT_TRUE(engine.ok()) << engine.status();
  const std::string path = TempBundlePath("adarts_bundle_roundtrip.model");
  ASSERT_TRUE(engine->Save(path).ok());

  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->committee_size(), engine->committee_size());
  EXPECT_EQ(loaded->algorithm_pool(), engine->algorithm_pool());

  // Bit-identical soft votes on every training sample.
  for (const auto& f : engine->training_data().features) {
    EXPECT_EQ(engine->PredictProba(f), loaded->PredictProba(f));
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RoundTripPreservesCommitteeSpecs) {
  auto engine = TrainSmallEngine(23);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempBundlePath("adarts_bundle_specs.model");
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->committee().size(), engine->committee().size());
  for (std::size_t i = 0; i < loaded->committee().size(); ++i) {
    EXPECT_EQ(loaded->committee()[i].spec.ToString(),
              engine->committee()[i].spec.ToString());
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RoundTripPreservesExtractorOptions) {
  const ml::Dataset labeled = testing::MakeBlobs(2, 20, 4, 5);
  const std::vector<impute::Algorithm> pool = {
      impute::Algorithm::kCdRec, impute::Algorithm::kTkcm};
  features::FeatureExtractorOptions fopts;
  fopts.topological = false;
  fopts.max_acf_lag = 12;
  automl::ModelRaceOptions race;
  race.num_seed_pipelines = 12;
  race.num_partial_sets = 2;
  ExecContext ctx;
  auto engine = Adarts::TrainFromLabeled(labeled, pool, fopts, race, 17, ctx);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempBundlePath("adarts_bundle_extractor.model");
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->feature_extractor().options().topological);
  EXPECT_EQ(loaded->feature_extractor().options().max_acf_lag, 12u);
  EXPECT_EQ(loaded->feature_extractor().NumFeatures(),
            engine->feature_extractor().NumFeatures());
  std::remove(path.c_str());
}

TEST(SerializationTest, RoundTripPreservesMissingnessGroup) {
  TrainOptions options = testing::FastOptions();
  options.features.missingness = true;
  ExecContext ctx;
  auto engine = Adarts::Train(
      testing::SmallCorpus({data::Category::kClimate, data::Category::kMotion}),
      options, ctx);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_EQ(engine->feature_extractor().NumFeatures(), 64u);
  const std::string path = TempBundlePath("adarts_bundle_missingness.model");
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->feature_extractor().options().missingness);
  EXPECT_EQ(loaded->feature_extractor().NumFeatures(), 64u);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ts::TimeSeries faulty = testing::MakeSine(160, 12.0 + 4.0 * seed, 0.05,
                                              seed);
    for (std::size_t i = 10 * seed; i < 10 * seed + 15; ++i) {
      faulty.SetMissing(i, true);
    }
    auto before = engine->RecommendEx(faulty);
    auto after = loaded->RecommendEx(faulty);
    ASSERT_TRUE(before.ok()) << before.status();
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(before->ranking, after->ranking) << "seed " << seed;
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(Adarts::Load("/nonexistent/bundle.model").ok());
}

TEST(SerializationTest, LoadRejectsCorruptBundle) {
  const std::string path = TempBundlePath("adarts_bundle_corrupt.model");
  {
    std::ofstream file(path);
    file << "NOT_A_MODEL\njunk\n";
  }
  EXPECT_FALSE(Adarts::Load(path).ok());
  {
    std::ofstream file(path);
    file << "ADARTS_MODEL_V1\nextractor 1 1 3 0 24\n";  // truncated
  }
  EXPECT_FALSE(Adarts::Load(path).ok());
  std::remove(path.c_str());
}

/// Payload bytes of a V2 bundle: everything after the magic and header
/// lines. The header carries a wall-clock `created_unix`, so determinism is
/// a property of the payload (and its checksum), not the whole file.
std::string PayloadOf(const std::string& bundle) {
  const std::size_t magic_end = bundle.find('\n');
  EXPECT_NE(magic_end, std::string::npos);
  const std::size_t header_end = bundle.find('\n', magic_end + 1);
  EXPECT_NE(header_end, std::string::npos);
  return bundle.substr(header_end + 1);
}

TEST(SerializationTest, SaveIsDeterministic) {
  auto engine = TrainSmallEngine(31);
  ASSERT_TRUE(engine.ok());
  const std::string a = TempBundlePath("adarts_bundle_a.model");
  const std::string b = TempBundlePath("adarts_bundle_b.model");
  ASSERT_TRUE(engine->Save(a).ok());
  ASSERT_TRUE(engine->Save(b).ok());
  std::ifstream fa(a), fb(b);
  std::string ca((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string cb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(PayloadOf(ca), PayloadOf(cb));
  EXPECT_FALSE(PayloadOf(ca).empty());
  // The headers agree on everything but the creation timestamp: same
  // format, same engine version, same payload size, same content checksum.
  auto ha = ReadSnapshotHeader(a);
  auto hb = ReadSnapshotHeader(b);
  ASSERT_TRUE(ha.ok()) << ha.status();
  ASSERT_TRUE(hb.ok()) << hb.status();
  EXPECT_EQ(ha->format_version, hb->format_version);
  EXPECT_EQ(ha->engine_version, hb->engine_version);
  EXPECT_EQ(ha->payload_bytes, hb->payload_bytes);
  EXPECT_EQ(ha->checksum, hb->checksum);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- crash-safe snapshot publishing --------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream file(path);
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

/// True when any `<basename>.tmp.*` sibling of `path` exists — a leaked
/// private temp file from an interrupted Save.
bool HasTempSibling(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(SerializationTest, SaveLeavesNoTempFileBehind) {
  auto engine = TrainSmallEngine(51);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempBundlePath("adarts_bundle_atomic.model");
  ASSERT_TRUE(engine->Save(path).ok());
  EXPECT_FALSE(HasTempSibling(path));
  std::remove(path.c_str());
}

TEST(SerializationTest, SaveToUnwritableDirectoryReturnsInternal) {
  auto engine = TrainSmallEngine(52);
  ASSERT_TRUE(engine.ok());
  // Was miscoded as NotFound — "not found" describes a read of something
  // absent, not a failed write.
  Status status = engine->Save("/nonexistent_dir_zz/bundle.model");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(SerializationTest, FailedWriteLeavesExistingBundleIntact) {
  auto first = TrainSmallEngine(61);
  auto second = TrainSmallEngine(62);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const std::string path = TempBundlePath("adarts_bundle_failwrite.model");
  ASSERT_TRUE(first->Save(path).ok());
  const std::string before = ReadAll(path);
  ASSERT_FALSE(before.empty());

  {
    // The injected write failure (ENOSPC, a crash mid-write…) hits the
    // private temp file; the published snapshot must not change by a byte.
    ScopedFailpoint fp("adarts.save.write");
    Status status = second->Save(path);
    ASSERT_FALSE(status.ok());
  }
  EXPECT_EQ(ReadAll(path), before);
  EXPECT_FALSE(HasTempSibling(path));

  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (const auto& f : first->training_data().features) {
    EXPECT_EQ(loaded->PredictProba(f), first->PredictProba(f));
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, KillMidSavePreservesPriorSnapshotBitIdentically) {
  auto first = TrainSmallEngine(63);
  auto second = TrainSmallEngine(64);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const std::string path = TempBundlePath("adarts_bundle_killcommit.model");
  ASSERT_TRUE(first->Save(path).ok());
  const std::string before = ReadAll(path);

  {
    // Models `kill -9` between the completed temp write and the rename: the
    // new bytes exist but are never published.
    ScopedFailpoint fp("adarts.save.commit");
    Status status = second->Save(path);
    ASSERT_FALSE(status.ok());
  }
  EXPECT_EQ(ReadAll(path), before);

  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (const auto& f : first->training_data().features) {
    EXPECT_EQ(loaded->PredictProba(f), first->PredictProba(f));
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, StaleTempFromCrashedProcessDoesNotBlockSave) {
  auto engine = TrainSmallEngine(65);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempBundlePath("adarts_bundle_stale.model");
  // A temp file abandoned by a crashed writer (different pid) must neither
  // fail nor corrupt a fresh Save.
  const std::string stale = path + ".tmp.99999";
  {
    std::ofstream file(stale);
    file << "half-written junk";
  }
  ASSERT_TRUE(engine->Save(path).ok());
  auto loaded = Adarts::Load(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  std::remove(stale.c_str());
  std::remove(path.c_str());
}

// --- hostile and truncated bundles ---------------------------------------

Status LoadContent(const std::string& content, const char* name) {
  const std::string path = TempBundlePath(name);
  {
    std::ofstream file(path, std::ios::trunc);
    file << content;
  }
  auto loaded = Adarts::Load(path);
  std::remove(path.c_str());
  return loaded.ok() ? Status::OK() : loaded.status();
}

std::string ReplaceFirst(std::string content, const std::string& from,
                         const std::string& to) {
  const std::size_t pos = content.find(from);
  EXPECT_NE(pos, std::string::npos) << "pattern '" << from << "' not found";
  if (pos != std::string::npos) content.replace(pos, from.size(), to);
  return content;
}

TEST(SerializationTest, LoadRejectsHostileSizesWithoutAllocating) {
  auto engine = TrainSmallEngine(71);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempBundlePath("adarts_bundle_hostile.model");
  ASSERT_TRUE(engine->Save(path).ok());
  const std::string good = ReadAll(path);
  std::remove(path.c_str());

  // Each corruption patches one size field to an absurd value. Load must
  // reject from the declared bound — InvalidArgument, not a multi-GB
  // reserve on attacker-controlled text.
  const std::string pool_line =
      "pool " + std::to_string(engine->algorithm_pool().size());
  const std::string committee_line =
      "committee " + std::to_string(engine->committee_size());
  const std::string dataset_line =
      "dataset " + std::to_string(engine->training_data().size()) + " " +
      std::to_string(engine->training_data().dim());
  const std::string hostile[] = {
      ReplaceFirst(good, pool_line, "pool 184467440737095516"),
      ReplaceFirst(good, committee_line, "committee 99999999999"),
      ReplaceFirst(good, dataset_line, "dataset 99999999 99999999"),
      ReplaceFirst(good, dataset_line, "dataset 0 0"),
  };
  for (std::size_t i = 0; i < std::size(hostile); ++i) {
    Status status = LoadContent(hostile[i], "adarts_bundle_hostile.model");
    ASSERT_FALSE(status.ok()) << "variant " << i;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "variant " << i;
  }
}

TEST(SerializationTest, TruncationSweepAtEveryTokenBoundary) {
  auto engine = TrainSmallEngine(72);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempBundlePath("adarts_bundle_truncate.model");
  ASSERT_TRUE(engine->Save(path).ok());
  const std::string good = ReadAll(path);
  std::remove(path.c_str());
  ASSERT_FALSE(good.empty());

  // Truncate the bundle at every whitespace (token) boundary: each prefix
  // is what a crash mid-write could have left behind in a world without the
  // atomic publish. The versioned header declares the exact payload length,
  // so EVERY strict prefix — including the one that merely strips the final
  // newline — is a torn snapshot and must be rejected.
  std::size_t boundaries = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (good[i] != ' ' && good[i] != '\n') continue;
    ++boundaries;
    Status status =
        LoadContent(good.substr(0, i), "adarts_bundle_truncate.model");
    EXPECT_FALSE(status.ok()) << "prefix of " << i << " bytes loaded";
  }
  EXPECT_GT(boundaries, 100u);  // the sweep really covered the bundle
}

// --- versioned snapshot header (DESIGN.md §12) ----------------------------

TEST(SerializationTest, VersionedHeaderRoundTrip) {
  auto engine = TrainSmallEngine(81);
  ASSERT_TRUE(engine.ok());
  engine->set_engine_version(42);
  const std::string path = TempBundlePath("adarts_bundle_header.model");
  ASSERT_TRUE(engine->Save(path).ok());

  auto header = ReadSnapshotHeader(path);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->format_version, 2u);
  EXPECT_EQ(header->engine_version, 42u);
  EXPECT_GT(header->created_unix, 0u);
  EXPECT_GT(header->payload_bytes, 0u);
  // The checksum is a real FNV-1a over exactly the payload bytes.
  const std::string bundle = ReadAll(path);
  const std::string payload = PayloadOf(bundle);
  ASSERT_EQ(payload.size(), header->payload_bytes);
  EXPECT_EQ(Fnv1a64(payload), header->checksum);

  auto loaded = Adarts::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->engine_version(), 42u);
  EXPECT_EQ(loaded->snapshot_created_unix(), header->created_unix);
  std::remove(path.c_str());
}

TEST(SerializationTest, ChecksumCatchesAnySingleFlippedPayloadByte) {
  auto engine = TrainSmallEngine(82);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempBundlePath("adarts_bundle_flip.model");
  ASSERT_TRUE(engine->Save(path).ok());
  const std::string good = ReadAll(path);
  std::remove(path.c_str());
  const std::size_t payload_start = good.size() - PayloadOf(good).size();

  // Flip one byte at a stride across the whole payload (and the very first
  // and last payload bytes explicitly): the checksum must catch every one
  // BEFORE the parser ever sees the corrupted text.
  std::vector<std::size_t> offsets = {payload_start, good.size() - 1};
  for (std::size_t off = payload_start + 37; off < good.size(); off += 97) {
    offsets.push_back(off);
  }
  for (std::size_t off : offsets) {
    std::string corrupted = good;
    corrupted[off] ^= 0x01;
    Status status = LoadContent(corrupted, "adarts_bundle_flip.model");
    ASSERT_FALSE(status.ok()) << "flip at byte " << off << " loaded";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
        << "flip at byte " << off << " rejected for the wrong reason: "
        << status.message();
  }
}

TEST(SerializationTest, FormatVersionSkewIsRejectedWithDirection) {
  auto engine = TrainSmallEngine(83);
  ASSERT_TRUE(engine.ok());
  const std::string path = TempBundlePath("adarts_bundle_skew.model");
  ASSERT_TRUE(engine->Save(path).ok());
  const std::string good = ReadAll(path);
  std::remove(path.c_str());

  // A snapshot from a future build must name the skew direction…
  Status newer = LoadContent(ReplaceFirst(good, "\nheader 2 ", "\nheader 9 "),
                             "adarts_bundle_skew.model");
  ASSERT_FALSE(newer.ok());
  EXPECT_NE(newer.message().find("newer than this build understands"),
            std::string::npos)
      << newer.message();

  // …as must one from before the versioned format.
  Status older = LoadContent(ReplaceFirst(good, "\nheader 2 ", "\nheader 1 "),
                             "adarts_bundle_skew.model");
  ASSERT_FALSE(older.ok());
  EXPECT_NE(older.message().find("older than this build supports"),
            std::string::npos)
      << older.message();

  // The pre-versioning V1 magic gets its own actionable rejection.
  Status v1 = LoadContent("ADARTS_MODEL_V1\nextractor 1 1 3 0 24\n",
                          "adarts_bundle_skew.model");
  ASSERT_FALSE(v1.ok());
  EXPECT_NE(v1.message().find("V1 snapshot no longer supported"),
            std::string::npos)
      << v1.message();
}

}  // namespace
}  // namespace adarts
