#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "adarts/adarts.h"
#include "adarts/stages.h"
#include "checks.h"
#include "client.h"
#include "common/exec_context.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/generators.h"
#include "features/feature_extractor.h"
#include "impute/imputer.h"
#include "net/protocol.h"
#include "spans.h"
#include "tda/delay_embedding.h"
#include "tda/diagram_stats.h"
#include "tda/persistence.h"
#include "ts/acf.h"
#include "ts/metrics.h"
#include "ts/missing.h"
#include "ts/scenario.h"

namespace adarts::e2e {

namespace {

// ---------------------------------------------------------------------------
// Sizes and fixed limits.
// ---------------------------------------------------------------------------

/// Workload sizes; `--quick` shrinks every one of them.
struct Scale {
  std::size_t length = 256;
  std::size_t corpus_per_category = 32;
  int setup_repeats = 3;
  std::size_t warmup_requests = 200;
  double warmup_rps = 200.0;
  /// Rate of both serving workloads' open loops: about a third of the two
  /// workers' capacity, and below what one worker serves alone, so a stall
  /// of one worker does not build a backlog.
  double open_rps = 200.0;
  /// Length of each open loop per measured second: 12 s, so 2400 requests,
  /// at 15 s.
  double step_share = 0.8;
  /// Requests of each saturation phase per measured second: 4500 at 15 s,
  /// several seconds at any capacity below 1000 rps.
  double saturation_per_s = 300.0;
  /// swap_under_load publishes a new engine version this often (a redeploy
  /// every 2.5 s)...
  double swap_period_s = 2.5;
  /// ...as long as pre-built versions (v2 ... v11) last: 5 swaps in the
  /// open loop at 15 s, and the saturation phase would have to run below
  /// 330 rps to use up the other 5.
  std::size_t swap_versions = 10;
  std::size_t set_series = 32;
  std::size_t delta_series = 8;
  std::size_t heldout_sets = 3;
  std::size_t heldout_series = 16;
  std::size_t replay_requests = 100;
  std::size_t replay_sets = 8;
  std::size_t verify_cap = 2048;
  /// train_offline trains one reference corpus per this many measured
  /// seconds.
  double seconds_per_train = 2.5;
};

Scale ScaleFor(bool quick) {
  Scale s;
  if (!quick) return s;
  s.length = 128;
  s.corpus_per_category = 10;
  s.setup_repeats = 1;
  s.warmup_requests = 40;
  s.open_rps = 100.0;
  s.saturation_per_s = 50.0;
  s.swap_period_s = 0.5;
  s.set_series = 8;
  s.delta_series = 4;
  s.heldout_sets = 1;
  s.heldout_series = 8;
  s.replay_requests = 5;
  s.replay_sets = 1;
  s.verify_cap = 100;
  s.seconds_per_train = 1.0;
  return s;
}

/// Load connections; a third connection carries control traffic.
constexpr std::size_t kLoadConnections = 2;
/// Requests each load connection keeps outstanding in the saturation phase.
constexpr std::size_t kSaturationInFlight = 2;
constexpr int kDaemonWorkers = 2;
constexpr int kDaemonQueue = 64;
/// Pool width for training and batch calls made in-process.
constexpr std::size_t kEngineThreads = 2;
/// Pool width for recomputing served answers after the load has stopped.
constexpr std::size_t kVerifyThreads = 4;
/// The deployment every workload starts from, and the corpora train_offline
/// retrains, do not depend on --seed: Train time and committee size swing
/// widely with the corpus and race seed (README), so per-seed training
/// inputs would measure that luck rather than the code. The seed draws
/// everything else that arrives at the system.
constexpr std::uint64_t kDeploymentSeed = 3;

const data::Category kCategories[] = {data::Category::kClimate,
                                      data::Category::kPower,
                                      data::Category::kMotion};

enum Stream : std::uint64_t {
  kRequestStream = 1,
  kSetStream,
  kDeltaStream,
  kHeldOutStream,
};

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The generator seed of item `index` of input stream `stream`.
std::uint64_t InputSeed(std::uint64_t seed, Stream stream,
                        std::uint64_t index) {
  return SplitMix(SplitMix(SplitMix(seed) ^ stream) ^ index);
}

// ---------------------------------------------------------------------------
// Inputs. Every input is a pure function of (seed, stream, index).
// ---------------------------------------------------------------------------

TrainOptions TrainingOptions() {
  TrainOptions options;
  // The wall-clock term of the race score makes the committee, and so the
  // vote cost, change from run to run.
  options.race.gamma = 0.0;
  return options;
}

std::vector<ts::TimeSeries> Corpus(std::uint64_t generator_seed,
                                   std::size_t per_category,
                                   std::size_t length) {
  std::vector<ts::TimeSeries> corpus;
  for (data::Category c : kCategories) {
    data::GeneratorOptions g;
    g.num_series = per_category;
    g.length = length;
    g.seed = generator_seed;
    std::vector<ts::TimeSeries> part = data::GenerateCategory(c, g);
    corpus.insert(corpus.end(), part.begin(), part.end());
  }
  return corpus;
}

/// Series the engine never trained on: generator variant 2, one category.
std::vector<ts::TimeSeries> Delta(std::uint64_t generator_seed,
                                  std::size_t index, std::size_t count,
                                  std::size_t length) {
  data::GeneratorOptions g;
  g.num_series = count;
  g.length = length;
  g.seed = generator_seed;
  g.variant = 2;
  return data::GenerateCategory(kCategories[index % 3], g);
}

/// One request's series: unseen generator variant 1, 10% missing as a
/// single block (5%) plus MCAR points (5%).
Result<ts::TimeSeries> RequestSeries(std::uint64_t seed, std::uint64_t id,
                                     std::size_t length) {
  data::GeneratorOptions g;
  g.num_series = 1;
  g.length = length;
  g.seed = InputSeed(seed, kRequestStream, id);
  g.variant = 1;
  ts::TimeSeries series = data::GenerateCategory(kCategories[id % 3], g).front();
  Rng rng(g.seed);
  ADARTS_RETURN_NOT_OK(ts::InjectSingleBlock(length / 20, &rng, &series));
  ADARTS_RETURN_NOT_OK(ts::InjectMcar(0.05, &rng, &series));
  return series;
}

Result<std::string> RequestBody(std::uint64_t seed, std::uint64_t id,
                                std::size_t length) {
  net::Request request;
  request.type = net::MessageType::kRecommend;
  request.id = id;
  ADARTS_ASSIGN_OR_RETURN(ts::TimeSeries series,
                          RequestSeries(seed, id, length));
  request.series.push_back(std::move(series));
  return net::EncodeRequest(request);
}

/// A set of unseen series (variant 1) of category `index mod 3`, masked at
/// rate 0.1 by `single_block` (even index) or `mcar` (odd index): the best
/// imputer depends on the scenario, so the sets mix both.
Result<std::vector<ts::TimeSeries>> MaskedSet(std::uint64_t generator_seed,
                                              std::size_t index,
                                              std::size_t count,
                                              std::size_t length) {
  data::GeneratorOptions g;
  g.num_series = count;
  g.length = length;
  g.seed = generator_seed;
  g.variant = 1;
  std::vector<ts::TimeSeries> set =
      data::GenerateCategory(kCategories[index % 3], g);
  ADARTS_ASSIGN_OR_RETURN(
      ts::Scenario scenario,
      ts::FindScenario(index % 2 == 0 ? "single_block" : "mcar"));
  Rng rng(generator_seed);
  ADARTS_RETURN_NOT_OK(ts::ApplyScenario(scenario, 0.1, &rng, &set));
  return set;
}

Result<std::vector<ts::TimeSeries>> RepairInput(const Config& config,
                                                const Scale& scale,
                                                std::size_t index) {
  return MaskedSet(InputSeed(config.seed, kSetStream, index), index,
                   scale.set_series, scale.length);
}

// ---------------------------------------------------------------------------
// Set-up: train the deployment, save it, start the daemon, first ping.
// ---------------------------------------------------------------------------

struct Deployment {
  /// v1 (the trained engine) first, then each published version.
  std::vector<std::string> snapshots;
  std::optional<Adarts> engine;
  std::unique_ptr<Daemon> daemon;
  std::optional<ControlConnection> control;
};

Result<Deployment> SetUpOnce(const Config& config, const Scale& scale,
                             bool serve, std::size_t versions, int attempt) {
  Deployment d;
  const std::vector<ts::TimeSeries> corpus =
      Corpus(kDeploymentSeed, scale.corpus_per_category, scale.length);
  ExecContext ctx(kEngineThreads);
  ADARTS_ASSIGN_OR_RETURN(Adarts engine,
                          Adarts::Train(corpus, TrainingOptions(), ctx));
  const std::string prefix =
      config.workdir + "/deploy" + std::to_string(attempt) + ".v";
  d.snapshots.push_back(prefix + "1.adarts");
  ADARTS_RETURN_NOT_OK(engine.Save(d.snapshots.back()));
  if (versions > 0) {
    // Published versions alternate between two models: the deployment grown
    // by one delta (odd versions after v1) and the deployment itself.
    ADARTS_ASSIGN_OR_RETURN(Adarts original, Adarts::Load(d.snapshots[0]));
    ADARTS_RETURN_NOT_OK(engine.AppendSeries(
        Delta(kDeploymentSeed, 0, scale.delta_series, scale.length),
        UpdateOptions{}, ctx));
    for (std::size_t k = 1; k <= versions; ++k) {
      Adarts& model = k % 2 == 1 ? engine : original;
      model.set_engine_version(k + 1);
      d.snapshots.push_back(prefix + std::to_string(k + 1) + ".adarts");
      ADARTS_RETURN_NOT_OK(model.Save(d.snapshots.back()));
    }
  }
  d.engine.emplace(std::move(engine));
  if (serve) {
    Daemon::Options options;
    options.binary = config.serve_binary;
    options.snapshot = d.snapshots.front();
    options.workdir = config.workdir;
    options.workers = kDaemonWorkers;
    options.queue = kDaemonQueue;
    ADARTS_ASSIGN_OR_RETURN(d.daemon, Daemon::Start(options));
    ADARTS_ASSIGN_OR_RETURN(ControlConnection control,
                            ControlConnection::Connect(d.daemon->port()));
    net::Request ping;
    ping.type = net::MessageType::kPing;
    ADARTS_ASSIGN_OR_RETURN(net::Response pong, control.Call(ping));
    if (!pong.ok()) return Status::Internal("first ping failed: " + pong.message);
    d.control.emplace(std::move(control));
  }
  return d;
}

/// Sets up `setup_repeats` times and keeps the last; `*setup_s` is the
/// median set-up time.
Result<Deployment> SetUp(const Config& config, const Scale& scale, bool serve,
                         std::size_t versions, double* setup_s) {
  std::vector<double> seconds;
  Deployment d;
  for (int attempt = 0; attempt < scale.setup_repeats; ++attempt) {
    if (d.daemon) ADARTS_RETURN_NOT_OK(d.daemon->Stop());
    Stopwatch watch;
    ADARTS_ASSIGN_OR_RETURN(d, SetUpOnce(config, scale, serve, versions,
                                         attempt));
    seconds.push_back(watch.ElapsedSeconds());
  }
  *setup_s = Percentile(seconds, 0.5);
  return d;
}

// ---------------------------------------------------------------------------
// What a workload's untraced run produced.
// ---------------------------------------------------------------------------

struct Outcome {
  double setup_s = 0.0;
  double p50_ms = 0.0;
  double work_per_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-layer values only the live run can see (daemon-side kStats deltas,
  /// client-side overhead and generator lateness).
  std::map<std::string, double> layers;
  /// Replay inputs.
  std::vector<std::string> snapshots;
  std::uint64_t replay_first_id = 0;
  std::optional<Adarts> trained;
  std::vector<ts::TimeSeries> trained_corpus;
};

// ---------------------------------------------------------------------------
// Serving workloads.
// ---------------------------------------------------------------------------

std::size_t Failures(const PhaseResult& phase) {
  std::size_t failures = 0;
  for (const Reply& r : phase.replies) failures += r.code != StatusCode::kOk;
  return failures;
}

Result<json::JsonValue> Scrape(ControlConnection& control) {
  net::Request request;
  request.type = net::MessageType::kStats;
  ADARTS_ASSIGN_OR_RETURN(net::Response response, control.Call(request));
  if (!response.ok()) return Status::Internal("kStats failed");
  return json::ParseJson(response.text);
}

/// Daemon-side mean of histogram `name` between two scrapes, in ms.
double HistogramDeltaMeanMs(const json::JsonValue& before,
                            const json::JsonValue& after,
                            const std::string& name) {
  const auto read = [&name](const json::JsonValue& snapshot, const char* key) {
    const json::JsonValue* metrics = snapshot.Find("metrics");
    const json::JsonValue* hists =
        metrics != nullptr ? metrics->Find("histograms") : nullptr;
    const json::JsonValue* hist =
        hists != nullptr ? hists->Find(name) : nullptr;
    return hist != nullptr ? hist->NumberOr(key, 0.0) : 0.0;
  };
  const double count = read(after, "count") - read(before, "count");
  const double sum_ns = read(after, "sum_ns") - read(before, "sum_ns");
  return count > 0.0 ? sum_ns / count / 1e6 : 0.0;
}

double CounterDelta(const json::JsonValue& before, const json::JsonValue& after,
                    const std::string& name) {
  const auto read = [&name](const json::JsonValue& snapshot) {
    const json::JsonValue* metrics = snapshot.Find("metrics");
    const json::JsonValue* counters =
        metrics != nullptr ? metrics->Find("counters") : nullptr;
    return counters != nullptr ? counters->NumberOr(name, 0.0) : 0.0;
  };
  return read(after) - read(before);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Per-layer values of the live run over one measured phase.
void ServeLayers(const json::JsonValue& before, const json::JsonValue& after,
                 const PhaseResult& phase, std::map<std::string, double>* out) {
  const double queue_wait =
      HistogramDeltaMeanMs(before, after, "serve.queue_wait");
  const double service =
      HistogramDeltaMeanMs(before, after, "recommend.latency");
  (*out)["net.queue_wait_ms"] = queue_wait;
  (*out)["adarts.service_ms"] = service;
  (*out)["net.shed"] = CounterDelta(before, after, "serve.shed");
  (*out)["net.overhead_ms"] =
      Mean(phase.send_latency_ms) - queue_wait - service;
  (*out)["net.gen_late_p99_ms"] = Percentile(phase.late_ms, 0.99);
  // The tail is reported here, without a bound: on a shared virtual machine
  // it follows the host's CPU steal, not the program (README).
  (*out)["net.p99_ms"] = Percentile(phase.latency_ms, 0.99);
}

/// Drives the daemon from outside: phases of load, each request carrying
/// its own series, and every successful reply kept for checking.
class ServeLoad {
 public:
  ServeLoad(const Config& config, const Scale& scale, LoadClient client)
      : config_(config), scale_(scale), client_(std::move(client)) {}

  std::uint64_t next_id() const { return next_id_; }
  std::uint64_t attempted() const { return attempted_; }

  Result<PhaseResult> OpenLoop(std::size_t requests, double rate_rps,
                               const LoadClient::During& during = nullptr) {
    ADARTS_ASSIGN_OR_RETURN(std::vector<std::string> bodies, Bodies(requests));
    ADARTS_ASSIGN_OR_RETURN(
        PhaseResult phase,
        client_.RunOpenLoop(bodies, next_id_, rate_rps, during));
    return Record(std::move(phase));
  }

  Result<PhaseResult> ClosedLoop(std::size_t requests,
                                 const LoadClient::During& during = nullptr) {
    ADARTS_ASSIGN_OR_RETURN(std::vector<std::string> bodies, Bodies(requests));
    ADARTS_ASSIGN_OR_RETURN(
        PhaseResult phase,
        client_.RunClosedLoop(bodies, next_id_, kSaturationInFlight, during));
    return Record(std::move(phase));
  }

  /// Every served recommendation (an evenly strided sample of at most
  /// `verify_cap`) equals the answer of an in-process engine loaded from
  /// the snapshot of the version that answered it.
  Status Verify(const std::vector<std::string>& snapshots) const {
    const std::size_t stride =
        std::max<std::size_t>(1, (served_.size() + scale_.verify_cap - 1) /
                                     scale_.verify_cap);
    std::map<std::uint64_t, std::vector<ts::TimeSeries>> series;
    std::map<std::uint64_t, std::vector<std::string>> got;
    for (std::size_t k = 0; k < served_.size(); k += stride) {
      const auto& [id, reply] = served_[k];
      // The series exactly as the daemon decoded it off the wire.
      ADARTS_ASSIGN_OR_RETURN(std::string body,
                              RequestBody(config_.seed, id, scale_.length));
      ADARTS_ASSIGN_OR_RETURN(net::Request request, net::DecodeRequest(body));
      series[reply.engine_version].push_back(std::move(request.series[0]));
      got[reply.engine_version].push_back(reply.algorithm);
    }
    ExecContext ctx(kVerifyThreads);
    // Versions that share a payload checksum are one model: load it once.
    std::map<std::uint64_t, Adarts> engines;
    for (const auto& [version, batch] : series) {
      // Version v was published from snapshots[v - 1].
      if (version == 0 || version > snapshots.size()) {
        return Status::Internal("reply from unknown engine version " +
                                std::to_string(version));
      }
      const std::string& path = snapshots[version - 1];
      ADARTS_ASSIGN_OR_RETURN(SnapshotHeader header, ReadSnapshotHeader(path));
      auto engine = engines.find(header.checksum);
      if (engine == engines.end()) {
        ADARTS_ASSIGN_OR_RETURN(Adarts loaded, Adarts::Load(path));
        engine = engines.emplace(header.checksum, std::move(loaded)).first;
      }
      ADARTS_ASSIGN_OR_RETURN(
          std::vector<impute::Algorithm> picks,
          engine->second.RecommendBatch(batch, RecommendBatchOptions{}, ctx));
      std::vector<std::string> expected;
      for (impute::Algorithm a : picks) {
        expected.emplace_back(impute::AlgorithmToString(a));
      }
      ADARTS_RETURN_NOT_OK(CheckSameSequence(
          "served recommendations of engine v" + std::to_string(version),
          expected, got[version]));
    }
    return Status::OK();
  }

 private:
  Result<std::vector<std::string>> Bodies(std::size_t requests) const {
    std::vector<std::string> bodies;
    bodies.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      ADARTS_ASSIGN_OR_RETURN(
          std::string body,
          RequestBody(config_.seed, next_id_ + i, scale_.length));
      bodies.push_back(std::move(body));
    }
    return bodies;
  }

  Result<PhaseResult> Record(PhaseResult phase) {
    const std::size_t requests = phase.replies.size();
    ADARTS_RETURN_NOT_OK(CheckAllAnswered(requests, phase.answered));
    for (std::size_t i = 0; i < requests; ++i) {
      if (phase.replies[i].code == StatusCode::kOk) {
        served_.push_back({next_id_ + i, phase.replies[i]});
      }
    }
    next_id_ += requests;
    attempted_ += requests;
    return phase;
  }

  const Config& config_;
  const Scale& scale_;
  LoadClient client_;
  std::uint64_t next_id_ = 1;
  std::uint64_t attempted_ = 0;
  std::vector<std::pair<std::uint64_t, Reply>> served_;
};

Result<Outcome> RecommendOpen(const Config& config, const Scale& scale) {
  Outcome out;
  ADARTS_ASSIGN_OR_RETURN(Deployment d,
                          SetUp(config, scale, true, 0, &out.setup_s));
  ADARTS_ASSIGN_OR_RETURN(
      LoadClient client,
      LoadClient::Connect(d.daemon->port(), kLoadConnections));
  ServeLoad load(config, scale, std::move(client));

  ADARTS_ASSIGN_OR_RETURN(
      PhaseResult warm,
      load.OpenLoop(scale.warmup_requests, scale.warmup_rps));
  ADARTS_ASSIGN_OR_RETURN(json::JsonValue before, Scrape(*d.control));
  out.replay_first_id = load.next_id();
  const auto step_requests = static_cast<std::size_t>(
      scale.open_rps * config.seconds * scale.step_share);
  ADARTS_ASSIGN_OR_RETURN(PhaseResult step,
                          load.OpenLoop(step_requests, scale.open_rps));
  ADARTS_ASSIGN_OR_RETURN(json::JsonValue after, Scrape(*d.control));
  ServeLayers(before, after, step, &out.layers);
  // Capacity: both workers kept busy by a closed loop.
  ADARTS_ASSIGN_OR_RETURN(
      PhaseResult saturated,
      load.ClosedLoop(static_cast<std::size_t>(scale.saturation_per_s *
                                                 config.seconds)));

  out.failed = Failures(warm) + Failures(step) + Failures(saturated);
  out.p50_ms = Percentile(step.latency_ms, 0.5);
  out.work_per_s =
      static_cast<double>(saturated.replies.size()) / saturated.elapsed_s;
  ADARTS_ASSIGN_OR_RETURN(out.peak_rss_mb, d.daemon->PeakRssMb());
  ADARTS_RETURN_NOT_OK(d.daemon->Stop());
  out.attempted = load.attempted();
  ADARTS_RETURN_NOT_OK(load.Verify(d.snapshots));
  out.snapshots = d.snapshots;
  return out;
}

/// Publishes pre-built engine versions over the control connection, one
/// every `period`, while a load phase runs.
class Publisher {
 public:
  Publisher(ControlConnection& control, const std::vector<std::string>& snapshots,
            double period_s)
      : control_(control), snapshots_(snapshots), period_s_(period_s) {}

  /// Publishes until the phase is done or the versions run out.
  void During(Clock::time_point start, const std::atomic<bool>& done) {
    for (std::size_t k = 0; status_.ok() && !done.load(); ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          (static_cast<double>(k) + 0.5) * period_s_)));
      if (done.load() || next_ >= snapshots_.size()) return;
      net::Request reload;
      reload.type = net::MessageType::kReload;
      reload.text = snapshots_[next_];
      Stopwatch watch;
      Result<net::Response> reply = control_.Call(reload);
      latency_ms_.push_back(watch.ElapsedMillis());
      const std::uint64_t version = ++next_;
      if (!reply.ok()) {
        status_ = reply.status();
      } else if (!reply->ok() || reply->engine_version != version) {
        status_ = Status::Internal("reload to v" + std::to_string(version) +
                                   " failed: " + reply->message);
      }
    }
  }

  const Status& status() const { return status_; }
  std::size_t published() const { return latency_ms_.size(); }
  /// The highest version published so far (v1 is live from the start).
  std::uint64_t version() const { return next_; }

  /// Median reply latency: versions alternate between two models whose
  /// Load costs differ, so the median is taken per model and averaged.
  double MedianLatencyMs() const {
    std::vector<double> model_ms[2];
    for (std::size_t k = 0; k < latency_ms_.size(); ++k) {
      model_ms[k % 2].push_back(latency_ms_[k]);
    }
    return (Percentile(model_ms[0], 0.5) + Percentile(model_ms[1], 0.5)) / 2;
  }

 private:
  ControlConnection& control_;
  const std::vector<std::string>& snapshots_;
  const double period_s_;
  /// snapshots_[next_] publishes version next_ + 1.
  std::size_t next_ = 1;
  std::vector<double> latency_ms_;
  Status status_ = Status::OK();
};

Result<Outcome> SwapUnderLoad(const Config& config, const Scale& scale) {
  Outcome out;
  ADARTS_ASSIGN_OR_RETURN(
      Deployment d,
      SetUp(config, scale, true, scale.swap_versions, &out.setup_s));
  ADARTS_ASSIGN_OR_RETURN(
      LoadClient client,
      LoadClient::Connect(d.daemon->port(), kLoadConnections));
  ServeLoad load(config, scale, std::move(client));
  ADARTS_ASSIGN_OR_RETURN(
      PhaseResult warm,
      load.OpenLoop(scale.warmup_requests, scale.warmup_rps));

  // The calling thread publishes versions through both phases while the
  // client's threads keep the load going.
  Publisher publisher(*d.control, d.snapshots, scale.swap_period_s);
  const auto publish = [&publisher](Clock::time_point start,
                                    const std::atomic<bool>& done) {
    publisher.During(start, done);
  };
  ADARTS_ASSIGN_OR_RETURN(json::JsonValue before, Scrape(*d.control));
  out.replay_first_id = load.next_id();
  const auto requests = static_cast<std::size_t>(
      scale.open_rps * config.seconds * scale.step_share);
  ADARTS_ASSIGN_OR_RETURN(PhaseResult phase,
                          load.OpenLoop(requests, scale.open_rps, publish));
  ADARTS_ASSIGN_OR_RETURN(json::JsonValue after, Scrape(*d.control));
  ADARTS_RETURN_NOT_OK(publisher.status());
  ServeLayers(before, after, phase, &out.layers);
  // Capacity while versions keep changing.
  ADARTS_ASSIGN_OR_RETURN(
      PhaseResult saturated,
      load.ClosedLoop(static_cast<std::size_t>(scale.saturation_per_s *
                                                 config.seconds),
                        publish));
  ADARTS_RETURN_NOT_OK(publisher.status());
  out.layers["net.reload_ms"] = publisher.MedianLatencyMs();

  std::vector<Reply> replies = phase.replies;
  replies.insert(replies.end(), saturated.replies.begin(),
                 saturated.replies.end());
  std::vector<std::uint64_t> published;
  for (std::uint64_t v = 1; v <= publisher.version(); ++v) {
    published.push_back(v);
  }
  ADARTS_RETURN_NOT_OK(CheckSwapVersions(replies, published));

  out.failed = Failures(warm) + Failures(phase) + Failures(saturated);
  out.p50_ms = Percentile(phase.latency_ms, 0.5);
  out.work_per_s =
      static_cast<double>(saturated.replies.size()) / saturated.elapsed_s;
  ADARTS_ASSIGN_OR_RETURN(out.peak_rss_mb, d.daemon->PeakRssMb());
  ADARTS_RETURN_NOT_OK(d.daemon->Stop());
  out.attempted = load.attempted() + publisher.published();
  ADARTS_RETURN_NOT_OK(load.Verify(d.snapshots));
  out.snapshots = d.snapshots;
  return out;
}

// ---------------------------------------------------------------------------
// Offline workloads.
// ---------------------------------------------------------------------------

Result<Outcome> RepairSetWorkload(const Config& config, const Scale& scale) {
  Outcome out;
  ADARTS_ASSIGN_OR_RETURN(Deployment d,
                          SetUp(config, scale, false, 0, &out.setup_s));
  const Adarts& engine = *d.engine;
  ExecContext ctx(kEngineThreads);
  std::vector<double> call_ms;
  std::size_t series = 0;
  Stopwatch elapsed;
  for (std::size_t i = 0; i == 0 || elapsed.ElapsedSeconds() < config.seconds;
       ++i) {
    ADARTS_ASSIGN_OR_RETURN(std::vector<ts::TimeSeries> set,
                            RepairInput(config, scale, i));
    Stopwatch call;
    Result<std::vector<ts::TimeSeries>> repaired =
        engine.RepairSet(set, RecommendBatchOptions{}, ctx);
    call_ms.push_back(call.ElapsedMillis());
    ++out.attempted;
    ADARTS_RETURN_NOT_OK(repaired.status());
    ADARTS_RETURN_NOT_OK(CheckRepairedSet(set, *repaired));
    series += set.size();
  }
  double total_ms = 0.0;
  for (double ms : call_ms) total_ms += ms;
  out.p50_ms = Percentile(call_ms, 0.5);
  out.work_per_s = static_cast<double>(series) / (total_ms / 1e3);
  ADARTS_ASSIGN_OR_RETURN(out.peak_rss_mb, PeakRssMb("self"));
  out.snapshots = d.snapshots;
  return out;
}

Result<Outcome> TrainOffline(const Config& config, const Scale& scale) {
  Outcome out;
  ADARTS_ASSIGN_OR_RETURN(Deployment d,
                          SetUp(config, scale, false, 0, &out.setup_s));
  const auto trains = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(config.seconds / scale.seconds_per_train)));
  std::vector<double> train_ms;
  double busy_s = 0.0;
  std::size_t series = 0;
  for (std::size_t i = 0; i < trains; ++i) {
    // Full retraining of reference corpus i (generator seed i + 1).
    std::vector<ts::TimeSeries> corpus =
        Corpus(i + 1, scale.corpus_per_category, scale.length);
    ExecContext ctx(kEngineThreads);
    Stopwatch train;
    Result<Adarts> engine = Adarts::Train(corpus, TrainingOptions(), ctx);
    train_ms.push_back(train.ElapsedMillis());
    busy_s += train.ElapsedSeconds();
    ++out.attempted;
    ADARTS_RETURN_NOT_OK(engine.status());
    series += corpus.size();
    if (i == 0) {
      out.trained.emplace(std::move(engine).value());
      out.trained_corpus = std::move(corpus);
    }
    // Incremental growth of the deployment: two appends per fresh copy.
    ADARTS_ASSIGN_OR_RETURN(Adarts grown, Adarts::Load(d.snapshots.front()));
    for (std::size_t j = 0; j < 2; ++j) {
      const std::vector<ts::TimeSeries> delta =
          Delta(InputSeed(config.seed, kDeltaStream, 2 * i + j), 2 * i + j,
                scale.delta_series, scale.length);
      ExecContext append_ctx(kEngineThreads);
      Stopwatch append;
      Status appended = grown.AppendSeries(delta, UpdateOptions{}, append_ctx);
      busy_s += append.ElapsedSeconds();
      ++out.attempted;
      ADARTS_RETURN_NOT_OK(appended);
      series += delta.size();
    }
  }
  out.p50_ms = Percentile(train_ms, 0.5);
  out.work_per_s = static_cast<double>(series) / busy_s;
  ADARTS_ASSIGN_OR_RETURN(out.peak_rss_mb, PeakRssMb("self"));
  out.snapshots = d.snapshots;
  return out;
}

// ---------------------------------------------------------------------------
// Traced replay: the workload's inputs through each layer's public calls.
// ---------------------------------------------------------------------------

/// Running means of replay counts and ratios, by metric name.
class Means {
 public:
  void Add(const std::string& name, double value) {
    auto& [sum, count] = sums_[name];
    sum += value;
    ++count;
  }
  std::map<std::string, double> Values() const {
    std::map<std::string, double> out;
    for (const auto& [name, sc] : sums_) out[name] = sc.first / sc.second;
    return out;
  }

 private:
  std::map<std::string, std::pair<double, double>> sums_;
};

/// The engine's extractor split into its feature families, so the replay
/// can time each family on its own.
struct Extractors {
  explicit Extractors(const features::FeatureExtractorOptions& options)
      : options(options),
        statistical(Only(options, true, false, false)),
        topological(Only(options, false, true, false)),
        missingness(Only(options, false, false, true)) {}

  static features::FeatureExtractorOptions Only(
      features::FeatureExtractorOptions o, bool statistical, bool topological,
      bool missingness) {
    o.statistical = statistical && o.statistical;
    o.topological = topological && o.topological;
    o.missingness = missingness && o.missingness;
    return o;
  }

  features::FeatureExtractorOptions options;
  features::FeatureExtractor statistical;
  features::FeatureExtractor topological;
  features::FeatureExtractor missingness;
};

/// The inputs one replay pass consumes, generated before either pass so
/// that input generation is not charged to the replay.
struct ReplayInputs {
  std::vector<std::string> snapshots;
  std::vector<std::vector<ts::TimeSeries>> heldout;
  std::vector<std::string> request_bodies;
  std::vector<std::vector<ts::TimeSeries>> sets;
  std::vector<std::vector<ts::TimeSeries>> deltas;
  const Adarts* trained = nullptr;
  const std::vector<ts::TimeSeries>* corpus = nullptr;
  std::string scratch_snapshot;
};

class Replay {
 public:
  Replay(const ReplayInputs& inputs, SpanRecorder& rec, Means* means)
      : in_(inputs), rec_(rec), means_(means) {}

  Status Run() {
    std::optional<Adarts> deployed;
    ADARTS_RETURN_NOT_OK(Snapshots(&deployed));
    const Adarts& engine =
        in_.trained != nullptr ? *in_.trained : *deployed;
    const Extractors extractors(engine.feature_extractor().options());
    ADARTS_RETURN_NOT_OK(HeldOut(engine, extractors));
    for (const std::string& body : in_.request_bodies) {
      ADARTS_RETURN_NOT_OK(Request(engine, extractors, body));
    }
    for (const auto& set : in_.sets) {
      ADARTS_RETURN_NOT_OK(Set(engine, extractors, set));
    }
    if (in_.trained != nullptr) ADARTS_RETURN_NOT_OK(Training());
    if (!in_.deltas.empty()) ADARTS_RETURN_NOT_OK(Appends());
    return Status::OK();
  }

 private:
  /// Load and re-save each distinct snapshot the workload published; keeps
  /// the first.
  Status Snapshots(std::optional<Adarts>* v1) {
    for (const std::string& path : in_.snapshots) {
      const std::uint64_t rid = next_rid_++;
      ScopedSpan root(rec_, "snapshot", rid);
      Result<Adarts> engine = Status::Internal("not loaded");
      {
        ScopedSpan s(rec_, "adarts.load", rid, root.index());
        engine = Adarts::Load(path);
      }
      ADARTS_RETURN_NOT_OK(engine.status());
      {
        ScopedSpan s(rec_, "adarts.save", rid, root.index());
        ADARTS_RETURN_NOT_OK(engine->Save(in_.scratch_snapshot));
      }
      if (!v1->has_value()) v1->emplace(std::move(engine).value());
    }
    return Status::OK();
  }

  /// One recommendation, taken apart: the engine's own calls, then the same
  /// features rebuilt family by family and the topological family rebuilt
  /// from the tda calls. Asserts the pieces reproduce the whole.
  Result<impute::Algorithm> Recommend(const Adarts& engine,
                                      const Extractors& ex,
                                      const ts::TimeSeries& series,
                                      std::uint64_t rid, int parent) {
    Result<Recommendation> full = Status::Internal("not run");
    Result<la::Vector> features = Status::Internal("not run");
    la::Vector proba;
    {
      ScopedSpan s(rec_, "adarts.recommend", rid, parent);
      full = engine.RecommendEx(series);
    }
    ADARTS_RETURN_NOT_OK(full.status());
    {
      ScopedSpan s(rec_, "features.extract", rid, parent);
      features = engine.ExtractFeatures(series);
    }
    ADARTS_RETURN_NOT_OK(features.status());
    {
      ScopedSpan s(rec_, "automl.vote", rid, parent);
      proba = engine.PredictProba(*features);
    }
    Result<la::Vector> statistical = Status::Internal("not run");
    Result<la::Vector> topological = Status::Internal("not run");
    Result<la::Vector> missingness = la::Vector{};
    {
      ScopedSpan s(rec_, "features.statistical", rid, parent);
      statistical = ex.statistical.Extract(series);
    }
    {
      ScopedSpan s(rec_, "features.topological", rid, parent);
      topological = ex.topological.Extract(series);
    }
    if (ex.options.missingness) {
      ScopedSpan s(rec_, "features.missingness", rid, parent);
      missingness = ex.missingness.Extract(series);
    }
    ADARTS_RETURN_NOT_OK(statistical.status());
    ADARTS_RETURN_NOT_OK(topological.status());
    ADARTS_RETURN_NOT_OK(missingness.status());
    ADARTS_ASSIGN_OR_RETURN(la::Vector rebuilt,
                            Topological(ex.options, series, rid, parent));
    ADARTS_RETURN_NOT_OK(
        CheckBitIdentical("tda-rebuilt topological features", *topological,
                          rebuilt));
    la::Vector composed = *statistical;
    composed.insert(composed.end(), rebuilt.begin(), rebuilt.end());
    composed.insert(composed.end(), missingness->begin(), missingness->end());
    ADARTS_RETURN_NOT_OK(
        CheckBitIdentical("composed features", *features, composed));

    // PredictProba's argmax must name the algorithm Recommend picked.
    const std::vector<impute::Algorithm>& pool = engine.algorithm_pool();
    const std::size_t cls =
        proba.empty()
            ? static_cast<std::size_t>(engine.default_class())
            : static_cast<std::size_t>(
                  std::max_element(proba.begin(), proba.end()) -
                  proba.begin());
    if (cls >= pool.size() || pool[cls] != full->algorithm) {
      return Status::Internal("PredictProba argmax disagrees with Recommend");
    }
    means_->Add("automl.committee_size",
                static_cast<double>(engine.committee_size()));
    means_->Add("automl.degraded_frac",
                full->degradation ==
                        automl::DegradationLevel::kFullCommittee
                    ? 0.0
                    : 1.0);
    return full->algorithm;
  }

  /// The extractor's topological family from the public tda calls, in the
  /// extractor's own order: interpolate, z-normalise, pick tau, embed,
  /// landmarks, Rips persistence, diagram statistics.
  Result<la::Vector> Topological(const features::FeatureExtractorOptions& o,
                                 const ts::TimeSeries& series,
                                 std::uint64_t rid, int parent) {
    if (!o.topological) return la::Vector{};
    la::Vector z;
    std::size_t tau = o.embedding_tau;
    {
      ScopedSpan s(rec_, "features.prepare", rid, parent);
      z = features::InterpolateMissing(series);
      const double m = la::Mean(z);
      double sd = la::StdDev(z);
      if (sd <= 0.0) sd = 1.0;
      for (double& x : z) x = (x - m) / sd;
      if (tau == 0) {
        tau = std::max<std::size_t>(
            ts::FirstAcfCrossing(z, std::min<std::size_t>(z.size() / 4, 32)),
            1);
      }
    }
    Result<tda::PointCloud> cloud = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "tda.embed", rid, parent);
      cloud = tda::DelayEmbed(z, o.embedding_dimension, tau);
      if (!cloud.ok()) cloud = tda::DelayEmbed(z, o.embedding_dimension, 1);
    }
    tda::DiagramStats h0, h1;
    if (cloud.ok() && cloud->size() >= 3) {
      tda::PointCloud landmarks;
      {
        ScopedSpan s(rec_, "tda.landmarks", rid, parent);
        landmarks = tda::MaxMinLandmarks(*cloud, o.landmarks);
      }
      Result<tda::PersistenceDiagram> diagram = Status::Internal("not run");
      {
        ScopedSpan s(rec_, "tda.rips", rid, parent);
        diagram = tda::ComputeRipsPersistence(landmarks);
      }
      const double l = static_cast<double>(landmarks.size());
      means_->Add("tda.points", static_cast<double>(cloud->size()));
      means_->Add("tda.landmarks", l);
      means_->Add("tda.triangles", l * (l - 1.0) * (l - 2.0) / 6.0);
      if (diagram.ok()) {
        ScopedSpan s(rec_, "tda.stats", rid, parent);
        h0 = tda::ComputeDiagramStats(*diagram, 0);
        h1 = tda::ComputeDiagramStats(*diagram, 1);
        means_->Add("tda.pairs", static_cast<double>(diagram->pairs.size()));
      }
    }
    la::Vector out = tda::DiagramStatsToVector(h0);
    const la::Vector v1 = tda::DiagramStatsToVector(h1);
    out.insert(out.end(), v1.begin(), v1.end());
    return out;
  }

  /// Every pool imputer on each held-out set (the reference), then the
  /// engine's pick per series: regret = RMSE(pick) / RMSE(best).
  Status HeldOut(const Adarts& engine, const Extractors& ex) {
    for (const std::vector<ts::TimeSeries>& set : in_.heldout) {
      const std::uint64_t rid = next_rid_++;
      ScopedSpan root(rec_, "reference", rid);
      std::vector<std::map<impute::Algorithm, double>> rmse(set.size());
      for (impute::Algorithm a : impute::AllAlgorithms()) {
        Result<std::vector<ts::TimeSeries>> repaired =
            Status::Internal("not run");
        {
          ScopedSpan s(rec_,
                       "impute.set." + std::string(impute::AlgorithmToString(a)),
                       rid, root.index());
          repaired = impute::CreateImputer(a)->ImputeSet(set);
        }
        if (!repaired.ok()) continue;
        for (std::size_t i = 0; i < set.size(); ++i) {
          Result<double> r = ts::ImputationRmse(set[i], (*repaired)[i]);
          if (r.ok() && std::isfinite(*r)) rmse[i][a] = *r;
        }
      }
      for (std::size_t i = 0; i < set.size(); ++i) {
        ADARTS_ASSIGN_OR_RETURN(impute::Algorithm pick,
                                Recommend(engine, ex, set[i], rid,
                                          root.index()));
        double best = std::numeric_limits<double>::infinity();
        for (const auto& [a, r] : rmse[i]) best = std::min(best, r);
        const auto picked = rmse[i].find(pick);
        if (picked != rmse[i].end() && best > 0.0) {
          means_->Add("automl.regret", picked->second / best);
        }
      }
    }
    return Status::OK();
  }

  /// A served request: decode the frame, recommend, encode the reply.
  Status Request(const Adarts& engine, const Extractors& ex,
                 const std::string& body) {
    const std::uint64_t rid = next_rid_++;
    ScopedSpan root(rec_, "request", rid);
    Result<net::Request> request = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "net.decode", rid, root.index());
      request = net::DecodeRequest(body);
    }
    ADARTS_RETURN_NOT_OK(request.status());
    ADARTS_ASSIGN_OR_RETURN(
        impute::Algorithm pick,
        Recommend(engine, ex, request->series.front(), rid, root.index()));
    net::Response response;
    response.type = request->type;
    response.id = request->id;
    response.algorithms.emplace_back(impute::AlgorithmToString(pick));
    response.engine_version = engine.engine_version();
    std::string encoded;
    {
      ScopedSpan s(rec_, "net.encode", rid, root.index());
      encoded = net::EncodeResponse(response);
    }
    // Both frames carry a 4-byte length prefix on the wire.
    means_->Add("net.frame_bytes",
                static_cast<double>(body.size() + encoded.size() + 8));
    return Status::OK();
  }

  /// A set repair as RepairSet composes it: batched recommendation, majority
  /// vote (ties to the smallest algorithm id), set-wise imputation with the
  /// winner, linear interpolation if the winner fails. Asserts that the
  /// composition repairs the set exactly as `Adarts::RepairSet` does.
  Status Set(const Adarts& engine, const Extractors& ex,
             const std::vector<ts::TimeSeries>& set) {
    const std::uint64_t rid = next_rid_++;
    ScopedSpan root(rec_, "set", rid);
    Result<std::vector<impute::Algorithm>> picks = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "adarts.recommend_batch", rid, root.index());
      picks = engine.RecommendBatch(set, RecommendBatchOptions{}, ctx_);
    }
    ADARTS_RETURN_NOT_OK(picks.status());
    std::map<int, std::size_t> votes;
    for (impute::Algorithm a : *picks) ++votes[static_cast<int>(a)];
    const auto winner = static_cast<impute::Algorithm>(
        std::max_element(votes.begin(), votes.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         })
            ->first);
    impute::FitDiagnostics diagnostics;
    Result<std::vector<ts::TimeSeries>> repaired = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "impute.set", rid, root.index());
      repaired = impute::CreateImputer(winner)->ImputeSetWithDiagnostics(
          set, &diagnostics);
    }
    means_->Add("impute.iterations", diagnostics.iterations);
    means_->Add("impute.not_converged_frac",
                !diagnostics.converged && diagnostics.iterations > 0 ? 1.0
                                                                     : 0.0);
    means_->Add("impute.fallback_frac", repaired.ok() ? 0.0 : 1.0);
    if (!repaired.ok()) {
      ScopedSpan s(rec_, "impute.fallback", rid, root.index());
      repaired = impute::CreateImputer(impute::Algorithm::kLinearInterp)
                     ->ImputeSet(set);
    }
    ADARTS_RETURN_NOT_OK(repaired.status());
    ADARTS_RETURN_NOT_OK(CheckRepairedSet(set, *repaired));
    Result<std::vector<ts::TimeSeries>> real = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "adarts.repair_set", rid, root.index());
      real = engine.RepairSet(set, RecommendBatchOptions{}, ctx_);
    }
    ADARTS_RETURN_NOT_OK(real.status());
    for (std::size_t i = 0; i < set.size(); ++i) {
      ADARTS_RETURN_NOT_OK(CheckBitIdentical(
          "composed set repair, series " + std::to_string(i),
          (*real)[i].values(), (*repaired)[i].values()));
    }
    for (std::size_t i = 0; i < std::min<std::size_t>(kSeriesPerSet, set.size());
         ++i) {
      ADARTS_RETURN_NOT_OK(
          Recommend(engine, ex, set[i], rid, root.index()).status());
    }
    return Status::OK();
  }

  /// Train's four stages composed by hand, in Train's order and on Train's
  /// Rng; the race must come out with the same elites as Train.
  Status Training() {
    const std::uint64_t rid = next_rid_++;
    ScopedSpan root(rec_, "train", rid);
    const std::vector<ts::TimeSeries>& corpus = *in_.corpus;
    const TrainOptions options = TrainingOptions();
    ExecContext ctx(kEngineThreads);
    Rng rng(options.seed);
    Result<ClusterStageState> clusters = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "cluster.stage", rid, root.index());
      clusters = ClusterStage(corpus, options, ctx);
    }
    ADARTS_RETURN_NOT_OK(clusters.status());
    Result<LabelStageState> labeled = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "labeling.stage", rid, root.index());
      labeled = LabelStage(corpus, &clusters->clustering, options, &rng, ctx);
    }
    ADARTS_RETURN_NOT_OK(labeled.status());
    Result<RaceStageState> race = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "automl.race", rid, root.index());
      race = RaceStage(labeled->labeled, options.race,
                       options.race_train_fraction, nullptr, &rng, ctx);
    }
    ADARTS_RETURN_NOT_OK(race.status());
    {
      ScopedSpan s(rec_, "automl.committee", rid, root.index());
      ADARTS_RETURN_NOT_OK(
          CommitteeStage(race->report, labeled->labeled, ctx).status());
    }
    std::vector<std::string> expected, got;
    for (const auto& e : in_.trained->race_report().elites) {
      expected.push_back(e.spec.ToString());
    }
    for (const auto& e : race->report.elites) got.push_back(e.spec.ToString());
    ADARTS_RETURN_NOT_OK(
        CheckSameSequence("stage-composed race elites", expected, got));

    means_->Add("cluster.count",
                static_cast<double>(clusters->clustering.NumClusters()));
    means_->Add("labeling.runs_per_series",
                static_cast<double>(labeled->labels.imputation_runs) /
                    static_cast<double>(corpus.size()));
    const double evaluated =
        static_cast<double>(race->report.pipelines_evaluated);
    means_->Add("automl.race_evaluated", evaluated);
    means_->Add("automl.race_survivor_frac",
                evaluated > 0.0
                    ? static_cast<double>(race->report.elites.size()) /
                          evaluated
                    : 0.0);
    return Status::OK();
  }

  /// The deployment grown by each delta in turn.
  Status Appends() {
    const std::uint64_t rid = next_rid_++;
    ScopedSpan root(rec_, "append", rid);
    Result<Adarts> engine = Status::Internal("not run");
    {
      ScopedSpan s(rec_, "adarts.load", rid, root.index());
      engine = Adarts::Load(in_.snapshots.front());
    }
    ADARTS_RETURN_NOT_OK(engine.status());
    for (const std::vector<ts::TimeSeries>& delta : in_.deltas) {
      ExecContext ctx(kEngineThreads);
      {
        ScopedSpan s(rec_, "adarts.append", rid, root.index());
        ADARTS_RETURN_NOT_OK(
            engine->AppendSeries(delta, UpdateOptions{}, ctx));
      }
      const auto& counters = engine->train_report().stages.counters;
      const auto assigned = counters.find("update.assigned");
      means_->Add("adarts.append_assigned_frac",
                  assigned == counters.end()
                      ? 0.0
                      : static_cast<double>(assigned->second) /
                            static_cast<double>(delta.size()));
    }
    return Status::OK();
  }

  static constexpr std::size_t kSeriesPerSet = 2;

  const ReplayInputs& in_;
  SpanRecorder& rec_;
  Means* means_;
  ExecContext ctx_{kEngineThreads};
  std::uint64_t next_rid_ = 1;
};

Result<ReplayInputs> MakeReplayInputs(const Config& config, const Scale& scale,
                                      const Outcome& outcome) {
  ReplayInputs in;
  // One snapshot per distinct model: swap_under_load publishes two models
  // under many version numbers.
  std::set<std::uint64_t> checksums;
  for (const std::string& path : outcome.snapshots) {
    ADARTS_ASSIGN_OR_RETURN(SnapshotHeader header, ReadSnapshotHeader(path));
    if (checksums.insert(header.checksum).second) in.snapshots.push_back(path);
  }
  in.scratch_snapshot = config.workdir + "/replay.adarts";
  for (std::size_t h = 0; h < scale.heldout_sets; ++h) {
    ADARTS_ASSIGN_OR_RETURN(
        std::vector<ts::TimeSeries> set,
        MaskedSet(InputSeed(config.seed, kHeldOutStream, h), h,
                  scale.heldout_series, scale.length));
    in.heldout.push_back(std::move(set));
  }
  if (config.workload == "recommend_open" ||
      config.workload == "swap_under_load") {
    for (std::size_t i = 0; i < scale.replay_requests; ++i) {
      ADARTS_ASSIGN_OR_RETURN(
          std::string body,
          RequestBody(config.seed, outcome.replay_first_id + i, scale.length));
      in.request_bodies.push_back(std::move(body));
    }
  }
  if (config.workload == "repair_set") {
    for (std::size_t i = 0; i < scale.replay_sets; ++i) {
      ADARTS_ASSIGN_OR_RETURN(std::vector<ts::TimeSeries> set,
                              RepairInput(config, scale, i));
      in.sets.push_back(std::move(set));
    }
  }
  if (config.workload == "train_offline") {
    in.trained = &*outcome.trained;
    in.corpus = &outcome.trained_corpus;
    for (std::size_t j = 0; j < 2; ++j) {
      in.deltas.push_back(Delta(InputSeed(config.seed, kDeltaStream, j), j,
                                scale.delta_series, scale.length));
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Metric tables.
// ---------------------------------------------------------------------------

RunResult EndToEnd(const Outcome& o) {
  RunResult r;
  r.attempted = o.attempted;
  r.failed = o.failed;
  r.metrics = {{"setup_s", o.setup_s, "s"},
               {"p50_ms", o.p50_ms, "ms"},
               {"work_per_s", o.work_per_s, "1/s"},
               {"peak_rss_mb", o.peak_rss_mb, "MiB"}};
  return r;
}

/// One per-layer metric: its unit, and the span whose mean duration it
/// reports (scaled to the unit), or none when the value is a count, a ratio
/// or a live-run measurement.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::string span;
  double scale = 1.0;
};

std::vector<LayerMetric> LayerMetrics() {
  std::vector<LayerMetric> m = {
      {"net.queue_wait_ms", "ms", "", 1.0},
      {"net.overhead_ms", "ms", "", 1.0},
      {"net.gen_late_p99_ms", "ms", "", 1.0},
      {"net.p99_ms", "ms", "", 1.0},
      {"net.decode_us", "us", "net.decode", 1e6},
      {"net.encode_us", "us", "net.encode", 1e6},
      {"net.frame_bytes", "bytes", "", 1.0},
      {"net.shed", "count", "", 1.0},
      {"net.reload_ms", "ms", "", 1.0},
      {"adarts.service_ms", "ms", "", 1.0},
      {"adarts.recommend_glue_us", "us", "", 1.0},
      {"adarts.recommend_batch_ms", "ms", "adarts.recommend_batch", 1e3},
      {"adarts.load_ms", "ms", "adarts.load", 1e3},
      {"adarts.save_ms", "ms", "adarts.save", 1e3},
      {"adarts.append_s", "s", "adarts.append", 1.0},
      {"adarts.append_assigned_frac", "ratio", "", 1.0},
      {"features.extract_us", "us", "features.extract", 1e6},
      {"features.statistical_us", "us", "features.statistical", 1e6},
      {"features.topological_us", "us", "features.topological", 1e6},
      {"features.prepare_us", "us", "features.prepare", 1e6},
      {"tda.embed_us", "us", "tda.embed", 1e6},
      {"tda.landmarks_us", "us", "tda.landmarks", 1e6},
      {"tda.rips_us", "us", "tda.rips", 1e6},
      {"tda.stats_us", "us", "tda.stats", 1e6},
      {"tda.points", "count", "", 1.0},
      {"tda.landmarks", "count", "", 1.0},
      {"tda.triangles", "count", "", 1.0},
      {"tda.pairs", "count", "", 1.0},
      {"automl.vote_us", "us", "automl.vote", 1e6},
      {"automl.committee_size", "count", "", 1.0},
      {"automl.degraded_frac", "ratio", "", 1.0},
      {"automl.regret", "ratio", "", 1.0},
      {"automl.race_s", "s", "automl.race", 1.0},
      {"automl.committee_s", "s", "automl.committee", 1.0},
      {"automl.race_evaluated", "count", "", 1.0},
      {"automl.race_survivor_frac", "ratio", "", 1.0},
      {"impute.set_ms", "ms", "impute.set", 1e3},
      {"impute.iterations", "count", "", 1.0},
      {"impute.not_converged_frac", "ratio", "", 1.0},
      {"impute.fallback_frac", "ratio", "", 1.0},
      {"cluster.stage_s", "s", "cluster.stage", 1.0},
      {"cluster.count", "count", "", 1.0},
      {"labeling.stage_s", "s", "labeling.stage", 1.0},
      {"labeling.runs_per_series", "ratio", "", 1.0},
      {"trace.coverage", "ratio", "", 1.0},
      {"trace.overhead_frac", "ratio", "", 1.0},
  };
  for (impute::Algorithm a : impute::AllAlgorithms()) {
    const std::string name(impute::AlgorithmToString(a));
    m.push_back({"impute.set_ms." + name, "ms", "impute.set." + name, 1e3});
  }
  return m;
}

Result<RunResult> PerLayer(const Config& config, const Scale& scale,
                           const Outcome& outcome) {
  ADARTS_ASSIGN_OR_RETURN(ReplayInputs inputs,
                          MakeReplayInputs(config, scale, outcome));
  // An untraced pass, then the traced one: their walls give the tracing
  // overhead. A warm-up pass goes first, because the first pass over the
  // inputs pays for cold caches and page faults.
  double untraced_s = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    SpanRecorder off(false);
    Means ignored;
    Stopwatch wall;
    ADARTS_RETURN_NOT_OK(Replay(inputs, off, &ignored).Run());
    untraced_s = wall.ElapsedSeconds();
  }
  SpanRecorder rec(true);
  Means means;
  Stopwatch wall;
  ADARTS_RETURN_NOT_OK(Replay(inputs, rec, &means).Run());
  const double traced_s = wall.ElapsedSeconds();

  ADARTS_RETURN_NOT_OK(rec.WriteChromeTrace(config.trace_file));
  ADARTS_RETURN_NOT_OK(
      RunToCompletion({config.trace_stats_binary, config.trace_file}));

  std::map<std::string, double> values = means.Values();
  for (const auto& [name, value] : outcome.layers) values[name] = value;
  const std::map<std::string, SpanTotals> totals = rec.Totals();
  const auto mean_s = [&totals](const std::string& span) {
    const auto it = totals.find(span);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s / static_cast<double>(it->second.count);
  };
  if (totals.count("adarts.recommend") != 0) {
    values["adarts.recommend_glue_us"] =
        (mean_s("adarts.recommend") - mean_s("features.extract") -
         mean_s("automl.vote")) *
        1e6;
  }
  values["trace.coverage"] = rec.LayerSelfSeconds() / traced_s;
  values["trace.overhead_frac"] = traced_s / untraced_s - 1.0;

  RunResult r;
  r.attempted = outcome.attempted;
  r.failed = outcome.failed;
  for (const LayerMetric& m : LayerMetrics()) {
    const double value =
        m.span.empty() ? values[m.name] : mean_s(m.span) * m.scale;
    r.metrics.push_back({m.name, value, m.unit});
  }
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "recommend_open", "repair_set", "train_offline", "swap_under_load"};
  return names;
}

Result<RunResult> RunWorkload(const Config& config) {
  const Scale scale = ScaleFor(config.quick);
  Result<Outcome> outcome = Status::NotFound("unknown workload: " +
                                             config.workload);
  if (config.workload == "recommend_open") {
    outcome = RecommendOpen(config, scale);
  } else if (config.workload == "repair_set") {
    outcome = RepairSetWorkload(config, scale);
  } else if (config.workload == "train_offline") {
    outcome = TrainOffline(config, scale);
  } else if (config.workload == "swap_under_load") {
    outcome = SwapUnderLoad(config, scale);
  }
  ADARTS_RETURN_NOT_OK(outcome.status());
  if (!config.trace) return EndToEnd(*outcome);
  return PerLayer(config, scale, *outcome);
}

}  // namespace adarts::e2e
