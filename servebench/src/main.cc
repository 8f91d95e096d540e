// servebench: the repository's serving benchmark (see README.md).
//
//   servebench gen --workload W --seed S --dir D [--trace 1]
//       writes the workload's corpus into D (the generation time is not
//       part of any metric, and a separate process keeps its memory out of
//       the measured process's peak RSS);
//   servebench run --workload W --seed S --seconds T --trace 0|1 --dir D
//       sets the workload up, drives it closed-loop for T seconds, checks
//       a seeded sample of answers against QueryService::RunOne, and prints
//       the metrics; the last stdout line is the JSON result.
//
// Workloads:
//   remote_short  net::Client connections -> net::Server on loopback ->
//                 snapshot-backed QueryService; short localized queries.
//   scan_batch    in-process QueryService::SubmitBatch over a CSV-loaded
//                 corpus; long queries with filter=none (full scans).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algo/registry.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "engine/engine.h"
#include "geo/mbr.h"
#include "geo/simd_dispatch.h"
#include "index/inverted_grid.h"
#include "index/rtree.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "rl/policy_io.h"
#include "rl/trainer.h"
#include "service/query_service.h"
#include "similarity/measure.h"
#include "similarity/registry.h"
#include "stats.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

using namespace simsub;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Take(util::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void Check(const util::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set size so far (VmHWM), in MiB.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Workload definitions. Every number here is fixed: the load never depends
// on a measurement taken during the run.

struct Key {
  const char* measure;
  const char* algorithm;
  int weight;  ///< slots per cycle of the fixed key schedule
};

struct Workload {
  const char* name;
  bool remote;
  int query_len_lo;
  int query_len_hi;
  int clients;  ///< connections (remote) or dispatcher threads (in-process)
  int batch;    ///< specs per SubmitBatch (1 = single requests over the wire)
  int pool;     ///< distinct units (requests or batches) before the stream repeats
  int warmup;   ///< units run before the measured phase
  double tail_pct;
  int gate_stride;  ///< every gate_stride-th unit of the first pass is checked
  int ar_sample;    ///< approximate requests in the approximation-ratio sample
  int topk_every;   ///< every topk_every-th batch carries one topk-sub spec
  int topk_len;     ///< query length of the topk-sub spec
  std::vector<Key> keys;
};

constexpr int kCorpusTrajectories = 20000;
constexpr int kK = 10;
constexpr int kWorkers = 2;  ///< QueryService worker threads
constexpr int kSetupReps = 5;
constexpr int kRlSkipCount = 3;
constexpr int kRlEpisodes = 800;
constexpr uint64_t kTrainingSeed = 20200901;
constexpr double kHardCapSeconds = 120.0;

const Workload& GetWorkload(const std::string& name) {
  static const Workload kRemote{
      "remote_short", true, /*query_len_lo=*/4, /*query_len_hi=*/16,
      /*clients=*/3, /*batch=*/1, /*pool=*/4096, /*warmup=*/256,
      /*tail_pct=*/99.0, /*gate_stride=*/32, /*ar_sample=*/1024,
      /*topk_every=*/0, /*topk_len=*/0,
      {{"dtw", "pss", 7},
       {"frechet", "pss", 7},
       {"dtw", "rls-skip", 3},
       {"dtw", "exacts", 1},
       {"frechet", "exacts", 1},
       {"dtw", "sizes", 1}}};
  static const Workload kScan{
      "scan_batch", false, /*query_len_lo=*/16, /*query_len_hi=*/32,
      /*clients=*/2, /*batch=*/4, /*pool=*/512, /*warmup=*/4,
      // 63 = 31 (mod 32): the gate sample includes a topk-sub batch.
      /*tail_pct=*/90.0, /*gate_stride=*/63, /*ar_sample=*/128,
      /*topk_every=*/32, /*topk_len=*/8,
      {{"frechet", "pss", 3},
       {"frechet", "sizes", 2},
       {"frechet", "exacts", 2},
       {"dtw", "pss", 2},
       {"dtw", "sizes", 1}}};
  if (name == kRemote.name) return kRemote;
  if (name == kScan.name) return kScan;
  Die("unknown workload '" + name + "' (remote_short | scan_batch)");
}

/// Smooth weighted round robin over the keys: a fixed schedule whose every
/// window of one cycle holds each key exactly `weight` times, so the mix a
/// run sees does not depend on the seed or on where the run stops.
std::vector<int> KeySchedule(const std::vector<Key>& keys) {
  int total = 0;
  for (const Key& k : keys) total += k.weight;
  std::vector<int> current(keys.size(), 0);
  std::vector<int> out;
  for (int slot = 0; slot < total; ++slot) {
    size_t best = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      current[i] += keys[i].weight;
      if (current[i] > current[best]) best = i;
    }
    current[best] -= total;
    out.push_back(static_cast<int>(best));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Inputs.

std::string CorpusPath(const std::string& dir, const char* ext) {
  return dir + "/corpus." + ext;
}

/// Writes the corpus the workload loads at setup (plus, for a traced run,
/// the other on-disk format, whose load time is a per-layer metric).
void Generate(const Workload& w, uint64_t seed, const std::string& dir,
              bool trace) {
  data::Dataset ds =
      data::GenerateDataset(data::DatasetKind::kPorto, kCorpusTrajectories, seed);
  if (w.remote || trace) {
    Check(data::WriteSnapshot(ds, CorpusPath(dir, "snap")), "write snapshot");
  }
  if (!w.remote || trace) {
    Check(data::SaveCsv(ds, CorpusPath(dir, "csv")), "write csv");
  }
}

/// The request stream. Query points are slices of held-out trajectories
/// (generated from the seed, never part of the corpus, so ExactS distances
/// are positive and the approximation ratio is defined).
struct Stream {
  std::vector<std::vector<geo::Point>> points;  // owned query storage
  /// units[u] = the specs of unit u (one request, or one batch).
  std::vector<std::vector<service::QuerySpec>> units;
  std::string policy_path;
  /// RLS training pools. Generated from a fixed seed, not the run's: the
  /// policy, and so RLS-Skip's cost per query and the training time inside
  /// setup_s, are then the same in every run.
  std::vector<geo::Trajectory> train_data;
  std::vector<geo::Trajectory> train_queries;
};

Stream BuildStream(const Workload& w, uint64_t seed, const std::string& dir) {
  Stream s;
  s.policy_path = dir + "/policy.txt";
  const data::Dataset held = data::GenerateDataset(
      data::DatasetKind::kPorto, 2000, seed ^ 0x5eedf00dcafe1234ULL);
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  const std::vector<int> schedule = KeySchedule(w.keys);
  // Specs view their points: size the storage once so it never moves.
  s.points.reserve(static_cast<size_t>(w.pool) * static_cast<size_t>(w.batch));
  for (int u = 0; u < w.pool; ++u) {
    const Key& key = w.keys[static_cast<size_t>(schedule[static_cast<size_t>(u) % schedule.size()])];
    const bool topk_unit = w.topk_every > 0 && u % w.topk_every == w.topk_every - 1;
    std::vector<service::QuerySpec> unit;
    for (int i = 0; i < w.batch; ++i) {
      const bool topk = topk_unit && i == w.batch - 1;
      const int len = topk ? w.topk_len
                           : static_cast<int>(rng.UniformInt(w.query_len_lo, w.query_len_hi));
      const geo::Trajectory* t = nullptr;
      do {
        t = &held.trajectories[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(held.trajectories.size()) - 1))];
      } while (t->size() < len);
      const auto first = t->points().begin() + rng.UniformInt(0, t->size() - len);
      s.points.emplace_back(first, first + len);
      service::QuerySpec spec;
      spec.points = s.points.back();
      spec.measure = key.measure;
      spec.algorithm = topk ? "topk-sub" : key.algorithm;
      spec.k = kK;
      if (topk) spec.min_size = 2;
      if (spec.algorithm == "rls-skip") {
        spec.algorithm_options.rls_policy_path = s.policy_path;
      }
      if (!w.remote) spec.filter = engine::PruningFilter::kNone;
      unit.push_back(std::move(spec));
    }
    s.units.push_back(std::move(unit));
  }
  s.train_data = data::GenerateDataset(data::DatasetKind::kPorto, 256, kTrainingSeed).trajectories;
  util::Rng train_rng(kTrainingSeed);
  for (const auto& t : data::GenerateDataset(data::DatasetKind::kPorto, 64, kTrainingSeed + 1).trajectories) {
    const int len = static_cast<int>(train_rng.UniformInt(4, 16));
    const auto first = t.points().begin() + train_rng.UniformInt(0, t.size() - len);
    s.train_queries.emplace_back(std::vector<geo::Point>(first, first + len));
  }
  return s;
}

// ---------------------------------------------------------------------------
// Set-up: corpus open/load -> engine -> indexes -> service [-> policy
// training -> server -> connections]. Timed as a whole (setup_s) and per
// layer.

struct SetupTimes {
  double total_s = 0;
  double snapshot_open_s = 0;
  double csv_load_s = 0;
  double engine_build_s = 0;
  double index_build_s = 0;
  double rl_train_s = 0;
};

struct Stack {
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::Server> server;
  std::vector<net::Client> clients;  // destroyed first: connections close
};

service::ServiceOptions MakeServiceOptions() {
  service::ServiceOptions o;
  o.threads = kWorkers;
  return o;
}

rl::TrainedPolicy TrainPolicy(const Stream& stream) {
  auto measure = Take(similarity::MakeMeasure("dtw"), "make dtw");
  rl::RlsTrainOptions o;
  o.episodes = kRlEpisodes;
  o.seed = kTrainingSeed;
  o.env.skip_count = kRlSkipCount;
  // Matches the repository's bench setting for skip policies.
  o.dqn.gamma = 0.99;
  rl::RlsTrainer trainer(measure.get(), o);
  return trainer.Train(stream.train_data, stream.train_queries);
}

Stack SetUp(const Workload& w, uint64_t seed, const std::string& dir,
            const Stream& stream, SetupTimes* times) {
  Stack st;
  const auto t0 = Clock::now();
  std::optional<engine::SimSubEngine> engine;
  if (w.remote) {
    auto t = Clock::now();
    auto snap = Take(data::CorpusSnapshot::Open(CorpusPath(dir, "snap")), "open snapshot");
    times->snapshot_open_s = SecondsSince(t);
    t = Clock::now();
    engine.emplace(*snap);
    times->engine_build_s = SecondsSince(t);
  } else {
    auto t = Clock::now();
    auto ds = Take(data::LoadCsv(CorpusPath(dir, "csv"), "corpus", data::DatasetKind::kPorto),
                   "load csv");
    times->csv_load_s = SecondsSince(t);
    t = Clock::now();
    engine.emplace(std::move(ds.trajectories));
    times->engine_build_s = SecondsSince(t);
  }
  const service::ServiceOptions so = MakeServiceOptions();
  auto t = Clock::now();
  // The service constructor builds these same indexes; building them here
  // first (idempotent) times the index layer on its own.
  if (so.build_rtree) engine->BuildIndex();
  if (so.build_inverted_grid) {
    engine->BuildInvertedIndex(so.inverted_grid_cols, so.inverted_grid_rows);
  }
  times->index_build_s = SecondsSince(t);
  st.service = std::make_unique<service::QueryService>(std::move(*engine), so);
  if (w.remote) {
    t = Clock::now();
    rl::TrainedPolicy policy = TrainPolicy(stream);
    times->rl_train_s = SecondsSince(t);
    Check(rl::SavePolicyToFile(policy, stream.policy_path), "save policy");
    net::ServerOptions no;
    // One request per connection is ever in flight, so a window as wide as
    // the connection count never sheds; no quotas, no deadlines.
    no.max_inflight = w.clients;
    st.server = std::make_unique<net::Server>(*st.service, no);
    Check(st.server->Start(), "start server");
    for (int c = 0; c < w.clients; ++c) {
      net::ClientOptions co;
      co.client_id = "servebench-" + std::to_string(c);
      co.backoff_seed = seed + static_cast<uint64_t>(c);
      st.clients.push_back(
          Take(net::Client::Connect("127.0.0.1", st.server->port(), co), "connect"));
    }
  }
  times->total_s = SecondsSince(t0);
  return st;
}

// ---------------------------------------------------------------------------
// Closed-loop phases.

/// Per-thread span storage; merged after the phase.
struct SpanBuffer {
  std::vector<Span> spans;
  int32_t Add(const char* name, int64_t request, int64_t start, int64_t end,
              int32_t parent) {
    spans.push_back({name, request, start, end, parent});
    return static_cast<int32_t>(spans.size() - 1);
  }
};

std::vector<Span> MergeSpans(std::vector<SpanBuffer>& buffers) {
  std::vector<Span> out;
  for (auto& b : buffers) {
    const auto offset = static_cast<int32_t>(out.size());
    for (Span s : b.spans) {
      if (s.parent >= 0) s.parent += offset;
      out.push_back(s);
    }
  }
  return out;
}

/// What a traced phase keeps from each answered request.
struct ReportDigest {
  double queue_ms;
  double exec_ms;
  int64_t scanned;
  int64_t lb_skipped;
  int64_t dp_abandoned;
};

struct PhaseResult {
  std::vector<double> latency_ms;  ///< per request (remote) or per batch
  std::vector<int64_t> latency_unit;  ///< pool index of each latency sample
  FailTally tally;
  int64_t units = 0;
  double seconds = 0;
  double cpu_seconds = 0;
  service::ServiceStats stats_before;
  service::ServiceStats stats_after;
  net::ServerStats server_before;
  net::ServerStats server_after;
  int64_t client_retries = 0;
  std::vector<Span> spans;
  std::vector<ReportDigest> digests;
};

/// Gate answers: slot i holds the first answers to unit i * gate_stride of
/// the first pass over the pool. Each slot has exactly one writer (unit
/// indices are handed out once), so no lock is needed.
using GateAnswers = std::vector<std::optional<std::vector<engine::QueryReport>>>;

Outcome Classify(const util::Status& status) {
  if (status.ok()) return Outcome::kOk;
  if (status.code() == util::StatusCode::kResourceExhausted) return Outcome::kShed;
  return Outcome::kNonOk;
}

struct PhaseOptions {
  int64_t first_unit = 0;
  double seconds = 0;
  int64_t min_samples = 0;   ///< keep going past `seconds` until reached
  int64_t fixed_units = -1;  ///< >= 0: run exactly this many units (warm-up)
  bool trace = false;
  GateAnswers* gate = nullptr;
};

PhaseResult RunPhase(const Workload& w, Stack& st, const Stream& stream,
                     const PhaseOptions& po) {
  PhaseResult r;
  util::ThreadPool pool(w.clients);
  std::atomic<int64_t> next{po.first_unit};
  std::atomic<int64_t> completed{0};
  const int64_t pool_units = static_cast<int64_t>(stream.units.size());
  std::vector<std::vector<double>> lat(static_cast<size_t>(w.clients));
  std::vector<std::vector<int64_t>> lat_unit(static_cast<size_t>(w.clients));
  std::vector<std::vector<int64_t>> lat_end(static_cast<size_t>(w.clients));
  std::vector<FailTally> tallies(static_cast<size_t>(w.clients));
  std::vector<SpanBuffer> spans(static_cast<size_t>(w.clients));
  std::vector<std::vector<ReportDigest>> digests(static_cast<size_t>(w.clients));

  r.stats_before = st.service->stats();
  if (st.server) r.server_before = st.server->stats();
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  auto keep_going = [&](int64_t unit) {
    if (po.fixed_units >= 0) return unit < po.first_unit + po.fixed_units;
    const double elapsed = SecondsSince(t0);
    if (elapsed >= kHardCapSeconds) return false;
    return elapsed < po.seconds ||
           completed.load(std::memory_order_relaxed) < po.min_samples;
  };

  std::vector<std::future<void>> futures;
  for (int c = 0; c < w.clients; ++c) {
    futures.push_back(pool.Submit([&, c] {
      const auto ci = static_cast<size_t>(c);
      for (;;) {
        const int64_t unit = next.fetch_add(1, std::memory_order_relaxed);
        if (!keep_going(unit)) break;
        const auto& specs = stream.units[static_cast<size_t>(unit % pool_units)];
        const bool gate_unit = po.gate != nullptr &&
                               unit - po.first_unit < pool_units &&
                               (unit % pool_units) % w.gate_stride == 0;
        std::vector<engine::QueryReport> answers;
        const int64_t start = NowNs();
        if (w.remote) {
          auto res = st.clients[ci].Query(specs[0]);
          const int64_t end = NowNs();
          lat[ci].push_back(static_cast<double>(end - start) * 1e-6);
          lat_unit[ci].push_back(unit % pool_units);
          lat_end[ci].push_back(end);
          if (!res.ok()) {
            tallies[ci].Record(Outcome::kTransportError);
          } else {
            const engine::QueryReport& rep = res.value();
            tallies[ci].Record(Classify(rep.status));
            if (po.trace) {
              const int32_t root = spans[ci].Add("net.round_trip", unit, start, end, -1);
              // The service's own timings place queue and execution inside
              // the round trip; the wire share is split evenly around them.
              const auto q = static_cast<int64_t>(rep.queue_seconds * 1e9);
              const auto e = static_cast<int64_t>(rep.seconds * 1e9);
              const int64_t gap = std::max<int64_t>(0, (end - start - q - e) / 2);
              spans[ci].Add("service.queue", unit, start + gap, start + gap + q, root);
              spans[ci].Add("service.exec", unit, start + gap + q, start + gap + q + e, root);
              digests[ci].push_back({rep.queue_seconds * 1e3, rep.seconds * 1e3,
                                     rep.trajectories_scanned, rep.lb_skipped,
                                     rep.dp_abandoned});
            }
            if (gate_unit) answers.push_back(rep);
          }
        } else {
          auto futs = st.service->SubmitBatch(specs);
          for (auto& f : futs) answers.push_back(f.get());
          const int64_t end = NowNs();
          lat[ci].push_back(static_cast<double>(end - start) * 1e-6);
          lat_unit[ci].push_back(unit % pool_units);
          lat_end[ci].push_back(end);
          int32_t root = -1;
          if (po.trace) root = spans[ci].Add("service.submit_batch", unit, start, end, -1);
          for (const auto& rep : answers) {
            tallies[ci].Record(Classify(rep.status));
            if (!po.trace) continue;
            const auto q = static_cast<int64_t>(rep.queue_seconds * 1e9);
            const auto e = static_cast<int64_t>(rep.seconds * 1e9);
            spans[ci].Add("service.queue", unit, start, start + q, root);
            spans[ci].Add("service.exec", unit, start + q, start + q + e, root);
            digests[ci].push_back({rep.queue_seconds * 1e3, rep.seconds * 1e3,
                                   rep.trajectories_scanned, rep.lb_skipped,
                                   rep.dp_abandoned});
          }
          if (!gate_unit) answers.clear();
        }
        if (gate_unit && !answers.empty()) {
          (*po.gate)[static_cast<size_t>((unit % pool_units) / w.gate_stride)] =
              std::move(answers);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    }));
  }
  for (auto& f : futures) f.get();
  r.seconds = SecondsSince(t0);
  r.cpu_seconds = CpuSeconds() - cpu0;
  r.stats_after = st.service->stats();
  if (st.server) r.server_after = st.server->stats();
  r.units = completed.load();
  // Samples in completion order, so blocks of them are spans of time.
  std::vector<std::tuple<int64_t, double, int64_t>> samples;
  for (size_t c = 0; c < lat.size(); ++c) {
    for (size_t i = 0; i < lat[c].size(); ++i) {
      samples.emplace_back(lat_end[c][i], lat[c][i], lat_unit[c][i]);
    }
  }
  std::sort(samples.begin(), samples.end());
  for (const auto& [end, ms, unit] : samples) {
    r.latency_ms.push_back(ms);
    r.latency_unit.push_back(unit);
  }
  for (size_t c = 0; c < lat.size(); ++c) {
    r.tally.Merge(tallies[c]);
    r.digests.insert(r.digests.end(), digests[c].begin(), digests[c].end());
  }
  for (const auto& c : st.clients) r.client_retries += c.stats().retries;
  r.spans = MergeSpans(spans);
  return r;
}

// ---------------------------------------------------------------------------
// Correctness gate and approximation ratio (untimed, after the phases).

std::unordered_map<int64_t, size_t> OrdinalById(const std::vector<geo::Trajectory>& db) {
  std::unordered_map<int64_t, size_t> ordinal;
  for (size_t i = 0; i < db.size(); ++i) ordinal[db[i].id()] = i;
  return ordinal;
}

bool SameAnswer(const engine::QueryReport& a, const engine::QueryReport& b) {
  if (a.status.code() != b.status.code()) return false;
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    if (x.trajectory_id != y.trajectory_id || x.range.start != y.range.start ||
        x.range.end != y.range.end ||
        std::bit_cast<uint64_t>(x.distance) != std::bit_cast<uint64_t>(y.distance)) {
      return false;
    }
  }
  return true;
}

/// Gate outcome: every checked spec's answer must equal RunOne's bit for
/// bit (entries, ranges, distance bit patterns and status).
struct GateResult {
  int64_t checked = 0;
  int64_t mismatches = 0;
  std::string first_mismatch;
};

GateResult RunGate(const Workload& w, Stack& st, const Stream& stream,
                   GateAnswers& gate) {
  GateResult g;
  for (size_t slot = 0; slot < gate.size(); ++slot) {
    const size_t unit = slot * static_cast<size_t>(w.gate_stride);
    const auto& specs = stream.units[unit];
    if (!gate[slot].has_value()) {
      // The measured phase did not reach this unit: ask the program now.
      std::vector<engine::QueryReport> answers;
      if (w.remote) {
        auto res = st.clients[0].Query(specs[0]);
        if (!res.ok()) Die("gate request failed: " + res.status().ToString());
        answers.push_back(res.value());
      } else {
        for (auto& f : st.service->SubmitBatch(specs)) answers.push_back(f.get());
      }
      gate[slot] = std::move(answers);
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      const engine::QueryReport ref = st.service->RunOne(specs[i]);
      ++g.checked;
      if (!SameAnswer((*gate[slot])[i], ref)) {
        if (g.mismatches++ == 0) {
          g.first_mismatch = "unit " + std::to_string(unit) + " spec " +
                             std::to_string(i) + " (" + specs[i].measure + "/" +
                             specs[i].algorithm + ")";
        }
      }
    }
  }
  return g;
}

struct ArOutcome {
  ArResult ar;
  /// Approximate answers better than ExactS's optimum: impossible for a
  /// correct ExactS, so the gate fails on any.
  int64_t below_exact = 0;
  /// AR per (measure, algorithm) key, for the run configuration.
  std::map<std::string, ArResult> by_key;
};

ArOutcome ComputeAr(const Workload& w, Stack& st, const Stream& stream) {
  std::vector<service::QuerySpec> approx;
  for (const auto& unit : stream.units) {
    for (const auto& spec : unit) {
      if (static_cast<int>(approx.size()) >= w.ar_sample) break;
      if (spec.algorithm == "exacts" || spec.algorithm == "topk-sub") continue;
      approx.push_back(spec);
    }
  }
  std::vector<service::QuerySpec> exact = approx;
  for (auto& s : exact) {
    s.algorithm = "exacts";
    s.algorithm_options = {};
  }
  // Untimed, so it may use every core: RunOne is safe to call from many
  // threads and is the reference the gate checks against.
  std::vector<engine::QueryReport> approx_r(approx.size());
  std::vector<engine::QueryReport> exact_r(approx.size());
  {
    util::ThreadPool pool(static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))));
    std::vector<std::future<void>> done;
    for (size_t i = 0; i < approx.size(); ++i) {
      done.push_back(pool.Submit([&, i] {
        approx_r[i] = st.service->RunOne(approx[i]);
        exact_r[i] = st.service->RunOne(exact[i]);
      }));
    }
    for (auto& f : done) f.get();
  }
  const auto& db = st.service->engine().database();
  const std::unordered_map<int64_t, size_t> ordinal = OrdinalById(db);
  std::map<std::string, std::unique_ptr<similarity::SimilarityMeasure>> measures;
  std::vector<ArTerm> terms;
  for (size_t i = 0; i < approx.size(); ++i) {
    const engine::QueryReport& a = approx_r[i];
    const engine::QueryReport& e = exact_r[i];
    if (!a.status.ok() || !e.status.ok() || a.results.empty() || e.results.empty()) {
      Die("approximation-ratio sample query failed");
    }
    auto& m = measures[approx[i].measure];
    if (!m) m = Take(similarity::MakeMeasure(approx[i].measure), "make measure");
    // RLS-Skip reports a simplified-prefix estimate; re-score every
    // returned range with the true measure.
    const auto& top = a.results.front();
    const auto& traj = db[ordinal.at(top.trajectory_id)];
    const auto sub = traj.View().subspan(
        static_cast<size_t>(top.range.start),
        static_cast<size_t>(top.range.end - top.range.start + 1));
    terms.push_back({m->Distance(sub, approx[i].points), e.results.front().distance});
  }
  ArOutcome out{ApproxRatio(terms), 0, {}};
  std::map<std::string, std::vector<ArTerm>> by_key;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].approx < terms[i].exact * (1.0 - 1e-9)) ++out.below_exact;
    by_key[approx[i].measure + "/" + approx[i].algorithm].push_back(terms[i]);
  }
  for (const auto& [key, t] : by_key) out.by_key[key] = ApproxRatio(t);
  return out;
}


// ---------------------------------------------------------------------------
// Per-layer metrics (traced runs only). Spans are recorded around the
// benchmark's own calls into each layer; a metric is the median span.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// A (query, data trajectory) pair for the per-call algorithm and DP probes:
/// the query of a sampled spec and the trajectory of its top-1 answer.
struct Pair {
  const service::QuerySpec* spec;
  std::span<const geo::Point> data;
};

double MedianSpanMs(const std::vector<Span>& spans, const std::vector<int64_t>& self,
                    const char* name, bool use_self) {
  std::vector<double> v;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    v.push_back(static_cast<double>(use_self ? self[i] : spans[i].end_ns - spans[i].start_ns) * 1e-6);
  }
  return Median(v);
}

/// Share (percent) of all self time that spans named `name` account for.
double SelfSharePct(const std::vector<Span>& spans, const std::vector<int64_t>& self,
                    std::initializer_list<const char*> names) {
  int64_t total = 0;
  int64_t mine = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    total += self[i];
    for (const char* n : names) {
      if (std::strcmp(spans[i].name, n) == 0) mine += self[i];
    }
  }
  return total > 0 ? 100.0 * static_cast<double>(mine) / static_cast<double>(total) : 0.0;
}

/// Replays sampled specs through the layers in-process, one call per layer
/// in the order the server runs them: decode the query, plan, filter, scan,
/// encode the report (plus the client's encode and decode).
std::vector<Span> ReplayLayers(Stack& st, const service::ServiceOptions& so,
                               const std::vector<const service::QuerySpec*>& sample,
                               Metrics& out, std::vector<Pair>* pairs) {
  const auto& eng = st.service->engine();
  const auto& db = eng.database();
  const auto grid = index::InvertedGridIndex::Build(
      db, eng.corpus_stats().extent, so.inverted_grid_cols, so.inverted_grid_rows);
  std::vector<index::RTreeEntry> entries;
  for (size_t i = 0; i < db.size(); ++i) {
    entries.push_back({eng.TrajectoryMbr(static_cast<int64_t>(i)), static_cast<int64_t>(i)});
  }
  const auto rtree = index::RTree::BulkLoad(std::move(entries));
  const std::unordered_map<int64_t, size_t> ordinal = OrdinalById(db);

  std::map<std::string, std::unique_ptr<similarity::SimilarityMeasure>> measures;
  std::map<std::string, std::unique_ptr<algo::SubtrajectorySearch>> searches;
  similarity::EvaluatorCache scratch;
  SpanBuffer buf;
  std::vector<double> enc_us, dec_us, grid_us, rtree_us;
  double req_bytes = 0;
  double rep_bytes = 0;
  for (size_t id = 0; id < sample.size(); ++id) {
    const service::QuerySpec& spec = *sample[id];
    auto& measure = measures[spec.measure];
    if (!measure) measure = Take(similarity::MakeMeasure(spec.measure), "make measure");
    const algo::SubtrajectorySearch* search = nullptr;
    if (spec.algorithm != "topk-sub") {
      auto& s = searches[spec.measure + "/" + spec.algorithm];
      if (!s) s = Take(algo::MakeSearch(spec.algorithm, measure.get(), spec.algorithm_options), "make search");
      search = s.get();
    }
    const auto rid = static_cast<int64_t>(id);
    const int32_t root = buf.Add("replay", rid, NowNs(), 0, -1);
    auto span = [&](const char* name, auto&& f) {
      const int64_t t = NowNs();
      f();
      const int64_t e = NowNs();
      buf.Add(name, rid, t, e, root);
      return static_cast<double>(e - t) * 1e-3;
    };
    std::vector<uint8_t> qbytes;
    double enc = span("net.encode", [&] {
      qbytes = Take(net::EncodeQuery(spec, "servebench", 1), "encode query");
    });
    double dec = span("net.decode", [&] { (void)Take(net::DecodeQuery(qbytes), "decode query"); });
    service::PlanDecision plan;
    span("service.plan", [&] { plan = st.service->planner().Plan(spec.points, so.index_margin); });
    const engine::PruningFilter filter = spec.filter.value_or(plan.filter);
    const geo::Mbr qmbr = geo::ComputeMbr(spec.points).Inflated(so.index_margin);
    // Both probes are timed for every query; the one the plan picked also
    // becomes the request's filter span.
    const int64_t g0 = NowNs();
    (void)grid.QueryCandidates(spec.points);
    const int64_t g1 = NowNs();
    (void)rtree.QueryIntersects(qmbr);
    const int64_t g2 = NowNs();
    grid_us.push_back(static_cast<double>(g1 - g0) * 1e-3);
    rtree_us.push_back(static_cast<double>(g2 - g1) * 1e-3);
    if (filter == engine::PruningFilter::kInvertedGrid) buf.Add("index.filter", rid, g0, g1, root);
    if (filter == engine::PruningFilter::kRTree) buf.Add("index.filter", rid, g1, g2, root);
    engine::QueryReport rep;
    span(search != nullptr ? "engine.scan" : "engine.topk_sub", [&] {
      if (search == nullptr) {
        rep = eng.QueryTopKSubtrajectories(spec.points, *measure, spec.k, filter, spec.min_size);
      } else {
        engine::QueryOptions qo;
        qo.k = spec.k;
        qo.filter = filter;
        qo.index_margin = so.index_margin;
        qo.scratch = &scratch;
        rep = eng.Query(spec.points, *search, qo);
      }
    });
    std::vector<uint8_t> rbytes;
    enc += span("net.encode", [&] { rbytes = net::EncodeReport(rep, 1); });
    dec += span("net.decode", [&] { (void)Take(net::DecodeReport(rbytes), "decode report"); });
    buf.spans[static_cast<size_t>(root)].end_ns = NowNs();
    enc_us.push_back(enc);
    dec_us.push_back(dec);
    req_bytes += static_cast<double>(qbytes.size());
    rep_bytes += static_cast<double>(rbytes.size());
    if (search != nullptr && !rep.results.empty()) {
      pairs->push_back({&spec, db[ordinal.at(rep.results.front().trajectory_id)].View()});
    }
  }
  const std::vector<int64_t> self = SelfTimesNs(buf.spans);
  const auto n = static_cast<double>(sample.size());
  out.push_back({"net.encode_us", Median(enc_us), "us"});
  out.push_back({"net.decode_us", Median(dec_us), "us"});
  out.push_back({"net.request_bytes", req_bytes / n, "bytes"});
  out.push_back({"net.report_bytes", rep_bytes / n, "bytes"});
  out.push_back({"service.plan_us", 1e3 * MedianSpanMs(buf.spans, self, "service.plan", false), "us"});
  out.push_back({"index.grid_us", Median(grid_us), "us"});
  out.push_back({"index.rtree_us", Median(rtree_us), "us"});
  out.push_back({"engine.scan_ms", MedianSpanMs(buf.spans, self, "engine.scan", false), "ms"});
  out.push_back({"replay.codec_pct", SelfSharePct(buf.spans, self, {"net.encode", "net.decode"}), "%"});
  out.push_back({"replay.plan_pct", SelfSharePct(buf.spans, self, {"service.plan"}), "%"});
  out.push_back({"replay.filter_pct", SelfSharePct(buf.spans, self, {"index.filter"}), "%"});
  out.push_back({"replay.scan_pct", SelfSharePct(buf.spans, self, {"engine.scan", "engine.topk_sub"}), "%"});
  return std::move(buf.spans);
}

/// SubtrajectorySearch::Search per algorithm, evaluator Start/Extend per DP
/// cell, and the multi-query tiled scan per query.
void ProbeAlgorithms(Stack& st, const service::ServiceOptions& so, const Stream& stream,
                     const std::vector<Pair>& pairs,
                     const std::vector<const service::QuerySpec*>& sample, Metrics& out) {
  auto dtw = Take(similarity::MakeMeasure("dtw"), "make dtw");
  auto frechet = Take(similarity::MakeMeasure("frechet"), "make frechet");
  auto measure_of = [&](const std::string& name) -> const similarity::SimilarityMeasure* {
    return name == "dtw" ? dtw.get() : frechet.get();
  };
  const size_t n_pairs = std::min<size_t>(pairs.size(), 32);
  for (const char* alg : {"exacts", "sizes", "pss", "rls-skip"}) {
    std::map<std::string, std::unique_ptr<algo::SubtrajectorySearch>> by_measure;
    std::vector<double> us;
    for (size_t i = 0; i < n_pairs; ++i) {
      // The learned policy is trained for DTW only.
      const std::string m = std::strcmp(alg, "rls-skip") == 0 ? "dtw" : pairs[i].spec->measure;
      auto& search = by_measure[m];
      if (!search) {
        algo::SearchOptions o;
        o.rls_policy_path = stream.policy_path;
        search = Take(algo::MakeSearch(alg, measure_of(m), o), "make search");
      }
      const int64_t t = NowNs();
      (void)search->Search(pairs[i].data, pairs[i].spec->points);
      us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
    }
    out.push_back({std::string("algo.search_us.") + alg, Median(us), "us"});
  }

  for (const auto* m : {dtw.get(), frechet.get()}) {
    std::vector<std::unique_ptr<similarity::PrefixEvaluator>> evs;
    double cells = 0;
    for (size_t i = 0; i < std::min<size_t>(n_pairs, 16); ++i) {
      evs.push_back(m->NewEvaluator(pairs[i].spec->points));
      cells += static_cast<double>(pairs[i].data.size() * pairs[i].spec->points.size());
    }
    double sink = 0;
    int passes = 0;
    const int64_t t = NowNs();
    while (NowNs() - t < 50'000'000) {
      for (size_t i = 0; i < evs.size(); ++i) {
        const auto& d = pairs[i].data;
        sink += evs[i]->Start(d[0]);
        for (size_t j = 1; j < d.size(); ++j) sink += evs[i]->Extend(d[j]);
      }
      ++passes;
    }
    const double ns = static_cast<double>(NowNs() - t);
    if (!std::isfinite(sink)) Die("non-finite DP sum");
    out.push_back({"similarity.dp_ns_per_cell." + m->name(), ns / (cells * passes), "ns"});
  }

  // Tiles as SubmitBatch forms them: same (measure, algorithm), at most
  // batch_tile queries each.
  const auto& eng = st.service->engine();
  std::map<std::string, std::vector<const service::QuerySpec*>> groups;
  for (const auto* spec : sample) {
    if (spec->algorithm != "topk-sub") groups[spec->measure + "/" + spec->algorithm].push_back(spec);
  }
  std::vector<double> per_query_ms;
  similarity::EvaluatorCache scratch;
  for (const auto& [key, specs] : groups) {
    auto search = Take(algo::MakeSearch(specs[0]->algorithm, measure_of(specs[0]->measure),
                                        specs[0]->algorithm_options),
                       "make search");
    for (size_t at = 0; at < specs.size(); at += static_cast<size_t>(so.batch_tile)) {
      std::vector<engine::BatchedQueryView> views;
      for (size_t i = at; i < std::min(specs.size(), at + static_cast<size_t>(so.batch_tile)); ++i) {
        engine::BatchedQueryView v;
        v.points = specs[i]->points;
        v.k = specs[i]->k;
        v.filter = specs[i]->filter.value_or(
            st.service->planner().Plan(specs[i]->points, so.index_margin).filter);
        views.push_back(v);
      }
      engine::BatchQueryOptions bo;
      bo.index_margin = so.index_margin;
      bo.scratch = &scratch;
      const int64_t t = NowNs();
      (void)eng.QueryBatch(views, *search, bo);
      per_query_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6 /
                             static_cast<double>(views.size()));
    }
  }
  out.push_back({"engine.batch_ms_per_query", Median(per_query_ms), "ms"});
}

/// Subtrajectory-level top-k (the per-spec fallback path): the stream's own
/// topk-sub specs when it has them, else sampled specs turned into topk-sub.
double ProbeTopKMs(Stack& st, const Stream& stream,
                   const std::vector<const service::QuerySpec*>& sample) {
  std::vector<service::QuerySpec> specs;
  for (const auto& unit : stream.units) {
    for (const auto& spec : unit) {
      if (spec.algorithm == "topk-sub" && specs.size() < 2) specs.push_back(spec);
    }
  }
  for (size_t i = 0; specs.empty() && i < 8 && i < sample.size(); ++i) {
    service::QuerySpec s = *sample[i];
    s.algorithm = "topk-sub";
    s.algorithm_options = {};
    s.min_size = 2;
    specs.push_back(std::move(s));
  }
  const auto& eng = st.service->engine();
  std::vector<double> ms;
  for (const auto& spec : specs) {
    auto measure = Take(similarity::MakeMeasure(spec.measure), "make measure");
    const auto filter = spec.filter.value_or(st.service->planner().Plan(spec.points).filter);
    const int64_t t = NowNs();
    (void)eng.QueryTopKSubtrajectories(spec.points, *measure, spec.k, filter, spec.min_size);
    ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
  }
  return Median(ms);
}

void WriteSpans(const std::string& path, const char* phase, const std::vector<Span>& spans,
                bool append) {
  std::ofstream f(path, append ? std::ios::app : std::ios::trunc);
  if (!append) f << "phase,name,request_id,start_ns,end_ns,parent\n";
  for (const Span& s : spans) {
    f << phase << ',' << s.name << ',' << s.request_id << ',' << s.start_ns << ','
      << s.end_ns << ',' << s.parent << '\n';
  }
  if (!f) Die("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Output.

std::string Num(double v) {
  if (!std::isfinite(v)) Die("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

struct Args {
  std::string mode;
  std::string workload;
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: servebench gen|run --workload W --seed S [--seconds T] [--trace 0|1] --dir D");
  a.mode = argv[1];
  if (argc % 2 != 0) Die("flags take one value each");
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--dir") a.dir = v;
    else Die("unknown flag " + k);
  }
  if (a.dir.empty() || a.workload.empty()) Die("--workload and --dir are required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

int Run(const Args& a) {
  const Workload& w = GetWorkload(a.workload);
  const service::ServiceOptions so = MakeServiceOptions();
  const Stream stream = BuildStream(w, a.seed, a.dir);

  // Set-up, several times; the last stack serves the run.
  std::vector<double> setup_s, open_s, csv_s, engine_s, index_s, train_s;
  std::optional<Stack> st;
  for (int r = 0; r < kSetupReps; ++r) {
    st.reset();
    SetupTimes t;
    st.emplace(SetUp(w, a.seed, a.dir, stream, &t));
    setup_s.push_back(t.total_s);
    open_s.push_back(t.snapshot_open_s);
    csv_s.push_back(t.csv_load_s);
    engine_s.push_back(t.engine_build_s);
    index_s.push_back(t.index_build_s);
    train_s.push_back(t.rl_train_s);
  }
  const double rss_after_setup = PeakRssMb();

  PhaseOptions warm;
  warm.fixed_units = w.warmup;
  (void)RunPhase(w, *st, stream, warm);

  const int64_t min_units = MinSamplesForPercentile(w.tail_pct);
  GateAnswers gate;
  gate.resize((stream.units.size() + static_cast<size_t>(w.gate_stride) - 1) /
              static_cast<size_t>(w.gate_stride));
  PhaseOptions measured;
  measured.first_unit = w.warmup;
  measured.seconds = a.trace ? a.seconds / 2 : a.seconds;
  measured.min_samples = min_units;
  measured.gate = &gate;
  const PhaseResult m = RunPhase(w, *st, stream, measured);
  std::optional<PhaseResult> traced;
  if (a.trace) {
    PhaseOptions tp = measured;
    tp.gate = nullptr;
    tp.trace = true;
    traced = RunPhase(w, *st, stream, tp);
  }
  const double peak_rss = PeakRssMb();

  const GateResult g = RunGate(w, *st, stream, gate);
  const ArOutcome ar = ComputeAr(w, *st, stream);
  const bool correct = g.mismatches == 0 && ar.below_exact == 0;

  auto tail_of = [&](const PhaseResult& p) {
    auto v = BlockMedianPercentile(p.latency_ms, w.tail_pct);
    if (!v) Die("too few samples for the tail percentile");
    return *v;
  };
  auto p50_of = [&](const PhaseResult& p) { return *Percentile(p.latency_ms, 50.0); };
  auto qps_of = [&](const PhaseResult& p) {
    return static_cast<double>(p.tally.ok) / p.seconds;
  };
  FailTally tally = m.tally;
  if (traced) tally.Merge(traced->tally);

  Metrics metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_qps", qps_of(m), "1/s"},
        {"latency_p50_ms", p50_of(m), "ms"},
        {"latency_tail_ms", tail_of(m), "ms"},
        {"approx_ratio", ar.ar.mean, "ratio"},
        {"cpu_ms_per_query", 1e3 * m.cpu_seconds / static_cast<double>(std::max<int64_t>(1, m.tally.ok)), "ms"},
        {"peak_rss_mb", peak_rss, "MiB"},
    };
  } else {
    const PhaseResult& t = *traced;
    const std::vector<int64_t> self = SelfTimesNs(t.spans);
    const char* root = w.remote ? "net.round_trip" : "service.submit_batch";
    std::vector<double> queue_ms, exec_ms;
    double scanned = 0, skipped = 0, abandoned = 0;
    for (const auto& d : t.digests) {
      queue_ms.push_back(d.queue_ms);
      exec_ms.push_back(d.exec_ms);
      scanned += static_cast<double>(d.scanned);
      skipped += static_cast<double>(d.lb_skipped);
      abandoned += static_cast<double>(d.dp_abandoned);
    }
    const auto n_req = static_cast<double>(std::max<size_t>(1, t.digests.size()));
    auto delta = [&](int64_t service::ServiceStats::*f) {
      return static_cast<double>(t.stats_after.*f - t.stats_before.*f);
    };
    auto ratio = [](double a, double b) { return a + b > 0 ? a / (a + b) : 0.0; };
    const double plans = delta(&service::ServiceStats::plans_none) +
                         delta(&service::ServiceStats::plans_rtree) +
                         delta(&service::ServiceStats::plans_grid);
    auto queue_tail = Percentile(queue_ms, w.tail_pct);
    if (!queue_tail) Die("too few samples for the queue tail percentile");
    metrics = {
        {"net.overhead_ms", MedianSpanMs(t.spans, self, root, true), "ms"},
        {"server.shed", static_cast<double>((m.server_after.shed_inflight + m.server_after.shed_quota) -
                                            (m.server_before.shed_inflight + m.server_before.shed_quota) +
                                            (t.server_after.shed_inflight + t.server_after.shed_quota) -
                                            (t.server_before.shed_inflight + t.server_before.shed_quota)),
         "count"},
        {"client.retries", static_cast<double>(t.client_retries), "count"},
        {"service.queue_ms_p50", *Percentile(queue_ms, 50.0), "ms"},
        {"service.queue_ms_tail", *queue_tail, "ms"},
        {"service.exec_ms", Median(exec_ms), "ms"},
        {"service.spec_cache_hit_ratio",
         ratio(delta(&service::ServiceStats::spec_cache_hits), delta(&service::ServiceStats::spec_cache_misses)),
         "ratio"},
        {"service.evaluator_reuse_ratio",
         ratio(delta(&service::ServiceStats::evaluator_reuses), delta(&service::ServiceStats::evaluator_allocs)),
         "ratio"},
        {"service.plans_none", plans > 0 ? delta(&service::ServiceStats::plans_none) / plans : 0.0, "ratio"},
        {"service.plans_rtree", plans > 0 ? delta(&service::ServiceStats::plans_rtree) / plans : 0.0, "ratio"},
        {"service.plans_grid", plans > 0 ? delta(&service::ServiceStats::plans_grid) / plans : 0.0, "ratio"},
        {"index.candidates_per_query", scanned / n_req, "count"},
        {"index.build_s", Median(index_s), "s"},
        {"engine.lb_skip_ratio", scanned > 0 ? skipped / scanned : 0.0, "ratio"},
        {"engine.dp_abandoned_per_query", abandoned / n_req, "count"},
        {"engine.build_s", Median(engine_s), "s"},
        {"share.dispatch_pct", SelfSharePct(t.spans, self, {root}), "%"},
        {"share.queue_pct", SelfSharePct(t.spans, self, {"service.queue"}), "%"},
        {"share.exec_pct", SelfSharePct(t.spans, self, {"service.exec"}), "%"},
        {"trace.overhead_p50_pct", 100.0 * (p50_of(t) - p50_of(m)) / p50_of(m), "%"},
        {"trace.overhead_throughput_pct", 100.0 * (qps_of(m) - qps_of(t)) / qps_of(m), "%"},
        {"data.rss_after_setup_mb", rss_after_setup, "MiB"},
    };
    // Replay sample: the first specs of the stream, in order.
    std::vector<const service::QuerySpec*> sample;
    const size_t want = w.remote ? 128 : 24;
    for (const auto& unit : stream.units) {
      for (const auto& spec : unit) {
        if (sample.size() < want && spec.algorithm != "topk-sub") sample.push_back(&spec);
      }
    }
    std::vector<Pair> pairs;
    const std::vector<Span> replay = ReplayLayers(*st, so, sample, metrics, &pairs);

    // The corpus paths and the policy training the other workload's set-up
    // runs are timed here too, so every layer is measured on both corpora.
    double snapshot_open = Median(open_s);
    double csv_load = Median(csv_s);
    double rl_train = Median(train_s);
    if (w.remote) {
      const auto t0 = Clock::now();
      (void)Take(data::LoadCsv(CorpusPath(a.dir, "csv"), "corpus", data::DatasetKind::kPorto), "load csv");
      csv_load = SecondsSince(t0);
    } else {
      std::vector<double> opens;
      for (int r = 0; r < kSetupReps; ++r) {
        const auto t0 = Clock::now();
        (void)Take(data::CorpusSnapshot::Open(CorpusPath(a.dir, "snap")), "open snapshot");
        opens.push_back(SecondsSince(t0));
      }
      snapshot_open = Median(opens);
      const auto t0 = Clock::now();
      const rl::TrainedPolicy policy = TrainPolicy(stream);
      rl_train = SecondsSince(t0);
      Check(rl::SavePolicyToFile(policy, stream.policy_path), "save policy");
    }
    metrics.push_back({"data.snapshot_open_s", snapshot_open, "s"});
    metrics.push_back({"data.csv_load_s", csv_load, "s"});
    metrics.push_back({"rl.train_s", rl_train, "s"});
    ProbeAlgorithms(*st, so, stream, pairs, sample, metrics);
    metrics.push_back({"algo.topk_sub_ms", ProbeTopKMs(*st, stream, sample), "ms"});

    const std::string spans_path = a.dir + "/spans.csv";
    WriteSpans(spans_path, "closed_loop", t.spans, false);
    WriteSpans(spans_path, "replay", replay, true);
    std::printf("spans written: %zu closed-loop, %zu replay\n", t.spans.size(), replay.size());
  }

  // Run configuration.
  std::string mix;
  for (const Key& k : w.keys) {
    mix += (mix.empty() ? "" : ",") + Quote(std::string(k.measure) + "/" + k.algorithm) + ":" +
           std::to_string(k.weight);
  }
  // Median latency per unit kind: where the latency clusters sit.
  std::map<std::string, std::vector<double>> by_kind;
  for (size_t i = 0; i < m.latency_ms.size(); ++i) {
    const auto& unit = stream.units[static_cast<size_t>(m.latency_unit[i])];
    std::string kind = unit[0].measure + "/" + unit[0].algorithm;
    if (unit.back().algorithm == "topk-sub") kind += "+topk-sub";
    by_kind[kind].push_back(m.latency_ms[i]);
  }
  std::string kinds;
  for (const auto& [kind, v] : by_kind) {
    kinds += (kinds.empty() ? "" : ",") + Quote(kind) + ":{\"n\":" + std::to_string(v.size()) +
             ",\"p50_ms\":" + Num(Median(v)) + "}";
  }
  std::string ar_keys;
  for (const auto& [key, r] : ar.by_key) {
    ar_keys += (ar_keys.empty() ? "" : ",") + Quote(key) + ":{\"n\":" + std::to_string(r.used) +
               ",\"ar\":" + Num(r.mean) + "}";
  }
  const char* isa_env = std::getenv("SIMSUB_ISA");
  std::printf(
      "config {\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"seconds\":%s,\"nproc\":%ld,"
      "\"%s\":%d,\"service_workers\":%d,\"batch\":%d,\"corpus\":%s,\"corpus_trajectories\":%zu,"
      "\"corpus_points\":%lld,\"query_len\":[%d,%d],\"k\":%d,\"mix\":{%s},\"topk_sub_every_batches\":%d,"
      "\"isa_pinned\":%s,\"isa_active\":%s,\"setup_reps\":%d,\"tail_pct\":%s,\"tail_block\":%lld,"
      "\"latency_samples\":%zu,\"measured_seconds\":%s,\"units\":%lld,\"gate_checked\":%lld,"
      "\"ar_used\":%lld,\"ar_unbounded\":%lld,\"fail_ratio\":%s,\"latency_by_kind\":{%s},\"ar_by_key\":{%s}}\n",
      Quote(w.name).c_str(), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      Num(a.seconds).c_str(), sysconf(_SC_NPROCESSORS_ONLN), w.remote ? "connections" : "dispatchers",
      w.clients, kWorkers, w.batch, Quote(w.remote ? "porto snapshot" : "porto csv").c_str(),
      st->service->engine().database().size(),
      static_cast<long long>(st->service->engine().TotalPoints()), w.query_len_lo, w.query_len_hi, kK,
      mix.c_str(), w.topk_every, Quote(isa_env ? isa_env : "").c_str(),
      Quote(geo::ActiveIsaName()).c_str(), kSetupReps, Num(w.tail_pct).c_str(),
      static_cast<long long>(MinSamplesForPercentile(w.tail_pct)),
      m.latency_ms.size(), Num(m.seconds).c_str(), static_cast<long long>(m.units),
      static_cast<long long>(g.checked), static_cast<long long>(ar.ar.used),
      static_cast<long long>(ar.ar.unbounded), Num(tally.fail_ratio()).c_str(), kinds.c_str(), ar_keys.c_str());
  if (!correct) {
    std::fprintf(stderr, "servebench: correctness gate FAILED: %lld/%lld answers differ from RunOne"
                 " (first: %s); %lld approximate answers beat ExactS\n",
                 static_cast<long long>(g.mismatches), static_cast<long long>(g.checked),
                 g.first_mismatch.c_str(), static_cast<long long>(ar.below_exact));
  }
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(tally.attempted) +
                     ",\"failed\":" + std::to_string(tally.failed()) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("metric %s %s %s\n", metrics[i].name.c_str(), Num(metrics[i].value).c_str(),
                metrics[i].unit.c_str());
    json += (i ? "," : "") + Quote(metrics[i].name) + ":{\"value\":" + Num(metrics[i].value) +
            ",\"unit\":" + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  const Args a = ParseArgs(argc, argv);
  if (a.mode == "gen") {
    Generate(GetWorkload(a.workload), a.seed, a.dir, a.trace);
    return 0;
  }
  if (a.mode == "run") return Run(a);
  Die("unknown mode " + a.mode);
}
