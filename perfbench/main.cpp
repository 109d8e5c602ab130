// NodeSentry benchmark: one producer thread (the collector) streams a tiled
// D1-/D2-sim telemetry population through the public serve API, waits for
// every ingest() to return (closed loop, full speed), and times each call
// from outside. It changes no library code. See README.md for the
// workloads, every metric and what each layer metric should move.
//
//   perfbench_nodesentry --workload <name> --seed <n> --seconds <s>
//                        --trace <0|1> --out-dir <dir> [--commit <id>]
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero
// when a correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/nodesentry.hpp"
#include "correlate/incident.hpp"
#include "eval/metrics.hpp"
#include "features/extract.hpp"
#include "nn/module.hpp"
#include "nn/scoring.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "sim/dataset_builder.hpp"
#include "sim/stream.hpp"
#include "stats.hpp"
#include "store/query.hpp"
#include "store/writer.hpp"
#include "tensor/kernels.hpp"
#include "ts/stream.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ns;
namespace fs = std::filesystem;
using perfbench::kNoParent;
using perfbench::Span;

// ---------------------------------------------------------------- workloads

struct Spec {
  const char* name;
  bool d2;                 ///< D2-sim base population (else D1-sim)
  double missing_rate;     ///< NaN cells in the base dataset
  std::size_t tile;        ///< copies of the base population
  ScoringPath path;
  std::size_t shards;      ///< FleetEngine shards; 0 = a lone ServeEngine
  double late_probability; ///< replay jitter (inside reorder_slack 8)
  std::size_t max_delay;
  /// Consensus G=3 Q=2 over staged clones, attribution, a StoreWriter
  /// sealing at flag time, then drain, IncidentEngine::build and queries.
  bool ops;
};

constexpr Spec kSpecs[] = {
    {"fleet-quantized", false, 0.0, 20, ScoringPath::kQuantized, 3, 0.0, 0,
     false},
    {"replay-strict", false, 0.001, 20, ScoringPath::kStrict, 0, 0.05, 6,
     false},
    {"ops-store", true, 0.001, 40, ScoringPath::kQuantized, 0, 0.0, 0, true},
};

/// Base datasets are the bench defaults (D1 seed 11, D2 seed 22) for every
/// workload seed: the seed varies what the collector delivers (arrival
/// order, jitter, queries), so detection quality is fixed and comparable
/// across seeds while timing sees fresh inputs.
constexpr std::uint64_t kD1Seed = 11;
constexpr std::uint64_t kD2Seed = 22;
/// Set-up repeats for the setup_s median: at least three, and more while
/// they add up to under four seconds, so a cheap set-up is sampled enough.
constexpr std::size_t kSetupRepeats = 3;
constexpr double kSetupMinSeconds = 4.0;
constexpr std::size_t kPumpEvery = 256;  ///< as serve_replay's default
constexpr std::size_t kNodeQueries = 1000;
constexpr std::size_t kFleetQueries = 20;
constexpr std::size_t kTopK = 10;
constexpr double kQueryWindowSeconds = 3600.0;

/// The bench_fleet / bench_generations model: shared by every workload.
NodeSentryConfig model_config() {
  NodeSentryConfig config;
  config.model.d_model = 24;
  config.model.num_layers = 2;
  config.model.num_heads = 2;
  config.model.ffn_hidden = 32;
  config.train_epochs = 2;
  config.learning_rate = 3e-3f;
  config.max_tokens_per_segment = 96;
  config.train_window = 32;
  config.match_period = 60;
  config.threshold_window = 40;
  config.k_max = 6;
  config.seed = 99;
  config.incremental_updates = false;
  return config;
}

SimDataset base_dataset(const Spec& spec) {
  SimDatasetConfig config =
      spec.d2 ? d2_sim_config(1.0, kD2Seed) : d1_sim_config(1.0, kD1Seed);
  config.anomaly_ratio = 0.008;
  config.missing_rate = spec.missing_rate;
  return build_sim_dataset(config);
}

// ------------------------------------------------------------------ tracing

enum SpanName : std::uint32_t {
  kSetup, kDataset, kFit, kStage, kConstruct, kPass, kNext, kIngest, kPump,
  kFinalize, kDrain, kCorrelate, kNodeQuery, kFleetQuery, kProbe,
  kNumSpanNames
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "setup", "dataset", "fit", "stage", "construct", "pass", "next", "ingest",
    "pump", "finalize", "drain", "correlate", "node_query", "fleet_query",
    "probe"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log; a disabled tracer records nothing. Spans are
/// written out once, at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  std::uint32_t open(SpanName name, std::uint32_t parent = kNoParent) {
    if (!on_) return kNoParent;
    spans_.push_back(Span{name, parent, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t index) {
    if (index != kNoParent) spans_[index].end_ns = now_ns();
  }
  void record(SpanName name, std::uint32_t parent, std::int64_t start,
              std::int64_t end) {
    if (on_) spans_.push_back(Span{name, parent, start, end});
  }
  void reserve(std::size_t n) {
    if (on_) spans_.reserve(spans_.size() + n);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Binary span dump: a text header line, then 24-byte records
/// (u32 name, u32 parent, i64 start_ns, i64 end_ns), little-endian.
void write_spans(const std::string& path, std::uint64_t run_id,
                 const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "perfbench-spans run_id=" << run_id << " count=" << spans.size()
      << " names=";
  for (std::uint32_t i = 0; i < kNumSpanNames; ++i)
    out << (i ? "," : "") << kSpanNames[i];
  out << "\n";
  for (const Span& s : spans) {
    out.write(reinterpret_cast<const char*>(&s.name), sizeof s.name);
    out.write(reinterpret_cast<const char*>(&s.parent), sizeof s.parent);
    out.write(reinterpret_cast<const char*>(&s.start_ns), sizeof s.start_ns);
    out.write(reinterpret_cast<const char*>(&s.end_ns), sizeof s.end_ns);
  }
}

// -------------------------------------------------------------------- setup

/// Everything a timed pass needs that outlives it: the base dataset, the
/// fitted sentry and (ops-store) the staged generation registry.
struct Fitted {
  SimDataset sim;
  std::unique_ptr<NodeSentry> sentry;
  NodeSentry::FitReport fit;
  std::unique_ptr<obs::Registry> generation_obs;
  std::unique_ptr<GenerationRegistry> generations;
  double seconds = 0.0;  ///< dataset + fit + staging
};

/// Clones a cluster's model through the parameter stream, the retrainer's
/// own cloning path, so G > 1 sets are staged without training.
std::shared_ptr<TransformerReconstructor> clone_model(
    const TransformerReconstructor& base, const TransformerConfig& config) {
  Rng rng(4242);
  auto clone = std::make_shared<TransformerReconstructor>(config, rng);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_parameters(base, buffer);
  load_parameters(*clone, buffer);
  clone->set_training(false);
  return clone;
}

Fitted set_up(const Spec& spec, Tracer& tracer) {
  Fitted f;
  const std::int64_t t0 = now_ns();
  const std::uint32_t root = tracer.open(kSetup);
  std::uint32_t span = tracer.open(kDataset, root);
  f.sim = base_dataset(spec);
  tracer.close(span);
  span = tracer.open(kFit, root);
  f.sentry = std::make_unique<NodeSentry>(model_config());
  f.fit = f.sentry->fit(f.sim.data, f.sim.train_end);
  tracer.close(span);
  if (spec.ops) {
    span = tracer.open(kStage, root);
    // Seed generation plus two clones per cluster: G = 3 identical lanes.
    f.generation_obs = std::make_unique<obs::Registry>();
    f.generations = std::make_unique<GenerationRegistry>(
        f.sentry->library().size(), 3, f.generation_obs.get());
    f.generations->seed_from_library(f.sentry->library());
    const TransformerConfig config = f.sentry->model_config();
    for (std::size_t c = 0; c < f.generations->num_clusters(); ++c) {
      const ClusterEntry& entry = f.sentry->library().clusters()[c];
      while (f.generations->snapshot(c)->generations.size() < 3) {
        ModelGeneration gen;
        gen.model = clone_model(*entry.model, config);
        gen.residual_scale = entry.residual_scale.clone();
        gen.baseline_error = entry.baseline_error;
        f.generations->publish(c, std::move(gen));
      }
    }
    tracer.close(span);
  }
  tracer.close(root);
  f.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return f;
}

// --------------------------------------------------------------- detections

bool same_bits(const NodeDetection& a, const NodeDetection& b) {
  if (a.scores.size() != b.scores.size() ||
      a.predictions.size() != b.predictions.size())
    return false;
  for (std::size_t t = 0; t < a.scores.size(); ++t)
    if (std::bit_cast<std::uint32_t>(a.scores[t]) !=
        std::bit_cast<std::uint32_t>(b.scores[t]))
      return false;
  return a.predictions == b.predictions;
}

/// Lone-engine replay of the untiled base stream, unjittered and untimed:
/// the reference every tiled node must reproduce bitwise.
std::vector<NodeDetection> reference_detections(const Spec& spec, Fitted& f) {
  obs::Registry registry;
  ServeEngine::Options options;
  options.scoring(spec.path).metrics(&registry);
  if (spec.ops) options.consensus(1, 1);
  ServeEngine engine(*f.sentry, options);
  return serve_replay(engine, f.sim.data, f.sim.train_end).result.detections;
}

struct Quality {
  double f1 = 0.0, recall = 0.0, fp_rate = 0.0;
};

/// Point-adjusted precision/recall averaged per node with 1-minute guards
/// (4 steps at 15 s), on tiled copy 0; fp_rate is the flagged share of
/// clean evaluated points, averaged over every node.
Quality quality_of(const SimDataset& sim,
                   const std::vector<NodeDetection>& detections) {
  const std::size_t N = sim.data.num_nodes();
  const std::size_t T = sim.data.num_timestamps();
  std::vector<NodeDetection> copy0(detections.begin(), detections.begin() + N);
  std::vector<std::vector<std::uint8_t>> masks;
  for (std::size_t n = 0; n < N; ++n)
    masks.push_back(evaluation_mask(sim.data.jobs[n], T, sim.train_end, 4));
  const DetectionMetrics m = aggregate_nodes(copy0, sim.data.labels, masks);
  Quality q;
  q.f1 = m.f1;
  q.recall = m.recall;
  double fp_sum = 0.0;
  for (std::size_t n = 0; n < N; ++n) {
    std::size_t clean = 0, flagged = 0;
    for (std::size_t t = 0; t < T; ++t) {
      if (!masks[n][t] || sim.data.labels[n][t]) continue;
      ++clean;
      flagged += t < copy0[n].predictions.size() && copy0[n].predictions[t];
    }
    fp_sum += clean > 0 ? static_cast<double>(flagged) / clean : 0.0;
  }
  q.fp_rate = fp_sum / static_cast<double>(N);
  return q;
}

// -------------------------------------------------------------- timed pass

struct Pass {
  std::size_t samples = 0;
  double wall_s = 0.0;            ///< first ingest -> finalize returns
  double result_latency_s = 0.0;  ///< last ingest return -> results usable
  double stream_s = 0.0;          ///< first ingest -> results usable
  double query_s = 0.0;           ///< ops-store queries, outside the budget
  double ingest_p50_us = 0.0, ingest_p999_us = 0.0;
  std::size_t incidents = 0;
  ServeResult result;
  perfbench::Ledger ledger;
  // engine instruments (private registry)
  double match_s = 0.0, score_s = 0.0;
  std::uint64_t match_calls = 0, score_calls = 0;
  // store
  std::uint64_t samples_written = 0, batches_dropped = 0, sealed_bytes = 0;
  std::uint64_t samples_sealed = 0, empty_nodes = 0, store_flag_mismatches = 0;
  double node_query_p50_ms = 0.0, node_query_p99_ms = 0.0;
  double fleet_query_p50_ms = 0.0, pages_per_node_query = 0.0;
};

const obs::Histogram* stage_histogram(const obs::Registry& registry,
                                      const std::string& stage) {
  for (const obs::Registry::Entry& e : registry.entries())
    if (e.name == "ns_serve_stage_seconds" && e.histogram != nullptr)
      for (const auto& [key, value] : e.labels)
        if (key == "stage" && value == stage) return e.histogram;
  return nullptr;
}

/// Nearest-rank percentile of sorted samples; a percentile with fewer than
/// ten samples beyond it is a bug in the workload's sizing, not a result.
template <typename T>
double reported_percentile(const std::vector<T>& sorted, double q) {
  if (!perfbench::percentile_supported(sorted.size(), q))
    throw std::logic_error("percentile " + std::to_string(q) + " of " +
                           std::to_string(sorted.size()) +
                           " samples has fewer than 10 beyond it");
  return perfbench::percentile_sorted<T>(sorted, q);
}

/// Per-node prefix sums of prediction flags: anomalous ticks of node n in
/// [a, b) are prefix[n][b] - prefix[n][a].
std::vector<std::vector<std::uint32_t>> flag_prefix(
    const std::vector<NodeDetection>& detections, std::size_t T) {
  std::vector<std::vector<std::uint32_t>> prefix(detections.size());
  for (std::size_t n = 0; n < detections.size(); ++n) {
    prefix[n].assign(T + 1, 0);
    const auto& p = detections[n].predictions;
    for (std::size_t t = 0; t < T; ++t)
      prefix[n][t + 1] = prefix[n][t] + (t < p.size() && p[t] ? 1u : 0u);
  }
  return prefix;
}

/// Single-node anomaly-rate and fleet-wide top-k queries over 1-hour
/// windows; each answer is checked against the same aggregate over the
/// detections (every tick of the served region arrives for every node).
/// An answer that is wrong only because a node's batch was dropped, and
/// right for the nodes the store holds, is a loss to the store drop; any
/// other wrong answer is a failed query.
void run_queries(const Fitted& f, const TimeSeriesStore& store,
                 const std::vector<NodeDetection>& detections,
                 std::uint64_t seed, Tracer& tracer, std::uint32_t parent,
                 Pass& out) {
  const std::size_t T = f.sim.data.num_timestamps();
  const std::size_t begin = f.sim.train_end;
  const auto window = static_cast<std::size_t>(
      std::llround(kQueryWindowSeconds / f.sim.data.interval_seconds));
  const std::size_t starts = T - window - begin + 1;
  const std::size_t nodes = detections.size();
  const auto prefix = flag_prefix(detections, T);
  std::vector<bool> stored(nodes);
  for (std::size_t n = 0; n < nodes; ++n) stored[n] = store.node_samples(n) > 0;
  auto tally = [&](bool right_for_store, bool right_for_detections) {
    ++out.ledger.queries;
    if (!right_for_store)
      ++out.ledger.queries_failed;
    else if (!right_for_detections)
      ++out.ledger.queries_lost_to_store;
  };
  std::mt19937_64 rng(seed ^ 0x71C3A5E9D2B40F17ull);

  std::vector<double> node_ms;
  std::size_t pages = 0;
  for (std::size_t q = 0; q < kNodeQueries; ++q) {
    const std::size_t node = rng() % nodes;
    const std::size_t t0 = begin + rng() % starts, t1 = t0 + window;
    const std::int64_t a = now_ns();
    const AnomalyRateResult r = store_anomaly_rate(store, node, t0, t1);
    const std::int64_t b = now_ns();
    tracer.record(kNodeQuery, parent, a, b);
    node_ms.push_back(static_cast<double>(b - a) * 1e-6);
    for (const auto& page : store.node_catalog(node))
      pages += page.first_t < t1 && page.last_t >= t0;
    const std::uint32_t expect = prefix[node][t1] - prefix[node][t0];
    const bool right = r.samples == window && r.anomalous == expect;
    tally(stored[node] ? right : r.samples == 0 && r.anomalous == 0, right);
  }
  std::vector<double> fleet_ms;
  for (std::size_t q = 0; q < kFleetQueries; ++q) {
    const std::size_t t0 = begin + rng() % starts, t1 = t0 + window;
    const std::int64_t a = now_ns();
    const std::vector<NodeAnomalyRate> top =
        store_top_anomalous_nodes(store, kTopK, t0, t1);
    const std::int64_t b = now_ns();
    tracer.record(kFleetQuery, parent, a, b);
    fleet_ms.push_back(static_cast<double>(b - a) * 1e-6);
    // Every node holds `window` samples, so rate order is anomalous-count
    // order; ties go to the lower node index, as the store orders them.
    // The store skips nodes without samples.
    auto matches_top = [&](bool only_stored) {
      std::vector<std::pair<std::uint32_t, std::size_t>> expect;
      for (std::size_t n = 0; n < nodes; ++n)
        if (!only_stored || stored[n])
          expect.emplace_back(prefix[n][t1] - prefix[n][t0], n);
      const std::size_t k = std::min(kTopK, expect.size());
      std::partial_sort(expect.begin(), expect.begin() + k, expect.end(),
                        [](const auto& x, const auto& y) {
                          return x.first != y.first ? x.first > y.first
                                                    : x.second < y.second;
                        });
      bool same = top.size() == k;
      for (std::size_t i = 0; same && i < k; ++i)
        same = top[i].node == expect[i].second &&
               top[i].rate.anomalous == expect[i].first &&
               top[i].rate.samples == window;
      return same;
    };
    tally(matches_top(true), matches_top(false));
  }
  std::sort(node_ms.begin(), node_ms.end());
  std::sort(fleet_ms.begin(), fleet_ms.end());
  out.node_query_p50_ms = reported_percentile<double>(node_ms, 0.5);
  out.node_query_p99_ms = reported_percentile<double>(node_ms, 0.99);
  out.fleet_query_p50_ms = reported_percentile<double>(fleet_ms, 0.5);
  out.pages_per_node_query =
      static_cast<double>(pages) / static_cast<double>(kNodeQueries);
}

/// A fresh engine (and, on ops-store, its store and writer) with the
/// engine's private metrics registry.
struct Serving {
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<StoreWriter> writer;
  std::unique_ptr<ServeBackend> backend;
};

/// Deletes the files a store left under `dir` and keeps its directories.
/// TimeSeriesStore::create reuses existing node directories, so passes do
/// not create and remove 400 of them each: on the ext4 volume this was
/// measured on, that churn made directory creation 2-3x slower over a few
/// minutes, and every later construction and drain with it.
void clear_store_files(const std::string& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec))
    if (it->is_regular_file()) files.push_back(it->path());
  for (const fs::path& file : files) fs::remove(file);
}

Serving construct_serving(const Spec& spec, Fitted& f,
                          const std::string& store_dir) {
  const std::size_t nodes = f.sim.data.num_nodes() * spec.tile;
  Serving out;
  out.registry = std::make_unique<obs::Registry>();
  auto& [registry, writer, backend] = out;
  if (spec.ops) {
    StoreMeta meta;
    meta.metrics = f.sim.data.metrics;
    meta.interval_seconds = f.sim.data.interval_seconds;
    for (std::size_t n = 0; n < nodes; ++n)
      meta.node_names.push_back("node" + std::to_string(n));
    writer = std::make_unique<StoreWriter>(
        TimeSeriesStore::create(store_dir, std::move(meta)),
        StoreWriterConfig{}, registry.get());
  }
  ServeEngine::Options options;
  options.scoring(spec.path).population(nodes).metrics(registry.get());
  if (spec.ops)
    options.consensus(3, 2)
        .generation_registry(f.generations.get())
        .attribution()
        .store(writer.get());
  if (spec.shards > 0) {
    FleetConfig config;
    config.shards = spec.shards;
    config.engine = options.config();
    backend = std::make_unique<FleetEngine>(*f.sentry, config);
  } else {
    backend = std::make_unique<ServeEngine>(*f.sentry, options);
  }
  return out;
}

/// Times one construction for setup_s, then tears it down untimed.
double time_construction(const Spec& spec, Fitted& f,
                         const std::string& store_dir, Tracer& tracer) {
  const std::int64_t c0 = now_ns();
  const std::uint32_t span = tracer.open(kConstruct);
  Serving serving = construct_serving(spec, f, store_dir);
  tracer.close(span);
  const double seconds = static_cast<double>(now_ns() - c0) * 1e-9;
  serving.backend.reset();
  serving.writer.reset();
  if (spec.ops) clear_store_files(store_dir);
  return seconds;
}

/// One timed pass over a fresh engine. `queries` runs the ops-store
/// queries after the results are usable; they take longer than the stream
/// itself, so a run issues them once and in every traced pass.
Pass run_pass(const Spec& spec, Fitted& f, std::uint64_t seed, bool queries,
              const std::string& work_dir, Tracer& tracer) {
  const std::size_t base_nodes = f.sim.data.num_nodes();
  const std::size_t nodes = base_nodes * spec.tile;
  Pass out;

  // ---- construction, untimed here: set-up times it for setup_s
  const std::string store_dir = work_dir + "/store";
  Serving serving = construct_serving(spec, f, store_dir);
  auto& [registry, writer, backend] = serving;

  // ---- the producer: closed loop at full speed
  const ReplayJitterConfig jitter{spec.late_probability, spec.max_delay, seed};
  TelemetryReplaySource source(f.sim.data, f.sim.train_end, jitter);
  const bool shuffle_ticks = spec.late_probability == 0.0;
  std::mt19937_64 order_rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<std::uint32_t> ingest_ns;
  ingest_ns.reserve(source.total() * spec.tile);
  std::vector<std::uint64_t> offered(nodes, 0);
  tracer.reserve(source.total() * (spec.tile + 1) + 4096);

  const std::uint32_t pass = tracer.open(kPass);
  std::int64_t first = -1, last = 0;
  std::size_t since_pump = 0;
  auto ingest_copies = [&](StreamSample& s) {
    const std::size_t base = s.node;
    for (std::size_t copy = 0; copy < spec.tile; ++copy) {
      s.node = copy * base_nodes + base;
      const std::int64_t a = now_ns();
      backend->ingest(s);
      const std::int64_t b = now_ns();
      if (first < 0) first = a;
      last = b;
      ingest_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>(b - a, 0xffffffffLL)));
      tracer.record(kIngest, pass, a, b);
      ++offered[s.node];
      if (++since_pump >= kPumpEvery) {
        since_pump = 0;
        const std::int64_t p0 = now_ns();
        backend->pump();
        tracer.record(kPump, pass, p0, now_ns());
      }
    }
    s.node = base;
  };
  // Without jitter the source is tick-major; the seed permutes the base
  // nodes' arrival order within each tick (copies of one base sample stay
  // adjacent, as bench_fleet interleaves them).
  std::vector<StreamSample> tick;
  auto flush_tick = [&] {
    std::shuffle(tick.begin(), tick.end(), order_rng);
    for (StreamSample& s : tick) ingest_copies(s);
    tick.clear();
  };
  StreamSample sample;
  for (;;) {
    const std::int64_t n0 = tracer.on() ? now_ns() : 0;
    const bool more = source.next(sample);
    if (tracer.on()) tracer.record(kNext, pass, n0, now_ns());
    if (!more) break;
    if (!shuffle_ticks) {
      ingest_copies(sample);
      continue;
    }
    if (!tick.empty() && sample.t != tick.front().t) flush_tick();
    tick.push_back(sample);
  }
  if (!tick.empty()) flush_tick();

  const std::int64_t f0 = now_ns();
  out.result = backend->finalize();
  const std::int64_t f1 = now_ns();
  tracer.record(kFinalize, pass, f0, f1);
  std::int64_t usable = f1;
  if (spec.ops) {
    const std::int64_t d0 = now_ns();
    writer->drain();
    const std::int64_t d1 = now_ns();
    tracer.record(kDrain, pass, d0, d1);
    std::vector<std::vector<JobSpan>> jobs;
    for (std::size_t n = 0; n < nodes; ++n)
      jobs.push_back(f.sim.data.jobs[n % base_nodes]);
    IncidentGroupingMeta meta;
    meta.jobs = &jobs;
    IncidentConfig config;
    config.registry = registry.get();
    const IncidentEngine incidents(config);
    const std::int64_t b0 = now_ns();
    const IncidentReport report =
        incidents.build(out.result, backend->start_t(), meta);
    const std::int64_t b1 = now_ns();
    tracer.record(kCorrelate, pass, b0, b1);
    usable = b1;
    out.incidents = report.incidents.size();
    if (queries) {
      const std::int64_t q0 = now_ns();
      run_queries(f, writer->store(), out.result.detections, seed, tracer,
                  pass, out);
      out.query_s = static_cast<double>(now_ns() - q0) * 1e-9;
    }
  }
  tracer.close(pass);

  out.samples = ingest_ns.size();
  out.wall_s = static_cast<double>(f1 - first) * 1e-9;
  out.result_latency_s = static_cast<double>(usable - last) * 1e-9;
  out.stream_s = static_cast<double>(usable - first) * 1e-9;
  std::sort(ingest_ns.begin(), ingest_ns.end());
  out.ingest_p50_us = reported_percentile<std::uint32_t>(ingest_ns, 0.5) * 1e-3;
  out.ingest_p999_us =
      reported_percentile<std::uint32_t>(ingest_ns, 0.999) * 1e-3;

  if (const obs::Histogram* h = stage_histogram(*registry, "match")) {
    out.match_s = h->sum();
    out.match_calls = h->count();
  }
  if (const obs::Histogram* h = stage_histogram(*registry, "score")) {
    out.score_s = h->sum();
    out.score_calls = h->count();
  }

  const ServeStats& stats = out.result.stats;
  out.ledger.samples_offered = out.samples;
  out.ledger.samples_dropped_late = stats.samples_dropped_late;
  out.ledger.units_dropped = stats.units_dropped;
  out.ledger.rows_per_unit = f.sentry->config().detect_chunk;
  if (spec.ops) {
    const TimeSeriesStore& store = writer->store();
    out.samples_written = writer->samples_written();
    out.batches_dropped = writer->batches_dropped();
    out.sealed_bytes = store.sealed_bytes();
    // One batch per node at flag time, so a dropped batch is a node with
    // nothing sealed; its committed samples never reached the store.
    for (std::size_t n = 0; n < nodes; ++n) {
      const std::size_t sealed = store.node_samples(n);
      out.samples_sealed += sealed;
      if (sealed == 0) {
        ++out.empty_nodes;
        out.ledger.store_samples_lost += offered[n];
      }
    }
    out.store_flag_mismatches =
        compare_detections_with_store(out.result.detections, store,
                                      backend->start_t())
            .flag_mismatches;
  }
  backend.reset();
  writer.reset();
  if (spec.ops) clear_store_files(store_dir);
  return out;
}

// ------------------------------------------------------------ correctness

struct Check {
  bool ok = true;
  std::vector<std::string> failures;
  void require(bool condition, const std::string& what) {
    if (!condition) {
      ok = false;
      failures.push_back(what);
    }
  }
};

void check_pass(const Spec& spec, const Fitted& f,
                const std::vector<NodeDetection>& reference, const Pass& pass,
                Check& check) {
  const std::size_t base_nodes = f.sim.data.num_nodes();
  const auto& det = pass.result.detections;
  check.require(det.size() == base_nodes * spec.tile, "node count");
  if (det.size() != base_nodes * spec.tile) return;
  std::size_t copy_mismatch = 0, ref_mismatch = 0;
  for (std::size_t n = 0; n < det.size(); ++n) {
    copy_mismatch += !same_bits(det[n], det[n % base_nodes]);
    ref_mismatch += !same_bits(det[n], reference[n % base_nodes]);
  }
  const char* ref_name =
      spec.ops ? "G=1 replay"
               : (spec.late_probability > 0.0 ? "unjittered strict replay"
                                              : "lone quantized replay");
  check.require(copy_mismatch == 0,
                std::to_string(copy_mismatch) +
                    " tiled nodes differ bitwise from copy 0");
  check.require(ref_mismatch == 0, std::to_string(ref_mismatch) +
                                       " tiled nodes differ bitwise from the " +
                                       ref_name);
  if (spec.ops) {
    check.require(pass.store_flag_mismatches == 0,
                  std::to_string(pass.store_flag_mismatches) +
                      " store flag mismatches");
    const std::uint64_t committed =
        pass.ledger.samples_offered - pass.ledger.samples_dropped_late;
    check.require(pass.samples_sealed + pass.ledger.store_samples_lost ==
                      committed,
                  "sealed + dropped-batch samples != samples committed");
    check.require(pass.empty_nodes == pass.batches_dropped,
                  "nodes missing from the store != batches dropped");
  }
}

// ------------------------------------------------------------------ probes

/// Keeps probe results observable so the timed calls are not elided.
volatile std::size_t g_sink = 0;

struct Probes {
  double preprocess_us = 0.0, extract_us = 0.0, match_us = 0.0;
  double forward_rows_per_s = 0.0;
};

Probes run_probes(const Spec& spec, Fitted& f, const ServeStats& stats,
                  Tracer& tracer) {
  Probes out;
  NodeSentry& sentry = *f.sentry;
  const NodeSentryConfig& cfg = sentry.config();
  const MtsDataset& raw = f.sim.data;
  const MtsDataset& processed = sentry.processed();
  const std::size_t N = raw.num_nodes(), T = raw.num_timestamps();
  const std::size_t begin = f.sim.train_end;

  {  // ts: StreamPreprocessor::process on one sample
    const std::uint32_t span = tracer.open(kProbe);
    const StreamPreprocessor pre(sentry.raw_metrics(),
                                 sentry.aggregation_sources(),
                                 sentry.kept_metrics(), &sentry.standardizer(),
                                 cfg.standardize_clip);
    std::vector<std::pair<std::size_t, std::vector<float>>> samples;
    for (std::size_t t = begin; t < T && samples.size() < 2048; ++t)
      for (std::size_t n = 0; n < N; ++n) {
        std::vector<float> v(raw.num_metrics());
        for (std::size_t m = 0; m < v.size(); ++m)
          v[m] = raw.nodes[n].values[m][t];
        samples.emplace_back(n, std::move(v));
      }
    constexpr std::size_t kBatch = 64;
    std::vector<double> per_call;
    std::size_t sink = 0;
    for (int round = 0; round < 4; ++round)
      for (std::size_t i = 0; i + kBatch <= samples.size(); i += kBatch) {
        const std::int64_t a = now_ns();
        for (std::size_t j = i; j < i + kBatch; ++j)
          sink += pre.process(samples[j].first, samples[j].second).valid.size();
        per_call.push_back(static_cast<double>(now_ns() - a) * 1e-3 / kBatch);
      }
    g_sink = sink;
    out.preprocess_us = perfbench::median(per_call);
    tracer.close(span);
  }

  {  // features + cluster: one match window, then scale + match + nearest
    const std::uint32_t span = tracer.open(kProbe);
    const std::size_t win = cfg.match_period;
    const std::size_t M = processed.num_metrics();
    std::vector<std::vector<std::vector<float>>> windows;
    for (std::size_t i = 0; windows.size() < 128; ++i) {
      const std::size_t n = i % N;
      const std::size_t t = begin + (i * 37) % (T - begin - win);
      std::vector<std::vector<float>> w(M, std::vector<float>(win));
      for (std::size_t m = 0; m < M; ++m)
        for (std::size_t r = 0; r < win; ++r)
          w[m][r] = processed.nodes[n].values[m][t + r];
      windows.push_back(std::move(w));
    }
    const ClusterLibrary& library = sentry.library();
    std::vector<double> extract_us, match_us;
    std::size_t sink = 0;
    for (int round = 0; round < 2; ++round)
      for (const auto& w : windows) {
        const std::int64_t a = now_ns();
        const std::vector<float> feats = extract_segment_features(w);
        const std::int64_t b = now_ns();
        const std::vector<float> scaled = library.scale(feats);
        const MatchResult match =
            library.match(scaled, cfg.match_threshold_factor);
        sink += library.nearest_member(match.cluster, scaled);
        const std::int64_t c = now_ns();
        extract_us.push_back(static_cast<double>(b - a) * 1e-3);
        match_us.push_back(static_cast<double>(c - b) * 1e-3);
      }
    g_sink = sink;
    out.extract_us = perfbench::median(extract_us);
    out.match_us = perfbench::median(match_us);
    tracer.close(span);
  }

  {  // nn: one thread, the workload's own forward, at its mean occupancy
    const std::uint32_t span = tracer.open(kProbe);
    // Blocks of the pass's mean scored-chunk length, as many per forward
    // as its mean batch occupancy.
    const std::size_t M = processed.num_metrics();
    const std::size_t chunk = std::clamp<std::size_t>(
        stats.chunks_scored > 0 ? stats.points_scored / stats.chunks_scored
                                : cfg.detect_chunk,
        2, cfg.detect_chunk);
    const std::size_t blocks = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(stats.mean_batch_occupancy)));
    const std::size_t rows = blocks * chunk;
    Tensor x(Shape{rows, M});
    std::vector<std::size_t> offsets, seg_ids, block_lens(blocks, chunk);
    for (std::size_t b = 0; b < blocks; ++b) {
      Tensor tokens(Shape{chunk, M});
      const std::size_t n = b % N, t0 = begin + (b * 53) % (T - begin - chunk);
      for (std::size_t r = 0; r < chunk; ++r)
        for (std::size_t m = 0; m < M; ++m)
          tokens.at(r, m) = processed.nodes[n].values[m][t0 + r];
      center_tokens_leading(tokens, cfg.match_period);
      for (std::size_t r = 0; r < chunk; ++r) {
        for (std::size_t m = 0; m < M; ++m) x.at(b * chunk + r, m) = tokens.at(r, m);
        offsets.push_back(r);
        seg_ids.push_back(0);
      }
    }
    const ClusterEntry& entry = sentry.library().clusters()[0];
    std::unique_ptr<ScoringPlan> plan;
    if (spec.path != ScoringPath::kStrict) {
      if (spec.path == ScoringPath::kQuantized) {
        const QuantCalibration calibration =
            calibrate_quantization(*entry.model);
        plan = std::make_unique<ScoringPlan>(*entry.model, &calibration);
      } else {
        plan = std::make_unique<ScoringPlan>(*entry.model);
      }
    }
    // Run on a worker of the process pool, as the engine's scoring tasks
    // do: nested kernel parallelism then degrades to this one thread.
    std::vector<double> rates;
    ThreadPool::global()
        .submit([&] {
          Workspace ws;
          Rng rng(0);
          const std::int64_t until = now_ns() + 400'000'000;
          for (int rep = 0; rep < 5 || now_ns() < until; ++rep) {
            const std::int64_t a = now_ns();
            Tensor out_rows;
            if (plan)
              out_rows = plan->forward(x, offsets, seg_ids, block_lens, ws);
            else
              out_rows = entry.model
                             ->forward_blocked(Var::constant(x.clone()),
                                               offsets, seg_ids, rng,
                                               block_lens)
                             .value();
            const double s = static_cast<double>(now_ns() - a) * 1e-9;
            if (rep > 0 && s > 0.0) rates.push_back(rows / s);  // rep 0 warms
          }
        })
        .get();
    out.forward_rows_per_s = perfbench::median(rates);
    tracer.close(span);
  }
  return out;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  return args;
}

int run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (args.workload == s.name) spec = &s;
  if (spec == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const std::string work_dir = args.out_dir + "/" + spec->name;
  fs::create_directories(work_dir);
  const std::uint64_t run_id =
      (static_cast<std::uint64_t>(now_ns()) << 8) ^ args.seed;

  const std::string stamp =
      std::string("{\"workload\": ") + json_string(spec->name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu\": " + json_string(cpu_model()) +
      ", \"kernel_tier\": " +
      json_string(kernel_tier_name(kernel_dispatch_tier())) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + json_string(__VERSION__) +
      ", \"commit\": " + json_string(args.commit) +
      ", \"run_id\": " + std::to_string(run_id) + "}";
  std::printf("stamp: %s\n", stamp.c_str());

  // ---- set-up: repeated for the setup_s median; once in a traced run
  Tracer tracer(args.trace);
  std::vector<double> setup_seconds;
  double setup_total = 0.0;
  Fitted f;
  for (std::size_t r = 0;
       args.trace ? r < 1
                  : (r < kSetupRepeats || setup_total < kSetupMinSeconds);
       ++r) {
    f = Fitted{};  // free the previous fit before building the next
    f = set_up(*spec, tracer);
    const double construct =
        time_construction(*spec, f, work_dir + "/store", tracer);
    setup_seconds.push_back(f.seconds + construct);
    setup_total += f.seconds + construct;
    std::printf("setup %zu: %.3f s (fit %.3f s: features %.3f s, %zu "
                "segments -> %zu clusters; construction %.3f s)\n",
                r, f.seconds + construct, f.fit.total_seconds,
                f.fit.feature_seconds, f.fit.num_segments,
                f.fit.num_clusters, construct);
  }
  const std::vector<NodeDetection> reference = reference_detections(*spec, f);

  // ---- timed passes: another pass starts only while it should end within
  // --seconds (at least one; a traced run needs one of each kind). The
  // ops-store queries do not count. A traced run alternates untraced and
  // traced passes for the overhead.
  Check check;
  std::vector<Pass> plain, traced;
  double used_s = 0.0, last_pass_s = 0.0;
  while (plain.empty() || (args.trace && traced.empty()) ||
         used_s + last_pass_s <= args.seconds) {
    const bool trace_this = args.trace && plain.size() > traced.size();
    tracer.set_on(trace_this);
    const std::int64_t pass_start = now_ns();
    Pass pass = run_pass(*spec, f, args.seed, plain.empty() || trace_this,
                         work_dir, tracer);
    last_pass_s = static_cast<double>(now_ns() - pass_start) * 1e-9 -
                  pass.query_s;
    used_s += last_pass_s;
    tracer.set_on(args.trace);
    check_pass(*spec, f, reference, pass, check);
    std::printf("pass%s: %zu samples, %.3f s -> %.0f samples/s, result "
                "latency %.3f s, ingest p50 %.2f us p99.9 %.2f us, failed "
                "%llu/%llu (%llu outside the store drop)\n",
                trace_this ? " (traced)" : "", pass.samples, pass.wall_s,
                pass.samples / pass.wall_s, pass.result_latency_s,
                pass.ingest_p50_us, pass.ingest_p999_us,
                static_cast<unsigned long long>(pass.ledger.failed()),
                static_cast<unsigned long long>(pass.ledger.attempted()),
                static_cast<unsigned long long>(pass.ledger.program_failed()));
    pass.result.attribution = ResidualAttribution{};
    if (!plain.empty()) pass.result.detections.clear();  // copy 0 of pass 1 is scored
    (trace_this ? traced : plain).push_back(std::move(pass));
  }
  for (const std::string& failure : check.failures)
    std::printf("CHECK FAILED: %s\n", failure.c_str());

  const Pass& first = plain.front();
  const Quality quality = quality_of(f.sim, first.result.detections);
  perfbench::Ledger ledger;
  for (const Pass& p : plain) {
    ledger.samples_offered += p.ledger.samples_offered;
    ledger.samples_dropped_late += p.ledger.samples_dropped_late;
    ledger.units_dropped += p.ledger.units_dropped;
    ledger.rows_per_unit = p.ledger.rows_per_unit;
    ledger.store_samples_lost += p.ledger.store_samples_lost;
    ledger.queries += p.ledger.queries;
    ledger.queries_failed += p.ledger.queries_failed;
    ledger.queries_lost_to_store += p.ledger.queries_lost_to_store;
  }
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const Pass& p : plain) v.push_back(field(p));
    return perfbench::median(v);
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Throughput over every pass of the run: all offered samples over all
    // the time from first ingest() to finalize() return.
    double samples = 0.0, wall = 0.0;
    for (const Pass& p : plain) {
      samples += static_cast<double>(p.samples);
      wall += p.wall_s;
    }
    metrics = {
        {"setup_s", perfbench::median(setup_seconds), "s"},
        {"samples_per_s", samples / wall, "1/s"},
        {"result_latency_s",
         med([](const Pass& p) { return p.result_latency_s; }), "s"},
        {"f1", quality.f1, "ratio"},
        {"recall", quality.recall, "ratio"},
        {"fp_rate", quality.fp_rate, "ratio"},
        {"delivered_fraction", 1.0 - ledger.failed_fraction(), "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const Pass& t = traced.back();
    const ServeStats& s = t.result.stats;
    const Probes probes = run_probes(*spec, f, s, tracer);
    const std::vector<double> self =
        perfbench::self_seconds(tracer.spans(), kNumSpanNames);
    // Layer times come from the traced pass only: self time per span name
    // over the spans under that pass's root.
    std::vector<Span> pass_spans;
    {
      std::uint32_t root = kNoParent;
      for (std::uint32_t i = 0; i < tracer.spans().size(); ++i)
        if (tracer.spans()[i].name == kPass) root = i;
      for (const Span& sp : tracer.spans())
        if (sp.parent == root) pass_spans.push_back(sp);
    }
    auto span_total = [&](SpanName name) {
      double total = 0.0;
      for (const Span& sp : pass_spans)
        if (sp.name == name) total += static_cast<double>(sp.duration_ns()) * 1e-9;
      return total;
    };
    auto span_count = [&](SpanName name) {
      double count = 0.0;
      for (const Span& sp : pass_spans) count += sp.name == name;
      return count;
    };
    std::vector<double> plain_wall, traced_wall;
    for (const Pass& p : plain) plain_wall.push_back(p.stream_s);
    for (const Pass& p : traced) traced_wall.push_back(p.stream_s);
    const double overhead = perfbench::median(traced_wall) /
                                perfbench::median(plain_wall) -
                            1.0;
    const double samples_sealed = static_cast<double>(t.samples_sealed);
    metrics = {
        {"sim.next_s", span_total(kNext), "s"},
        {"core.fit_s", self[kFit], "s"},
        {"core.fit.preprocess_s", f.fit.preprocess_seconds, "s"},
        {"core.fit.features_s", f.fit.feature_seconds, "s"},
        {"core.fit.clustering_s", f.fit.clustering_seconds, "s"},
        {"core.fit.training_s", f.fit.training_seconds, "s"},
        {"core.fit.segments", static_cast<double>(f.fit.num_segments), "count"},
        {"core.fit.clusters", static_cast<double>(f.fit.num_clusters), "count"},
        {"ts.preprocess_us", probes.preprocess_us, "us"},
        {"features.extract_us", probes.extract_us, "us"},
        {"cluster.match_us", probes.match_us, "us"},
        {"nn.forward_rows_per_s", probes.forward_rows_per_s, "1/s"},
        {"serve.ingest_p50_us",
         med([](const Pass& p) { return p.ingest_p50_us; }), "us"},
        {"serve.ingest_p999_us",
         med([](const Pass& p) { return p.ingest_p999_us; }), "us"},
        {"serve.ingest_s", span_total(kIngest), "s"},
        {"serve.ingest_calls", span_count(kIngest), "count"},
        {"serve.pump_s", span_total(kPump), "s"},
        {"serve.pump_calls", span_count(kPump), "count"},
        {"serve.finalize_s", span_total(kFinalize), "s"},
        {"serve.match_s", t.match_s, "s"},
        {"serve.match_calls", static_cast<double>(t.match_calls), "count"},
        {"serve.score_s", t.score_s, "s"},
        {"serve.score_calls", static_cast<double>(t.score_calls), "count"},
        {"serve.batch_occupancy", s.mean_batch_occupancy, "chunks"},
        {"serve.points_scored", static_cast<double>(s.points_scored), "count"},
        {"serve.segments_matched", static_cast<double>(s.segments_matched), "count"},
        {"serve.segments_unmatched", static_cast<double>(s.segments_unmatched), "count"},
        {"serve.segments_insufficient", static_cast<double>(s.segments_insufficient), "count"},
        {"serve.max_queue_depth", static_cast<double>(s.max_queue_depth), "count"},
        {"serve.units_dropped", static_cast<double>(s.units_dropped), "count"},
        {"serve.samples_out_of_order", static_cast<double>(s.samples_out_of_order), "count"},
        {"serve.samples_dropped_late", static_cast<double>(s.samples_dropped_late), "count"},
        {"serve.gap_rows_filled", static_cast<double>(s.gap_rows_filled), "count"},
        {"serve.cells_masked", static_cast<double>(s.cells_masked), "count"},
        {"serve.score_reallocs", static_cast<double>(s.score_reallocs), "count"},
        {"serve.ring_stalls", static_cast<double>(s.ring_stalls), "count"},
        {"serve.consensus_points", static_cast<double>(s.consensus_points), "count"},
        {"serve.consensus_disagreements", static_cast<double>(s.consensus_disagreements), "count"},
        {"store.drain_s", span_total(kDrain), "s"},
        {"store.samples_written", static_cast<double>(t.samples_written), "count"},
        {"store.batches_dropped", static_cast<double>(t.batches_dropped), "count"},
        {"store.sealed_bytes", static_cast<double>(t.sealed_bytes), "bytes"},
        {"store.bytes_per_sample",
         samples_sealed > 0 ? static_cast<double>(t.sealed_bytes) / samples_sealed : 0.0,
         "bytes"},
        {"store.pages_per_node_query", t.pages_per_node_query, "count"},
        {"store.node_query_p50_ms", t.node_query_p50_ms, "ms"},
        {"store.node_query_p99_ms", t.node_query_p99_ms, "ms"},
        {"store.fleet_query_p50_ms", t.fleet_query_p50_ms, "ms"},
        {"correlate.build_s", span_total(kCorrelate), "s"},
        {"correlate.incidents", static_cast<double>(t.incidents), "count"},
        {"failed_fraction", t.ledger.failed_fraction(), "ratio"},
        {"trace.self.pass_s", self[kPass], "s"},
        {"trace.overhead_frac", overhead, "ratio"},
        {"trace.coverage_frac", perfbench::coverage_fraction(tracer.spans(), kPass),
         "ratio"},
    };
    write_spans(work_dir + "/spans.bin", run_id, tracer.spans());
  }

  const std::string result =
      std::string("{\"correct\": ") + (check.ok ? "true" : "false") +
      ", \"attempted\": " + std::to_string(ledger.attempted()) +
      ", \"failed\": " + std::to_string(ledger.program_failed()) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  {
    std::ofstream record(work_dir + "/result-seed" + std::to_string(args.seed) +
                         (args.trace ? "-trace" : "") + ".json");
    record << "{\"stamp\": " << stamp << ", \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return check.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
