// Embedded time-series store bench (DESIGN.md §13): compression ratio of
// the delta-of-delta + XOR codec against the CSV dataset format on D1-sim,
// single-writer append throughput, StoreWriter drain throughput at 256
// nodes against serial appends of the same batches, and query-time
// anomaly-rate aggregation latency (p50/p99 over repeated fleet scans).
// Writes BENCH_store.json (--json=<path>), stamped with the host, build
// type, kernel tier and commit.
//
// Doubles as a regression gate: exits non-zero when the sealed store is
// less than 5x smaller than the equivalent CSV bytes — the headline claim
// a ring-retention deployment sizes its disks by — or when the writer
// seals a different number of bytes than serial appends of its input.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "io/dataset_io.hpp"
#include "sim/dataset_builder.hpp"
#include "common/thread_pool.hpp"
#include "store/query.hpp"
#include "store/writer.hpp"

namespace {

using namespace ns;
namespace fs = std::filesystem;

struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

LatencyStats summarize(std::vector<double>& samples_us) {
  std::sort(samples_us.begin(), samples_us.end());
  LatencyStats stats;
  stats.p50_us = samples_us[samples_us.size() / 2];
  stats.p99_us = samples_us[samples_us.size() * 99 / 100];
  stats.max_us = samples_us.back();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_store.json";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;

  // D1-sim with labels riding along as in-band anomaly bits, exactly like
  // a serve deployment seals them at flag time.
  const SimDataset sim = bench::make_d1();
  const std::size_t T = sim.data.num_timestamps();
  const std::size_t total_samples = sim.data.num_nodes() * T;
  std::printf("store bench: D1-sim, %zu nodes x %zu metrics x %zu ticks\n",
              sim.data.num_nodes(), sim.data.num_metrics(), T);

  // Production collectors emit fixed-precision readings (two to four
  // significant digits), not full-precision doubles; the simulator's
  // additive noise fills every mantissa bit, which no lossless codec can
  // compress. Model the collector by truncating each reading to 8
  // mantissa bits (~0.4% resolution) before EITHER format stores it —
  // both artifacts then hold identical data and the comparison stays
  // apples-to-apples. The untouched full-precision ratio is also measured
  // and reported.
  MtsDataset telemetry = sim.data;
  constexpr std::uint32_t kMantissaMask = ~((1u << 15) - 1);
  for (auto& node : telemetry.nodes)
    for (auto& series : node.values)
      for (float& v : series)
        if (!std::isnan(v))
          v = std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) &
                                   kMantissaMask);

  const fs::path work = fs::temp_directory_path() / "ns_bench_store";
  fs::remove_all(work);
  const std::string csv_dir = (work / "csv").string();
  const std::string store_dir = (work / "store").string();

  // Baseline: the repo's CSV dataset format (the bytes a --data-dir
  // deployment keeps around to be able to warm-restart).
  save_dataset(telemetry, csv_dir);
  const double csv_bytes = static_cast<double>(dataset_csv_bytes(csv_dir));

  // Full-precision reference: how the codec fares when the mantissa is
  // pure noise (worst case; reported, not gated).
  double full_precision_ratio = 0.0;
  {
    const std::string raw_dir = (work / "store_raw").string();
    TimeSeriesStore raw_store = TimeSeriesStore::create(
        raw_dir, store_meta_from_dataset(sim.data));
    store_append_dataset(raw_store, sim.data, 0, T, nullptr,
                         &sim.data.labels);
    raw_store.flush();
    const std::string raw_csv = (work / "csv_raw").string();
    save_dataset(sim.data, raw_csv);
    full_precision_ratio =
        static_cast<double>(dataset_csv_bytes(raw_csv)) /
        static_cast<double>(raw_store.sealed_bytes());
  }

  // Write path: bulk append through the page builder, timed.
  TimeSeriesStore store = TimeSeriesStore::create(
      store_dir, store_meta_from_dataset(telemetry));
  Stopwatch write_watch;
  store_append_dataset(store, telemetry, 0, T, nullptr, &telemetry.labels);
  store.flush();
  const double write_seconds = write_watch.elapsed_s();
  const double store_bytes = static_cast<double>(store.sealed_bytes());
  const double ratio = csv_bytes / store_bytes;
  const double samples_per_sec =
      static_cast<double>(store.stats().samples_appended) / write_seconds;
  std::printf("csv %.0f B -> store %.0f B (%.1fx; full-precision %.1fx), "
              "write %.0f samples/s\n",
              csv_bytes, store_bytes, ratio, full_precision_ratio,
              samples_per_sec);

  // Write path through the async writer, in the serve deployment's shape:
  // one hand-off holding every node's batch (what finalize() hands over),
  // then drain(). 256 nodes, node n replaying D1 node n % 32 over the first
  // kWriterTicks ticks as sealed above (job ids and anomaly bits included).
  // The serial arm appends the same batches with TimeSeriesStore::append on
  // one thread.
  constexpr std::size_t kWriterNodes = 256, kWriterTicks = 720;
  std::vector<StoreWriter::Batch> handoff(kWriterNodes);
  for (std::size_t n = 0; n < kWriterNodes; ++n) {
    handoff[n].node = n;
    if (n < sim.data.num_nodes()) {
      TimeSeriesStore::Cursor cursor = store.range(n, 0, kWriterTicks);
      StoreSample sample;
      while (cursor.next(sample)) handoff[n].samples.push_back(sample);
    } else {
      handoff[n].samples = handoff[n % sim.data.num_nodes()].samples;
    }
  }
  std::size_t writer_samples = 0;
  for (const StoreWriter::Batch& batch : handoff)
    writer_samples += batch.samples.size();
  StoreMeta writer_meta;
  writer_meta.metrics = telemetry.metrics;
  writer_meta.interval_seconds = telemetry.interval_seconds;
  for (std::size_t n = 0; n < kWriterNodes; ++n)
    writer_meta.node_names.push_back("node" + std::to_string(n));

  TimeSeriesStore serial_store = TimeSeriesStore::create(
      (work / "writer_serial").string(), writer_meta);
  Stopwatch serial_watch;
  for (const StoreWriter::Batch& batch : handoff)
    for (const StoreSample& sample : batch.samples)
      serial_store.append(batch.node, sample);
  serial_store.flush();
  const double serial_seconds = serial_watch.elapsed_s();

  double drain_seconds = 0.0;
  std::uint64_t writer_bytes = 0;
  {
    StoreWriter writer(TimeSeriesStore::create(
        (work / "writer_parallel").string(), std::move(writer_meta)));
    Stopwatch drain_watch;
    writer.enqueue(std::move(handoff));
    writer.drain();
    drain_seconds = drain_watch.elapsed_s();
    writer_bytes = writer.store().sealed_bytes();
  }
  const double serial_per_sec =
      static_cast<double>(writer_samples) / serial_seconds;
  const double drain_per_sec =
      static_cast<double>(writer_samples) / drain_seconds;
  std::printf("writer: %zu nodes, %zu samples, serial append %.0f samples/s, "
              "StoreWriter drain %.0f samples/s (%.2fx, %zu pool threads)\n",
              kWriterNodes, writer_samples, serial_per_sec, drain_per_sec,
              drain_per_sec / serial_per_sec, ThreadPool::global().size());

  // Query path: full-fleet anomaly-rate scans (decompress every page,
  // aggregate the in-band bits at query time).
  const std::size_t kScans = 50;
  std::vector<double> scan_us;
  scan_us.reserve(kScans);
  AnomalyRateResult fleet;
  for (std::size_t i = 0; i < kScans; ++i) {
    Stopwatch watch;
    fleet = store_anomaly_rate(store, 0, T);
    scan_us.push_back(watch.elapsed_s() * 1e6);
  }
  const LatencyStats scan = summarize(scan_us);
  const double scanned_per_sec =
      static_cast<double>(fleet.samples) / (scan.p50_us * 1e-6);
  std::printf("fleet anomaly-rate scan: p50 %.0f us, p99 %.0f us "
              "(%.2fM samples/s), rate %.4f\n",
              scan.p50_us, scan.p99_us, scanned_per_sec * 1e-6, fleet.rate());

  // Top-K on the same store: the dashboard query.
  std::vector<double> top_us;
  top_us.reserve(kScans);
  for (std::size_t i = 0; i < kScans; ++i) {
    Stopwatch watch;
    const auto top = store_top_anomalous_nodes(store, 5, 0, T);
    top_us.push_back(watch.elapsed_s() * 1e6);
    if (top.empty()) return 1;  // keep the call alive past the optimizer
  }
  const LatencyStats top = summarize(top_us);

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"host\": %s,\n", bench::host_stamp_json().c_str());
    std::fprintf(f, "  \"dataset\": \"d1_sim\",\n");
    std::fprintf(f, "  \"nodes\": %zu,\n", sim.data.num_nodes());
    std::fprintf(f, "  \"metrics\": %zu,\n", sim.data.num_metrics());
    std::fprintf(f, "  \"ticks\": %zu,\n", T);
    std::fprintf(f, "  \"samples\": %zu,\n", total_samples);
    std::fprintf(f, "  \"csv_bytes\": %.0f,\n", csv_bytes);
    std::fprintf(f, "  \"store_bytes\": %.0f,\n", store_bytes);
    std::fprintf(f, "  \"compression_ratio\": %.2f,\n", ratio);
    std::fprintf(f, "  \"full_precision_ratio\": %.2f,\n",
                 full_precision_ratio);
    std::fprintf(f, "  \"bytes_per_sample\": %.2f,\n",
                 store_bytes / static_cast<double>(total_samples));
    std::fprintf(f, "  \"write_samples_per_sec\": %.0f,\n", samples_per_sec);
    std::fprintf(f, "  \"writer_nodes\": %zu,\n", kWriterNodes);
    std::fprintf(f, "  \"writer_samples\": %zu,\n", writer_samples);
    std::fprintf(f, "  \"writer_pool_threads\": %zu,\n",
                 ThreadPool::global().size());
    std::fprintf(f, "  \"writer_serial_samples_per_sec\": %.0f,\n",
                 serial_per_sec);
    std::fprintf(f, "  \"writer_drain_samples_per_sec\": %.0f,\n",
                 drain_per_sec);
    std::fprintf(f, "  \"anomaly_rate_scan_p50_us\": %.1f,\n", scan.p50_us);
    std::fprintf(f, "  \"anomaly_rate_scan_p99_us\": %.1f,\n", scan.p99_us);
    std::fprintf(f, "  \"anomaly_rate_scan_max_us\": %.1f,\n", scan.max_us);
    std::fprintf(f, "  \"topk_scan_p50_us\": %.1f,\n", top.p50_us);
    std::fprintf(f, "  \"topk_scan_p99_us\": %.1f\n", top.p99_us);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    fs::remove_all(work);
    return 1;
  }
  fs::remove_all(work);

  if (writer_bytes != serial_store.sealed_bytes()) {
    std::fprintf(stderr, "FAIL: StoreWriter sealed %llu bytes, serial appends "
                         "of the same batches %llu\n",
                 static_cast<unsigned long long>(writer_bytes),
                 static_cast<unsigned long long>(serial_store.sealed_bytes()));
    return 1;
  }
  // Size gate: the store must stay >= 5x denser than CSV on D1-sim.
  const double kMinRatio = 5.0;
  if (ratio < kMinRatio) {
    std::fprintf(stderr,
                 "FAIL: compression ratio %.2fx is below the %.0fx floor\n",
                 ratio, kMinRatio);
    return 1;
  }
  return 0;
}
