// Shared helpers for the table/figure reproduction harnesses.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/nodesentry.hpp"
#include "eval/metrics.hpp"
#include "sim/dataset_builder.hpp"
#include "tensor/kernels.hpp"

namespace ns::bench {

/// Transition-guard evaluation masks for every node (1-minute guards at
/// 15-second sampling = 4 steps, §4.1.4).
inline std::vector<std::vector<std::uint8_t>> masks_for(const SimDataset& sim) {
  std::vector<std::vector<std::uint8_t>> masks;
  masks.reserve(sim.data.num_nodes());
  for (std::size_t n = 0; n < sim.data.num_nodes(); ++n)
    masks.push_back(evaluation_mask(sim.data.jobs[n],
                                    sim.data.num_timestamps(), sim.train_end,
                                    /*guard_steps=*/4));
  return masks;
}

inline DetectionMetrics evaluate(const SimDataset& sim,
                                 const std::vector<NodeDetection>& detections) {
  return aggregate_nodes(detections, sim.data.labels, masks_for(sim));
}

/// NodeSentry configuration used across benches (documented in
/// EXPERIMENTS.md; the paper's artifact settings, scaled to the bench data).
inline NodeSentryConfig bench_nodesentry_config(std::uint64_t seed = 1234) {
  NodeSentryConfig config;
  config.train_epochs = 10;
  config.learning_rate = 3e-3f;
  config.seed = seed;
  return config;
}

/// Bench-default datasets: the paper's D1/D2 shapes at the documented scale
/// factor, with the anomaly ratio raised so the scaled test region holds a
/// statistically meaningful number of fault events (see EXPERIMENTS.md).
inline SimDataset make_d1(std::uint64_t seed = 11) {
  SimDatasetConfig config = d1_sim_config(1.0, seed);
  config.anomaly_ratio = 0.008;
  return build_sim_dataset(config);
}

inline SimDataset make_d2(std::uint64_t seed = 22) {
  SimDatasetConfig config = d2_sim_config(1.0, seed);
  config.anomaly_ratio = 0.008;
  return build_sim_dataset(config);
}

/// Formats seconds compactly (ms / s / min) for table cells.
inline std::string format_seconds(double seconds) {
  char buffer[32];
  if (seconds < 1.0)
    std::snprintf(buffer, sizeof buffer, "%.0f ms", seconds * 1e3);
  else if (seconds < 120.0)
    std::snprintf(buffer, sizeof buffer, "%.2f s", seconds);
  else
    std::snprintf(buffer, sizeof buffer, "%.1f min", seconds / 60.0);
  return buffer;
}

/// Escapes `s` as a JSON string literal.
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The CPU model line of /proc/cpuinfo ("unknown" elsewhere).
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

/// `git describe --always --dirty` of the source tree the bench was built
/// from ("unknown" without git or outside a checkout).
inline std::string git_commit() {
  std::string out;
  const std::string cmd =
      std::string("git -C \"") + NS_SOURCE_DIR +
      "\" describe --always --dirty 2>/dev/null";
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof buffer, pipe)) out += buffer;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// Where a BENCH_*.json number was measured: one JSON object with the
/// hardware threads, CPU model, build type, kernel dispatch tier and git
/// commit.
inline std::string host_stamp_json() {
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"build_type\": " + json_string(NS_BUILD_TYPE) +
         ", \"kernel_tier\": " +
         json_string(kernel_tier_name(kernel_dispatch_tier())) +
         ", \"commit\": " + json_string(git_commit()) + "}";
}

}  // namespace ns::bench
