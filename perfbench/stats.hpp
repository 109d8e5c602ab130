// The benchmark's own arithmetic, kept apart from the workloads so
// stats_test.cpp can pin it: percentile selection, failure accounting and
// span self time. Header-only and free of NodeSentry dependencies.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail it names is a handful of outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples:
/// ceil(q * n), clamped to [1, n]. The epsilon keeps q * n that is an
/// integer in exact arithmetic (0.999 * 10000) from rounding up a rank.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the nearest-rank position of q.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile of ascending-sorted values; 0 when empty.
template <typename T>
double percentile_sorted(std::span<const T> sorted, double q) {
  if (sorted.empty()) return 0.0;
  return static_cast<double>(sorted[nearest_rank(sorted.size(), q) - 1]);
}

/// Median of a copy (mean of the two middle values for even counts).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Operations one timed pass attempted and how many failed. A sample
/// fails when it is dropped late, lost in a backpressure-dropped scoring
/// unit, or lost in a dropped store batch; a query fails when its answer
/// differs from the same aggregate over the detections.
///
/// The store writer's drop-oldest queue loses a timing-dependent number of
/// batches (a known defect of the writer), so those losses are kept apart:
/// failed() and failed_fraction() count them, program_failed() does not.
/// program_failed() is what the program got wrong or refused otherwise,
/// and is 0 on every workload at seed.
struct Ledger {
  std::uint64_t samples_offered = 0;
  std::uint64_t samples_dropped_late = 0;
  /// Units dropped by the scoring queue. The engine does not report how
  /// many rows a dropped unit held, so each counts as a full chunk: an
  /// upper bound on the samples it lost.
  std::uint64_t units_dropped = 0;
  std::uint64_t rows_per_unit = 0;
  std::uint64_t store_samples_lost = 0;
  std::uint64_t queries = 0;
  /// Answers that differ from the aggregate over what the store holds.
  std::uint64_t queries_failed = 0;
  /// Answers right for what the store holds but wrong for the detections,
  /// because a node's batch was dropped.
  std::uint64_t queries_lost_to_store = 0;

  std::uint64_t attempted() const { return samples_offered + queries; }
  std::uint64_t program_failed() const {
    return std::min(samples_dropped_late + units_dropped * rows_per_unit,
                    samples_offered) +
           queries_failed;
  }
  std::uint64_t failed() const {
    const std::uint64_t samples_failed = samples_dropped_late +
                                         units_dropped * rows_per_unit +
                                         store_samples_lost;
    return std::min(samples_failed, samples_offered) + queries_failed +
           queries_lost_to_store;
  }
  double failed_fraction() const {
    return attempted() > 0 ? static_cast<double>(failed()) /
                                 static_cast<double>(attempted())
                           : 0.0;
  }
};

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/// One timed call. `parent` indexes the enclosing span in the same vector
/// (kNoParent for a root); spans of one run share the run's id.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Nanoseconds of each span covered by its children: the union of the
/// child intervals, clipped to the parent, so overlapping children are
/// counted once.
inline std::vector<std::int64_t> covered_by_children(
    std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent != kNoParent && s.parent < spans.size())
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    if (kids.empty()) continue;
    std::sort(kids.begin(), kids.end());
    std::int64_t run_begin = 0, run_end = 0, total = 0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, spans[i].start_ns);
      e = std::min(e, spans[i].end_ns);
      if (e <= b) continue;
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) total += run_end - run_begin;
      run_begin = b;
      run_end = e;
      open = true;
    }
    if (open) total += run_end - run_begin;
    covered[i] = total;
  }
  return covered;
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it its children cover, summed over spans of that name.
inline std::vector<double> self_seconds(std::span<const Span> spans,
                                        std::size_t num_names) {
  const std::vector<std::int64_t> covered = covered_by_children(spans);
  std::vector<double> out(num_names, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name < num_names)
      out[spans[i].name] +=
          static_cast<double>(spans[i].duration_ns() - covered[i]) * 1e-9;
  return out;
}

/// Share of the wall time of all spans named `root` that their children
/// cover; 0 when no such span has positive duration.
inline double coverage_fraction(std::span<const Span> spans,
                                std::uint32_t root) {
  const std::vector<std::int64_t> covered = covered_by_children(spans);
  std::int64_t wall = 0, inside = 0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == root) {
      wall += spans[i].duration_ns();
      inside += covered[i];
    }
  return wall > 0 ? static_cast<double>(inside) / static_cast<double>(wall)
                  : 0.0;
}

}  // namespace perfbench
