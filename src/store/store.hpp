// Embedded time-series store (DESIGN.md §13): per-node segment files of
// CRC-framed, bit-packed pages (store/codec.hpp) with in-band anomaly and
// validity bits, ring retention, and an index-written-last commit
// discipline matching the checkpoint format.
//
// On-disk layout:
//   <dir>/index.bin            CRC-framed meta (written LAST on flush)
//   <dir>/node_<i>/seg_<seq>.nss   append-only page frames
//
// Crash consistency: every page lands as a self-validating frame (magic,
// header CRC, payload CRC); the index commits through the atomic framed
// writer only after the segment bytes are flushed. A reader therefore
// recovers the longest valid frame prefix of every segment file — a torn
// tail or bit flip ends that file's history instead of throwing past it —
// and a store whose index never landed is simply not a store yet.
// History is immutable: samples are appended in strictly increasing tick
// order per node and never rewritten; after a recovery, appends resume in
// a fresh segment file so repaired history is never overwritten.
//
// Threading: appends to *different* nodes may run concurrently — each
// node's shard (page builder, catalog, segment file, counters) is touched
// only by appends to that node. Appends to one node, flush(), and queries
// must not overlap (the async front that enforces this lives in
// store/writer.hpp). flush() publishes appended samples for querying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "store/codec.hpp"
#include "ts/mts.hpp"

namespace ns {

inline constexpr std::uint32_t kPageFrameMagic = 0x4750534E;  // "NSPG"
inline constexpr std::uint32_t kStoreIndexVersion = 1;
inline constexpr std::size_t kPageFrameHeaderSize = 40;

struct StoreConfig {
  /// Payload capacity per page; a page seals when the next sample would
  /// overflow it (one oversized row still gets its own page).
  std::size_t page_bytes = 4096;
  /// Pages per segment file; the file rolls over past this.
  std::size_t segment_pages = 64;
  /// Per-node ring retention: keep at most this many segment files, oldest
  /// deleted when a new one starts. 0 = unlimited.
  std::size_t retain_segments = 0;
};

/// Immutable dataset-level metadata carried by the index, enough to
/// rebuild an MtsDataset bit-identically (store/query.hpp): raw metric
/// schema, node names, cadence, and (optionally) the scheduler's job span
/// table — job ids also ride every sample in-band, but the explicit table
/// preserves the exact span boundaries segmentation keys on.
struct StoreMeta {
  std::vector<MetricMeta> metrics;
  std::vector<std::string> node_names;
  double interval_seconds = 15.0;
  std::vector<std::vector<JobSpan>> jobs;  ///< optional; [] = derive from rows
};

class TimeSeriesStore {
 public:
  /// One sealed page of one node: where it lives and what it covers.
  struct PageEntry {
    std::size_t seq = 0;         ///< segment file sequence number
    std::uint64_t offset = 0;    ///< frame offset within the segment file
    std::uint32_t payload_bytes = 0;
    std::uint32_t samples = 0;
    std::uint64_t first_t = 0;
    std::uint64_t last_t = 0;
  };

  /// Creates a fresh store in `directory` (created if missing; an existing
  /// index there is superseded). The store is not visible to open() until
  /// the first flush() commits the index.
  static TimeSeriesStore create(const std::string& directory, StoreMeta meta,
                                StoreConfig config = {});

  /// Opens an existing store: loads the index, then scans every segment
  /// file and recovers the longest valid frame prefix (torn tails and
  /// corrupt frames end that file's history — never an exception). Throws
  /// ns::ParseError when the index is missing or corrupt.
  static TimeSeriesStore open(const std::string& directory);

  TimeSeriesStore(TimeSeriesStore&&) = default;
  TimeSeriesStore& operator=(TimeSeriesStore&&) = default;

  /// Appends one sample of `node`; ticks must be strictly increasing per
  /// node. sample.values.size() must equal num_metrics(). Safe to call
  /// concurrently for distinct nodes.
  void append(std::size_t node, const StoreSample& sample);

  /// Seals open pages (every seal writes its frame straight to the
  /// segment file), then writes the index — last, through the atomic
  /// framed writer. After flush() every appended
  /// sample is durable and queryable.
  void flush();

  /// One mmap'd (or, when mmap is unavailable, heap-loaded) segment file.
  /// Shared so cursors pin the mapping they are decoding out of.
  struct SegmentData;

  /// Streams the sealed samples of `node` with first_t <= t < end_t in
  /// tick order. Requires flush() for samples still in open pages. The
  /// cursor maps one segment file at a time and holds it while it decodes
  /// pages out of it; the mapping is released when the cursor moves to
  /// another segment or finishes. The store keeps no mappings of its own,
  /// so reads never pin more than the cursors alive. A live cursor still
  /// pins its segment if ring retention deletes the file. The cursor must
  /// not outlive the store.
  class Cursor {
   public:
    bool next(StoreSample& out);

   private:
    friend class TimeSeriesStore;
    /// Ends the stream and releases the mapping.
    void finish();

    const TimeSeriesStore* store_ = nullptr;
    std::size_t node_ = 0;
    std::uint64_t begin_t_ = 0;
    std::uint64_t end_t_ = 0;
    std::size_t page_index_ = 0;
    std::size_t segment_seq_ = 0;  ///< seq of segment_, when set
    std::shared_ptr<const SegmentData> segment_;
    std::unique_ptr<PageReader> reader_;
  };

  Cursor range(std::size_t node, std::size_t first_t, std::size_t end_t) const;

  const StoreMeta& meta() const { return meta_; }
  const StoreConfig& config() const { return config_; }
  const std::string& directory() const { return dir_; }
  std::size_t num_nodes() const { return meta_.node_names.size(); }
  std::size_t num_metrics() const { return meta_.metrics.size(); }

  /// Sealed samples / pages / segment files of one node.
  std::size_t node_samples(std::size_t node) const;
  std::size_t node_pages(std::size_t node) const;
  std::size_t node_segments(std::size_t node) const;
  const std::vector<PageEntry>& node_catalog(std::size_t node) const;
  /// One past the newest sealed tick across all nodes (0 when empty).
  std::size_t end_tick() const;
  /// Oldest sealed tick of `node` after ring eviction (0 when empty).
  std::size_t node_first_tick(std::size_t node) const;
  /// Total sealed bytes on disk (frame headers + payloads), all nodes.
  std::uint64_t sealed_bytes() const;

  struct Stats {
    std::uint64_t samples_appended = 0;
    std::uint64_t pages_sealed = 0;
    std::uint64_t segments_started = 0;
    std::uint64_t segments_evicted = 0;
    std::uint64_t bytes_written = 0;
  };
  /// Write counters, summed over the per-node shards that keep them (so
  /// concurrent appends to distinct nodes share no counter). Not safe to
  /// call while appends are running.
  Stats stats() const;

 private:
  /// Cache-line aligned: appends to neighbouring nodes run on different
  /// threads and would otherwise false-share the per-row fields.
  struct alignas(64) Shard {
    std::unique_ptr<PageBuilder> builder;
    std::vector<PageEntry> pages;        ///< sealed, (seq, offset) order
    std::size_t first_seq = 0;
    std::size_t next_seq = 0;            ///< segment currently appended
    std::size_t pages_in_current = 0;
    std::uint64_t current_offset = 0;
    bool any_sealed = false;
    std::uint64_t last_t = 0;            ///< newest tick (sealed or open)
    bool any_t = false;
    Stats stats;                         ///< this node's share of stats()
  };

  TimeSeriesStore() = default;

  std::string node_dir(std::size_t node) const;
  std::string segment_path(std::size_t node, std::size_t seq) const;
  void seal_page(std::size_t node);
  void evict_segments(std::size_t node);
  void recover_node(std::size_t node);
  std::shared_ptr<const SegmentData> load_segment(std::size_t node,
                                                  std::size_t seq) const;

  std::string dir_;
  StoreMeta meta_;
  StoreConfig config_;
  std::vector<Shard> shards_;
};

}  // namespace ns
