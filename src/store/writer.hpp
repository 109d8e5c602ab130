// Async front of the time-series store: the ServeEngine (or any producer)
// hands over per-node sample batches; one consumer thread owns the store
// and seals each hand-off with the batches of different nodes appended in
// parallel on the process ThreadPool. A node's batches are always appended
// in the order they were handed over, and nodes never share a shard, so the
// segment files and index are byte-identical to serial appends of the same
// input at any pool size.
//
// The queue is bounded in *hand-offs* and drops its oldest hand-off past
// the cap — same backpressure discipline as the engine's scoring queue:
// stale history is worth less than stalling the collector loop. A producer
// that hands over all of its batches at once (ServeEngine::finalize) can
// therefore never lose one node's history to its own other nodes. A batch
// whose append fails (a non-increasing tick, a failed segment write) is
// counted as dropped, the other batches still land, and drain() rethrows
// the first such error. Drops, depth and write latency are exposed as
// ns_store_* instruments.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "store/store.hpp"

namespace ns {

struct StoreWriterConfig {
  /// Bound on queued hand-offs; past it the oldest hand-off is dropped.
  /// 0 = unbounded.
  std::size_t queue_capacity = 256;
};

class StoreWriter {
 public:
  /// Every sample of one node for one hand-off, ticks strictly increasing
  /// and ahead of everything already handed over for that node.
  struct Batch {
    std::size_t node = 0;
    std::vector<StoreSample> samples;
  };

  /// Takes ownership of `store`; `registry` null means the process-global
  /// obs registry. The consumer thread starts immediately.
  explicit StoreWriter(TimeSeriesStore store, StoreWriterConfig config = {},
                       obs::Registry* registry = nullptr);
  /// Drains the queue, flushes the store, and joins the consumer. Errors
  /// are logged, not thrown (destructors must not throw) — call drain()
  /// first when durability matters.
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Queues one hand-off holding every batch of `batches` (any nodes, a
  /// node's batches in tick order). Never blocks on I/O: past
  /// queue_capacity the oldest queued hand-off is dropped whole, its
  /// batches counted in ns_store_batches_dropped_total.
  void enqueue(std::vector<Batch> batches);
  /// A hand-off of one batch.
  void enqueue(Batch batch);

  /// Blocks until every queued hand-off is written, then flushes the store
  /// (seals pages, commits the index). After drain() the store is
  /// consistent on disk and safe to query through store(). Rethrows the
  /// first append error since the last drain(), after the flush.
  void drain();

  /// The underlying store. Only consistent between drain() (or
  /// construction) and the next enqueue() — the consumer thread owns the
  /// store while hand-offs are in flight.
  const TimeSeriesStore& store() const { return store_; }

  /// Batches handed over / dropped (by backpressure or a failed append) /
  /// samples appended. A batch that fails part-way keeps the samples
  /// appended before the failure, and they count as written.
  std::uint64_t batches_enqueued() const;
  std::uint64_t batches_dropped() const;
  std::uint64_t samples_written() const;

 private:
  void run();
  /// Appends one hand-off; runs on the consumer thread, store unlocked.
  void write(std::vector<Batch>& handoff);

  TimeSeriesStore store_;
  StoreWriterConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< producer -> consumer
  std::condition_variable idle_cv_;   ///< consumer -> drain()
  std::deque<std::vector<Batch>> queue_;
  bool busy_ = false;  ///< consumer is mid-hand-off (store in use, unlocked)
  bool stop_ = false;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t pages_published_ = 0;  ///< pages already counted into obs
  std::exception_ptr first_error_;     ///< rethrown by the next drain()

  obs::Counter* samples_written_counter_ = nullptr;
  obs::Counter* batches_dropped_counter_ = nullptr;
  obs::Counter* pages_sealed_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* sealed_bytes_gauge_ = nullptr;
  obs::Histogram* batch_write_hist_ = nullptr;

  std::thread consumer_;
};

}  // namespace ns
