#include "store/writer.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace ns {

StoreWriter::StoreWriter(TimeSeriesStore store, StoreWriterConfig config,
                         obs::Registry* registry)
    : store_(std::move(store)), config_(config) {
  obs::Registry& reg = registry ? *registry : obs::Registry::global();
  samples_written_counter_ = &reg.counter(
      "ns_store_samples_written_total", "Samples appended to the store");
  batches_dropped_counter_ = &reg.counter(
      "ns_store_batches_dropped_total",
      "Batches dropped by queue backpressure (oldest hand-off first) or a "
      "failed append");
  pages_sealed_counter_ =
      &reg.counter("ns_store_pages_sealed_total", "Pages sealed to disk");
  queue_depth_gauge_ =
      &reg.gauge("ns_store_queue_depth", "Hand-offs pending write right now");
  sealed_bytes_gauge_ = &reg.gauge("ns_store_sealed_bytes",
                                   "Bytes sealed on disk across all nodes");
  batch_write_hist_ = &reg.histogram(
      "ns_store_batch_write_seconds", "Store batch append latency in seconds",
      obs::default_latency_buckets());
  consumer_ = std::thread([this] { run(); });
}

StoreWriter::~StoreWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (consumer_.joinable()) consumer_.join();
  try {
    store_.flush();
  } catch (const std::exception& e) {
    NS_LOG_WARN("store writer: final flush failed: " << e.what());
  }
}

void StoreWriter::enqueue(std::vector<Batch> batches) {
  if (batches.empty()) return;
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    enqueued_ += batches.size();
    queue_.push_back(std::move(batches));
    while (config_.queue_capacity > 0 &&
           queue_.size() > config_.queue_capacity) {
      dropped += queue_.front().size();
      queue_.pop_front();
    }
    dropped_ += dropped;
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
  }
  if (dropped > 0) batches_dropped_counter_->inc(dropped);
  work_cv_.notify_one();
}

void StoreWriter::enqueue(Batch batch) {
  std::vector<Batch> handoff;
  handoff.push_back(std::move(batch));
  enqueue(std::move(handoff));
}

void StoreWriter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      // stop_ and nothing left: the destructor flushes after the join.
      idle_cv_.notify_all();
      return;
    }
    std::vector<Batch> handoff = std::move(queue_.front());
    queue_.pop_front();
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    busy_ = true;
    lock.unlock();
    // The store is touched unlocked: drain() cannot reach it while busy_,
    // and producers only touch the queue.
    write(handoff);
    lock.lock();
    busy_ = false;
    idle_cv_.notify_all();
    // Free the hand-off's samples unlocked: drain() need not wait for it.
    lock.unlock();
    handoff = {};
    lock.lock();
  }
}

void StoreWriter::write(std::vector<Batch>& handoff) {
  // One group per node, its batches in hand-off order. Groups touch
  // distinct store shards, so they run in parallel.
  std::vector<std::size_t> order(handoff.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return handoff[a].node < handoff[b].node;
                   });
  std::vector<std::size_t> group_begin;
  for (std::size_t i = 0; i < order.size(); ++i)
    if (i == 0 || handoff[order[i]].node != handoff[order[i - 1]].node)
      group_begin.push_back(i);
  group_begin.push_back(order.size());

  struct Outcome {
    std::uint64_t written = 0;
    std::uint64_t dropped = 0;
    std::exception_ptr error;
  };
  std::vector<Outcome> outcomes(group_begin.size() - 1);
  ThreadPool::global().parallel_for(
      0, outcomes.size(), 1, [&](std::size_t g) {
        Outcome& outcome = outcomes[g];
        for (std::size_t i = group_begin[g]; i < group_begin[g + 1]; ++i) {
          const Batch& batch = handoff[order[i]];
          Stopwatch sw;
          std::size_t appended = 0;
          try {
            for (const StoreSample& sample : batch.samples) {
              store_.append(batch.node, sample);
              ++appended;
            }
          } catch (...) {
            ++outcome.dropped;
            if (!outcome.error) outcome.error = std::current_exception();
          }
          batch_write_hist_->observe(sw.elapsed_s());
          outcome.written += appended;
        }
      });

  std::uint64_t written = 0, dropped = 0;
  std::exception_ptr error;
  for (const Outcome& outcome : outcomes) {
    written += outcome.written;
    dropped += outcome.dropped;
    if (!error) error = outcome.error;
  }
  samples_written_counter_->inc(written);
  if (dropped > 0) batches_dropped_counter_->inc(dropped);
  std::lock_guard<std::mutex> lock(mutex_);
  written_ += written;
  dropped_ += dropped;
  if (!first_error_) first_error_ = error;
}

void StoreWriter::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  // Consumer is idle and the queue is empty; holding the mutex keeps it
  // parked (it needs the lock to pick up new work), so the flush below is
  // the only store access.
  store_.flush();
  const std::uint64_t pages = store_.stats().pages_sealed;
  pages_sealed_counter_->inc(pages - pages_published_);
  pages_published_ = pages;
  sealed_bytes_gauge_->set(static_cast<double>(store_.sealed_bytes()));
  if (first_error_)
    std::rethrow_exception(std::exchange(first_error_, nullptr));
}

std::uint64_t StoreWriter::batches_enqueued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enqueued_;
}

std::uint64_t StoreWriter::batches_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::uint64_t StoreWriter::samples_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_;
}

}  // namespace ns
