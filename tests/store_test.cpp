// Embedded time-series store tests (DESIGN.md §13): codec round-trip
// property (bitwise, NaN payloads and in-band bits included), the
// word-level bit streams against a bit-at-a-time reference, pinned golden
// payload bytes, page capacity, segment/ring retention, index-written-last
// commit discipline, torn-write fuzz recovery at every frame boundary,
// writer backpressure, parallel sealing byte-identical to serial appends,
// append errors surfacing from drain(), and serve-path equivalence
// (replay == detect == store, plus warm restart from segments reproducing
// the CSV-restored detections bitwise).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fileio.hpp"
#include "core/nodesentry.hpp"
#include "io/dataset_io.hpp"
#include "serve/engine.hpp"
#include "serve/replay.hpp"
#include "sim/dataset_builder.hpp"
#include "store/query.hpp"
#include "store/writer.hpp"
#include "ts/quality.hpp"

namespace ns {
namespace fs = std::filesystem;
namespace {

std::string temp_dir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("ns_store_test_" + tag + "_" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

void expect_samples_equal(const StoreSample& got, const StoreSample& want,
                          const std::string& where) {
  ASSERT_EQ(got.t, want.t) << where;
  ASSERT_EQ(got.job_id, want.job_id) << where;
  ASSERT_EQ(got.anomaly, want.anomaly) << where;
  ASSERT_EQ(got.valid, want.valid) << where;
  ASSERT_EQ(got.values.size(), want.values.size()) << where;
  for (std::size_t m = 0; m < want.values.size(); ++m)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.values[m]),
              std::bit_cast<std::uint32_t>(want.values[m]))
        << where << " metric " << m;
}

/// Random trace shaped like real telemetry: constant columns, slow drifts,
/// NaN holes (with varying payload bits), irregular tick gaps, job
/// transitions, sparse anomaly/validity bits.
std::vector<StoreSample> random_trace(std::mt19937_64& rng, std::size_t rows,
                                      std::size_t num_metrics) {
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  std::uniform_int_distribution<int> gap(1, 7);
  std::vector<StoreSample> trace;
  trace.reserve(rows);
  std::size_t t = rng() % 1000;
  std::int64_t job = static_cast<std::int64_t>(rng() % 5) - 1;
  std::vector<float> level(num_metrics);
  for (float& v : level) v = unit(rng) * 100.0f;
  for (std::size_t r = 0; r < rows; ++r) {
    StoreSample sample;
    sample.t = t;
    t += unit(rng) < 0.8f ? 1 : static_cast<std::size_t>(gap(rng));
    if (unit(rng) < 0.05f) job = static_cast<std::int64_t>(rng() % 900) - 1;
    sample.job_id = job;
    sample.anomaly = unit(rng) < 0.03f;
    sample.valid = unit(rng) >= 0.02f;
    sample.values.resize(num_metrics);
    for (std::size_t m = 0; m < num_metrics; ++m) {
      const float roll = unit(rng);
      if (roll < 0.05f) {
        // NaN with a varying payload: bit preservation must survive it.
        sample.values[m] = std::bit_cast<float>(
            0x7FC00000u | static_cast<std::uint32_t>(rng() & 0xFFFFu));
      } else if (m % 3 == 0) {
        sample.values[m] = level[m];  // constant column
      } else if (roll < 0.7f) {
        sample.values[m] = level[m] + 1e-4f * unit(rng);  // near-duplicate
      } else {
        sample.values[m] = unit(rng) * 1e6f - 5e5f;
      }
    }
    trace.push_back(std::move(sample));
  }
  return trace;
}

// ------------------------------------------------------------------ codec

TEST(StoreCodec, BitStreamPrimitivesRoundTrip) {
  BitWriter w;
  w.write_bit(1);
  w.write_bits(0b1011010, 7);
  w.write_varint(0);
  w.write_varint(127);
  w.write_varint(300);
  w.write_varint(0xDEADBEEFCAFEull);
  const std::vector<std::uint8_t> bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.read_bit(), 1u);
  EXPECT_EQ(r.read_bits(7), 0b1011010u);
  EXPECT_EQ(r.read_varint(), 0u);
  EXPECT_EQ(r.read_varint(), 127u);
  EXPECT_EQ(r.read_varint(), 300u);
  EXPECT_EQ(r.read_varint(), 0xDEADBEEFCAFEull);
  EXPECT_THROW(r.read_bits(16), ParseError);  // past the end
}

TEST(StoreCodec, TruncateRollsBackCleanly) {
  BitWriter w;
  w.write_bits(0b101, 3);
  const std::size_t mark = w.bit_count();
  w.write_bits(0xFFFFFFFFu, 32);
  w.truncate(mark);
  w.write_bits(0b01, 2);  // must OR into zeroed tail bits
  const std::vector<std::uint8_t> bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(2), 0b01u);
}

/// The LSB-first bit stream spelled out one bit per step: the layout the
/// word-level BitWriter/BitReader must reproduce exactly.
struct ReferenceBitStream {
  std::vector<std::uint8_t> bytes;
  std::size_t bits = 0;

  void write_bits(std::uint64_t value, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if ((bits >> 3) >= bytes.size()) bytes.push_back(0);
      if ((value >> i) & 1u)
        bytes[bits >> 3] |= static_cast<std::uint8_t>(1u << (bits & 7));
      ++bits;
    }
  }
  void write_varint(std::uint64_t value) {
    while (value >= 0x80u) {
      write_bits((value & 0x7Fu) | 0x80u, 8);
      value >>= 7;
    }
    write_bits(value, 8);
  }
  void truncate(std::size_t position) {
    bits = position;
    bytes.resize((bits + 7) / 8);
    if (bits & 7)
      bytes.back() &= static_cast<std::uint8_t>((1u << (bits & 7)) - 1u);
  }
  std::uint64_t read_bits(std::size_t position, std::size_t count) const {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < count; ++i, ++position)
      value |= static_cast<std::uint64_t>(
                   (bytes[position >> 3] >> (position & 7)) & 1u)
               << i;
    return value;
  }
};

std::uint64_t low_bits(std::uint64_t value, std::size_t count) {
  return count < 64 ? value & ((std::uint64_t{1} << count) - 1) : value;
}

TEST(StoreCodec, WordBitStreamMatchesBitAtATimeReference) {
  std::mt19937_64 rng(20251019);
  // Every start offset within a byte x every width, with a write after it
  // to catch bits that spill past the field.
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t count = 0; count <= 64; ++count) {
      const std::string where =
          "start " + std::to_string(start) + " count " + std::to_string(count);
      const std::uint64_t head = rng(), value = rng(), tail = rng();
      BitWriter w;
      ReferenceBitStream ref;
      w.write_bits(head, start);
      ref.write_bits(head, start);
      w.write_bits(value, count);
      ref.write_bits(value, count);
      w.write_bits(tail, 13);
      ref.write_bits(tail, 13);
      ASSERT_EQ(w.bit_count(), ref.bits) << where;
      ASSERT_EQ(w.byte_count(), ref.bytes.size()) << where;
      const std::vector<std::uint8_t> bytes = w.take();
      ASSERT_EQ(bytes, ref.bytes) << where;
      EXPECT_EQ(w.bit_count(), 0u) << where;

      BitReader r(bytes);
      EXPECT_EQ(r.read_bits(start), low_bits(head, start)) << where;
      EXPECT_EQ(r.read_bits(count), low_bits(value, count)) << where;
      EXPECT_EQ(r.read_bits(13), low_bits(tail, 13)) << where;
      // The byte padding reads as zeros; one bit more runs past the end.
      const std::size_t left = bytes.size() * 8 - r.bits_consumed();
      EXPECT_EQ(r.read_bits(left), 0u) << where;
      EXPECT_THROW(r.read_bits(1), ParseError) << where;
      EXPECT_THROW(r.read_bit(), ParseError) << where;
      EXPECT_EQ(r.read_bits(0), 0u) << where;
    }
  }

  // Random write / varint / truncate sequences, read back in random widths
  // from every kind of position, including reads that overrun the end.
  for (std::size_t trial = 0; trial < 300; ++trial) {
    BitWriter w;
    ReferenceBitStream ref;
    const std::size_t ops = 1 + rng() % 40;
    for (std::size_t op = 0; op < ops; ++op) {
      const std::size_t roll = rng() % 10;
      if (roll < 6) {
        const std::uint64_t value = rng();
        const std::size_t count = rng() % 65;
        w.write_bits(value, count);
        ref.write_bits(value, count);
      } else if (roll < 7) {
        const std::uint32_t bit = static_cast<std::uint32_t>(rng());
        w.write_bit(bit);
        ref.write_bits(bit & 1u, 1);
      } else if (roll < 8) {
        const std::uint64_t value = rng() >> (rng() % 64);
        w.write_varint(value);
        ref.write_varint(value);
      } else {
        const std::size_t position = ref.bits == 0 ? 0 : rng() % (ref.bits + 1);
        w.truncate(position);
        ref.truncate(position);
      }
      ASSERT_EQ(w.bit_count(), ref.bits) << "trial " << trial << " op " << op;
    }
    const std::vector<std::uint8_t> bytes = w.take();
    ASSERT_EQ(bytes, ref.bytes) << "trial " << trial;

    const std::size_t end = bytes.size() * 8;
    BitReader r(bytes);
    while (r.bits_consumed() < end) {
      const std::size_t pos = r.bits_consumed();
      const std::size_t count = rng() % 65;
      if (count > end - pos) {
        EXPECT_THROW(r.read_bits(count), ParseError) << "trial " << trial;
        break;
      }
      ASSERT_EQ(r.read_bits(count), ref.read_bits(pos, count))
          << "trial " << trial << " pos " << pos << " count " << count;
    }
  }
}

TEST(StoreCodec, RoundTripPropertyBitwise) {
  std::mt19937_64 rng(20250809);
  for (std::size_t trial = 0; trial < 30; ++trial) {
    const std::size_t num_metrics = 1 + rng() % 8;
    const std::size_t rows = 1 + rng() % 200;
    const std::vector<StoreSample> trace = random_trace(rng, rows, num_metrics);
    PageBuilder builder(num_metrics, 1 << 20);
    for (const StoreSample& sample : trace)
      ASSERT_TRUE(builder.append(sample));
    ASSERT_EQ(builder.samples(), rows);
    EXPECT_EQ(builder.first_tick(), trace.front().t);
    EXPECT_EQ(builder.last_tick(), trace.back().t);
    const std::vector<std::uint8_t> payload = builder.finish();
    PageReader reader(payload, num_metrics, rows);
    StoreSample out;
    for (std::size_t r = 0; r < rows; ++r) {
      ASSERT_TRUE(reader.next(out));
      expect_samples_equal(out, trace[r],
                           "trial " + std::to_string(trial) + " row " +
                               std::to_string(r));
    }
    EXPECT_FALSE(reader.next(out));
  }
}

TEST(StoreCodec, SteadyTraceCompressesHard) {
  // Regular cadence + constant values: dod and XOR both hit their 1-bit
  // paths, so a row costs ~(4 + M) bits.
  const std::size_t M = 8;
  PageBuilder builder(M, 1 << 20);
  StoreSample sample;
  sample.values.assign(M, 42.5f);
  sample.job_id = 17;
  for (std::size_t t = 0; t < 500; ++t) {
    sample.t = t;
    ASSERT_TRUE(builder.append(sample));
  }
  const std::vector<std::uint8_t> payload = builder.finish();
  // Raw would be 500 * 8 * 4 = 16000 bytes; in-band coding should land
  // near 500 * 12 bits = 750 bytes.
  EXPECT_LT(payload.size(), 1200u);
}

TEST(StoreCodec, CapacityRejectsWithoutSideEffects) {
  const std::size_t M = 4;
  PageBuilder builder(M, 48);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  StoreSample sample;
  sample.values.resize(M);
  std::size_t t = 0;
  std::vector<StoreSample> accepted;
  while (true) {
    sample.t = t++;
    for (float& v : sample.values) v = unit(rng);
    if (!builder.append(sample)) break;
    accepted.push_back(sample);
    ASSERT_LT(accepted.size(), 1000u) << "page never filled";
  }
  ASSERT_GE(accepted.size(), 1u);  // a page always takes one sample
  EXPECT_LE(builder.payload_bytes(), 48u);
  EXPECT_EQ(builder.samples(), accepted.size());
  // The rejected row left no trace: the accepted prefix decodes intact.
  const std::vector<std::uint8_t> payload = builder.finish();
  PageReader reader(payload, M, accepted.size());
  StoreSample out;
  for (std::size_t r = 0; r < accepted.size(); ++r) {
    ASSERT_TRUE(reader.next(out));
    expect_samples_equal(out, accepted[r], "row " + std::to_string(r));
  }
}

// A rejected row must not leak into the rows appended after it on the same
// page: the page comes out byte-identical to one that never saw it.
TEST(StoreCodec, RejectedRowLeavesNoTraceInLaterRows) {
  const std::size_t M = 4;
  StoreSample first, small, big;
  first.t = 100;
  first.job_id = 3;
  first.values = {1.5f, -2.25f, 1e6f, 0.125f};
  small = first;
  small.t = 101;
  small.values[1] = -2.5f;
  big.t = 100 + (std::size_t{1} << 40);  // raw 64-bit tick bucket
  big.job_id = -77;
  big.values = {std::bit_cast<float>(0x7FC01234u), 3e-7f, -9e9f, 42.0f};

  PageBuilder reference(M, 1 << 20);
  ASSERT_TRUE(reference.append(first));
  ASSERT_TRUE(reference.append(small));
  const std::vector<std::uint8_t> want = reference.finish();

  PageBuilder page(M, want.size());
  ASSERT_TRUE(page.append(first));
  ASSERT_FALSE(page.append(big));
  ASSERT_TRUE(page.append(small));
  EXPECT_EQ(page.finish(), want);
}

/// Fixed trace that reaches every branch of the row encoder: all five
/// delta-of-delta buckets in both signs, job changes up and down, NaN
/// cells with varying payloads, and XOR rows that are zero, reuse the
/// previous window, or open a new one.
std::vector<StoreSample> golden_trace() {
  constexpr std::size_t kMetrics = 6;
  std::mt19937_64 rng(20251018);
  // Tick gaps: steady runs between jumps into each dod bucket and back.
  const std::size_t kGaps[] = {1,  1,    1, 50,     1, 1, 1500, 1,
                               15, 15,   15, 400000, 1, 2, 3000000,
                               1,  1,    4, 2,      1, 1, 70,   1};
  std::vector<StoreSample> trace;
  std::size_t t = 1000;
  std::int64_t job = 7;
  float drift = 12.5f;
  for (std::size_t r = 0; r < 300; ++r) {
    StoreSample sample;
    sample.t = t;
    t += r < std::size(kGaps) ? kGaps[r] : 1 + rng() % 3;
    if (r % 23 == 22) job = (r % 2 == 0) ? job + 1 : job - 5000;
    sample.job_id = job;
    sample.anomaly = rng() % 11 == 0;
    sample.valid = rng() % 13 != 0;
    sample.values.resize(kMetrics);
    drift += 1.0f / 1024.0f;
    sample.values[0] = 3.0f;                               // constant
    sample.values[1] = drift;                              // window reuse
    sample.values[2] = std::bit_cast<float>(               // new windows
        static_cast<std::uint32_t>(rng()));
    sample.values[3] =                                     // NaN payloads
        r % 5 == 0 ? std::bit_cast<float>(0x7FC00000u |
                                          static_cast<std::uint32_t>(r))
                   : static_cast<float>(r);
    sample.values[4] = (r / 3) % 2 == 0 ? -1.5f : 1.5f;    // sign flips
    sample.values[5] = static_cast<float>(r * r);          // counter
    trace.push_back(std::move(sample));
  }
  return trace;
}

// Pins the payload bytes the codec produced when the store format was
// fixed: a faster encoder must reproduce them exactly, or existing
// segment files stop decoding the same.
TEST(StoreCodec, GoldenPayloadBytesArePinned) {
  const std::vector<StoreSample> trace = golden_trace();
  // One page holding the whole trace.
  PageBuilder whole(trace.front().values.size(), 1 << 20);
  for (const StoreSample& sample : trace) ASSERT_TRUE(whole.append(sample));
  const std::vector<std::uint8_t> payload = whole.finish();
  EXPECT_EQ(payload.size(), 3966u);
  EXPECT_EQ(crc32(payload.data(), payload.size()), 3905184077u);

  // Small pages: every page ends in a rejected, rolled-back row.
  PageBuilder small(trace.front().values.size(), 96);
  std::uint32_t crc = 0;
  std::size_t pages = 0, bytes = 0;
  auto seal = [&] {
    const std::vector<std::uint8_t> page = small.finish();
    crc = crc32(page.data(), page.size(), crc);
    bytes += page.size();
    ++pages;
  };
  for (const StoreSample& sample : trace) {
    if (small.append(sample)) continue;
    seal();
    ASSERT_TRUE(small.append(sample));
  }
  seal();
  EXPECT_EQ(pages, 60u);
  EXPECT_EQ(bytes, 5313u);
  EXPECT_EQ(crc, 556144878u);
}

// ------------------------------------------------------------------ store

StoreMeta small_meta(std::size_t nodes, std::size_t metrics) {
  StoreMeta meta;
  meta.metrics.resize(metrics);
  for (std::size_t m = 0; m < metrics; ++m)
    meta.metrics[m].name = "metric_" + std::to_string(m);
  for (std::size_t n = 0; n < nodes; ++n)
    meta.node_names.push_back("node" + std::to_string(n));
  return meta;
}

TEST(StoreFiles, RoundTripAcrossReopen) {
  const std::string dir = temp_dir("roundtrip");
  std::mt19937_64 rng(42);
  std::vector<std::vector<StoreSample>> traces;
  {
    TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(2, 5),
                                                    StoreConfig{256, 4, 0});
    for (std::size_t n = 0; n < 2; ++n) {
      traces.push_back(random_trace(rng, 300, 5));
      for (const StoreSample& sample : traces[n]) store.append(n, sample);
    }
    store.flush();
    EXPECT_GT(store.node_segments(0), 1u);  // rollover exercised
  }
  TimeSeriesStore store = TimeSeriesStore::open(dir);
  ASSERT_EQ(store.num_nodes(), 2u);
  ASSERT_EQ(store.num_metrics(), 5u);
  EXPECT_EQ(store.meta().metrics[3].name, "metric_3");
  for (std::size_t n = 0; n < 2; ++n) {
    ASSERT_EQ(store.node_samples(n), traces[n].size());
    TimeSeriesStore::Cursor cursor =
        store.range(n, 0, traces[n].back().t + 1);
    StoreSample out;
    for (std::size_t r = 0; r < traces[n].size(); ++r) {
      ASSERT_TRUE(cursor.next(out));
      expect_samples_equal(out, traces[n][r],
                           "node " + std::to_string(n) + " row " +
                               std::to_string(r));
    }
    EXPECT_FALSE(cursor.next(out));
  }
  fs::remove_all(dir);
}

TEST(StoreFiles, RangeQueryPrunesToExactTicks) {
  const std::string dir = temp_dir("range");
  TimeSeriesStore store =
      TimeSeriesStore::create(dir, small_meta(1, 2), StoreConfig{96, 64, 0});
  StoreSample sample;
  sample.values.assign(2, 0.0f);
  for (std::size_t t = 10; t < 400; t += 3) {  // ticks 10, 13, ..., 397
    sample.t = t;
    sample.values[0] = static_cast<float>(t);
    store.append(0, sample);
  }
  store.flush();
  EXPECT_GT(store.node_pages(0), 1u);
  TimeSeriesStore::Cursor cursor = store.range(0, 100, 200);
  StoreSample out;
  std::size_t expect_t = 100;  // first stored tick >= 100 is 100? 10+3k
  while (expect_t % 3 != 1) ++expect_t;  // ticks are 10 + 3k => t % 3 == 1
  std::size_t count = 0;
  while (cursor.next(out)) {
    EXPECT_GE(out.t, 100u);
    EXPECT_LT(out.t, 200u);
    EXPECT_EQ(out.values[0], static_cast<float>(out.t));
    ++count;
  }
  std::size_t want = 0;
  for (std::size_t t = 10; t < 400; t += 3)
    if (t >= 100 && t < 200) ++want;
  EXPECT_EQ(count, want);
  // Empty and out-of-range windows.
  EXPECT_FALSE(store.range(0, 0, 10).next(out));
  EXPECT_FALSE(store.range(0, 398, 10000).next(out));
  fs::remove_all(dir);
}

TEST(StoreFiles, IndexCommitsLast) {
  const std::string dir = temp_dir("commit");
  {
    TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(1, 2));
    StoreSample sample;
    sample.t = 0;
    sample.values.assign(2, 1.0f);
    store.append(0, sample);
    // No flush: segment bytes may exist, but the commit point (index)
    // never landed — this store does not exist yet.
  }
  EXPECT_THROW(TimeSeriesStore::open(dir), ParseError);
  {
    TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(1, 2));
    StoreSample sample;
    sample.t = 0;
    sample.values.assign(2, 1.0f);
    store.append(0, sample);
    store.flush();
  }
  EXPECT_NO_THROW(TimeSeriesStore::open(dir));
  fs::remove_all(dir);
}

TEST(StoreFiles, RingRetentionEvictsOldestSegments) {
  const std::string dir = temp_dir("ring");
  TimeSeriesStore store = TimeSeriesStore::create(
      dir, small_meta(1, 2), StoreConfig{64, 2, /*retain_segments=*/3});
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  StoreSample sample;
  sample.values.resize(2);
  for (std::size_t t = 0; t < 2000; ++t) {
    sample.t = t;
    for (float& v : sample.values) v = unit(rng);
    store.append(0, sample);
  }
  store.flush();
  EXPECT_GT(store.stats().segments_evicted, 0u);
  EXPECT_LE(store.node_segments(0), 3u);
  EXPECT_GT(store.node_first_tick(0), 0u);
  // On disk too: only the retained files remain.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(fs::path(dir) / "node_0"))
    files += entry.is_regular_file();
  EXPECT_LE(files, 3u);
  // The survivors still read back contiguously.
  TimeSeriesStore reopened = TimeSeriesStore::open(dir);
  std::size_t count = 0;
  std::size_t prev = 0;
  bool any = false;
  TimeSeriesStore::Cursor cursor = reopened.range(0, 0, 2000);
  StoreSample out;
  while (cursor.next(out)) {
    if (any) {
      EXPECT_EQ(out.t, prev + 1);
    }
    prev = out.t;
    any = true;
    ++count;
  }
  EXPECT_EQ(count, reopened.node_samples(0));
  fs::remove_all(dir);
}

std::size_t open_descriptors() {
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

// A segment file is open only while one page is written to it, so a store
// with more nodes than the descriptor limit still seals every node.
TEST(StoreFiles, OpenDescriptorsDoNotGrowWithNodeCount) {
  if (!fs::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd";
  }
  constexpr std::size_t kNodes = 1500;
  const std::string dir = temp_dir("descriptors");
  TimeSeriesStore store = TimeSeriesStore::create(
      dir, small_meta(kNodes, 2), StoreConfig{64, 64, 0});
  const std::size_t before = open_descriptors();
  StoreSample sample;
  sample.values.resize(2);
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t t = 0; store.node_pages(n) == 0; ++t) {
      sample.t = t;
      sample.values[0] = static_cast<float>(t * 7 + n);
      sample.values[1] = static_cast<float>(n) - static_cast<float>(t);
      store.append(n, sample);
    }
    ASSERT_EQ(store.node_pages(n), 1u) << "node " << n;
  }
  EXPECT_LE(open_descriptors(), before)
      << "open descriptors grew while " << kNodes << " nodes sealed a page";
  store.flush();
  EXPECT_LE(open_descriptors(), before);
  fs::remove_all(dir);
}

// The store keeps no mappings of its own, but a live cursor holds the one
// it decodes from: deleting the file under it (what ring retention does)
// must not cut the read short.
TEST(StoreFiles, LiveCursorPinsItsSegmentAcrossDeletion) {
  const std::string dir = temp_dir("pin");
  TimeSeriesStore store = TimeSeriesStore::create(
      dir, small_meta(1, 2), StoreConfig{64, 4, 0});
  StoreSample sample;
  sample.values.resize(2);
  for (std::size_t t = 0; t < 400; ++t) {
    sample.t = t;
    sample.values = {static_cast<float>(t), static_cast<float>(t * 7 % 13)};
    store.append(0, sample);
  }
  store.flush();
  const auto& catalog = store.node_catalog(0);
  ASSERT_GT(store.node_segments(0), 1u);
  std::size_t first_segment_samples = 0;
  std::size_t end_t = 0;
  for (const auto& page : catalog)
    if (page.seq == catalog.front().seq) {
      first_segment_samples += page.samples;
      end_t = static_cast<std::size_t>(page.last_t) + 1;
    }

  TimeSeriesStore::Cursor cursor = store.range(0, 0, end_t);
  StoreSample out;
  ASSERT_TRUE(cursor.next(out));
  fs::remove(fs::path(dir) / "node_0" / "seg_000000.nss");
  std::size_t count = 1;
  while (cursor.next(out)) {
    EXPECT_EQ(out.t, count);
    ++count;
  }
  EXPECT_EQ(count, first_segment_samples);
  fs::remove_all(dir);
}

// --------------------------------------------------------- crash recovery

/// Writes a one-node store with several frames in one segment file and
/// returns the sealed page catalog (offset/size per frame).
std::vector<TimeSeriesStore::PageEntry> build_torn_target(
    const std::string& dir, std::vector<StoreSample>* trace_out) {
  std::mt19937_64 rng(99);
  TimeSeriesStore store = TimeSeriesStore::create(
      dir, small_meta(1, 4), StoreConfig{128, 64, 0});
  *trace_out = random_trace(rng, 400, 4);
  for (const StoreSample& sample : *trace_out) store.append(0, sample);
  store.flush();
  return store.node_catalog(0);
}

TEST(StoreChaos, TornWriteRecoversLongestValidPrefixAtEveryBoundary) {
  const std::string dir = temp_dir("torn");
  std::vector<StoreSample> trace;
  const std::vector<TimeSeriesStore::PageEntry> catalog =
      build_torn_target(dir, &trace);
  ASSERT_GT(catalog.size(), 4u);
  const std::string seg = (fs::path(dir) / "node_0" / "seg_000000.nss").string();
  const std::uintmax_t full_size = fs::file_size(seg);

  // Truncate at every frame boundary, descending, and at ragged offsets
  // inside the torn frame (header-only, half the header, half the
  // payload). The reader must recover exactly the frames before the cut —
  // never throw, never read past garbage.
  for (std::size_t k = catalog.size(); k-- > 0;) {
    const std::uint64_t boundary = catalog[k].offset;
    std::size_t want = 0;
    for (std::size_t p = 0; p < k; ++p) want += catalog[p].samples;
    for (const std::uint64_t cut :
         {boundary + kPageFrameHeaderSize + catalog[k].payload_bytes / 2,
          boundary + kPageFrameHeaderSize, boundary + 7, boundary}) {
      if (cut >= full_size) continue;
      const std::uint64_t prev_size = fs::file_size(seg);
      if (cut > prev_size) continue;
      fs::resize_file(seg, cut);
      TimeSeriesStore store = TimeSeriesStore::open(dir);
      // A cut inside frame k keeps frames [0, k); only the boundary cut
      // at exactly catalog[k].offset also drops frame k itself.
      const std::size_t recovered =
          cut > boundary ? want + (cut >= boundary + kPageFrameHeaderSize +
                                             catalog[k].payload_bytes
                                       ? catalog[k].samples
                                       : 0)
                         : want;
      ASSERT_EQ(store.node_samples(0), recovered) << "cut at " << cut;
      TimeSeriesStore::Cursor cursor = store.range(0, 0, trace.back().t + 1);
      StoreSample out;
      for (std::size_t r = 0; r < recovered; ++r) {
        ASSERT_TRUE(cursor.next(out)) << "cut " << cut << " row " << r;
        expect_samples_equal(out, trace[r], "cut " + std::to_string(cut));
      }
      EXPECT_FALSE(cursor.next(out));
    }
  }
  fs::remove_all(dir);
}

TEST(StoreChaos, CorruptFrameEndsThatFilesHistory) {
  const std::string dir = temp_dir("flip");
  std::vector<StoreSample> trace;
  const std::vector<TimeSeriesStore::PageEntry> catalog =
      build_torn_target(dir, &trace);
  ASSERT_GT(catalog.size(), 2u);
  const std::string seg = (fs::path(dir) / "node_0" / "seg_000000.nss").string();
  // Flip one payload byte of the second frame: its CRC fails, so recovery
  // keeps frame 0 only (frames after a bad frame are unreachable — the
  // stream cannot be trusted past the corruption).
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(catalog[1].offset +
                                        kPageFrameHeaderSize + 3));
    char byte = 0;
    f.seekg(f.tellp());
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(catalog[1].offset +
                                        kPageFrameHeaderSize + 3));
    f.write(&byte, 1);
  }
  TimeSeriesStore store = TimeSeriesStore::open(dir);
  EXPECT_EQ(store.node_samples(0), catalog[0].samples);
  fs::remove_all(dir);
}

TEST(StoreChaos, AppendsAfterRecoveryLandInFreshSegment) {
  const std::string dir = temp_dir("recover_append");
  std::vector<StoreSample> trace;
  const std::vector<TimeSeriesStore::PageEntry> catalog =
      build_torn_target(dir, &trace);
  const std::string seg = (fs::path(dir) / "node_0" / "seg_000000.nss").string();
  // Tear mid-way through the last frame.
  const TimeSeriesStore::PageEntry& last = catalog.back();
  fs::resize_file(seg, last.offset + kPageFrameHeaderSize + 1);
  std::size_t recovered = 0;
  for (std::size_t p = 0; p + 1 < catalog.size(); ++p)
    recovered += catalog[p].samples;

  TimeSeriesStore store = TimeSeriesStore::open(dir);
  ASSERT_EQ(store.node_samples(0), recovered);
  // Repaired history is immutable: new samples go to a fresh segment file,
  // never appended behind the torn tail.
  StoreSample sample;
  sample.t = trace.back().t + 100;
  sample.values.assign(4, 3.25f);
  store.append(0, sample);
  store.flush();
  EXPECT_TRUE(fs::exists(fs::path(dir) / "node_0" / "seg_000001.nss"));

  TimeSeriesStore reopened = TimeSeriesStore::open(dir);
  EXPECT_EQ(reopened.node_samples(0), recovered + 1);
  TimeSeriesStore::Cursor cursor =
      reopened.range(0, sample.t, sample.t + 1);
  StoreSample out;
  ASSERT_TRUE(cursor.next(out));
  expect_samples_equal(out, sample, "post-recovery append");
  fs::remove_all(dir);
}

// ----------------------------------------------------------------- writer

TEST(StoreWriterTest, WritesEverythingAndDrainsDurably) {
  const std::string dir = temp_dir("writer");
  obs::Registry registry;
  {
    StoreWriter writer(TimeSeriesStore::create(dir, small_meta(2, 3)),
                       StoreWriterConfig{0}, &registry);
    std::mt19937_64 rng(1);
    std::vector<std::vector<StoreSample>> traces;
    for (std::size_t n = 0; n < 2; ++n) {
      traces.push_back(random_trace(rng, 150, 3));
      for (std::size_t base = 0; base < 150; base += 50) {
        StoreWriter::Batch batch;
        batch.node = n;
        batch.samples.assign(
            traces[n].begin() + static_cast<std::ptrdiff_t>(base),
            traces[n].begin() + static_cast<std::ptrdiff_t>(base + 50));
        writer.enqueue(std::move(batch));
      }
    }
    writer.drain();
    EXPECT_EQ(writer.batches_enqueued(), 6u);
    EXPECT_EQ(writer.batches_dropped(), 0u);
    EXPECT_EQ(writer.samples_written(), 300u);
    for (std::size_t n = 0; n < 2; ++n)
      EXPECT_EQ(writer.store().node_samples(n), 150u);
  }
  // The drain made it durable: a fresh open sees every sample.
  TimeSeriesStore reopened = TimeSeriesStore::open(dir);
  EXPECT_EQ(reopened.node_samples(0) + reopened.node_samples(1), 300u);
  fs::remove_all(dir);
}

TEST(StoreWriterTest, BackpressureDropsOldestAndKeepsTicksMonotonic) {
  const std::string dir = temp_dir("writer_drop");
  obs::Registry registry;
  {
    StoreWriter writer(TimeSeriesStore::create(dir, small_meta(1, 2)),
                       StoreWriterConfig{/*queue_capacity=*/2}, &registry);
    StoreSample sample;
    sample.values.assign(2, 1.0f);
    for (std::size_t b = 0; b < 64; ++b) {
      StoreWriter::Batch batch;
      batch.node = 0;
      for (std::size_t i = 0; i < 32; ++i) {
        sample.t = b * 32 + i;
        batch.samples.push_back(sample);
      }
      writer.enqueue(std::move(batch));
    }
    // Drop-oldest keeps surviving batches in tick order, so appends never
    // violate the store's strictly-increasing contract (drain would throw).
    writer.drain();
    EXPECT_EQ(writer.batches_enqueued(), 64u);
    EXPECT_EQ(writer.samples_written() / 32 + writer.batches_dropped(), 64u);
    EXPECT_EQ(writer.store().node_samples(0), writer.samples_written());
    const auto entries = registry.entries();
    bool saw_written = false;
    for (const auto& entry : entries)
      if (entry.name == "ns_store_samples_written_total") {
        saw_written = true;
        EXPECT_EQ(entry.counter->value(), writer.samples_written());
      }
    EXPECT_TRUE(saw_written);
  }
  fs::remove_all(dir);
}

TEST(StoreWriterTest, ConcurrentProducersOnDistinctNodes) {
  const std::string dir = temp_dir("writer_mt");
  obs::Registry registry;
  {
    StoreWriter writer(TimeSeriesStore::create(dir, small_meta(4, 2)),
                       StoreWriterConfig{0}, &registry);
    std::vector<std::thread> producers;
    for (std::size_t n = 0; n < 4; ++n) {
      producers.emplace_back([&writer, n] {
        StoreSample sample;
        sample.values.assign(2, static_cast<float>(n));
        for (std::size_t b = 0; b < 20; ++b) {
          StoreWriter::Batch batch;
          batch.node = n;
          for (std::size_t i = 0; i < 25; ++i) {
            sample.t = b * 25 + i;
            batch.samples.push_back(sample);
          }
          writer.enqueue(std::move(batch));
        }
      });
    }
    for (std::thread& thread : producers) thread.join();
    writer.drain();
    EXPECT_EQ(writer.samples_written(), 4u * 20u * 25u);
    for (std::size_t n = 0; n < 4; ++n)
      EXPECT_EQ(writer.store().node_samples(n), 500u);
  }
  fs::remove_all(dir);
}

/// Every file under `dir` (relative path -> bytes).
std::map<std::string, std::string> read_tree(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[fs::relative(entry.path(), dir).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

TEST(StoreWriterTest, ParallelSealingIsByteIdenticalToSerialAppends) {
  constexpr std::size_t kNodes = 72, kMetrics = 5, kChunks = 3;
  StoreConfig config;
  config.page_bytes = 256;      // many pages per node
  config.segment_pages = 3;     // several segment files per node
  config.retain_segments = 4;   // and ring eviction while sealing
  std::mt19937_64 rng(20251020);
  std::vector<std::vector<StoreSample>> traces;
  for (std::size_t n = 0; n < kNodes; ++n)
    traces.push_back(random_trace(rng, 90 + 7 * (n % 11), kMetrics));
  auto chunk = [&](std::size_t n, std::size_t c) {
    const std::size_t rows = traces[n].size();
    return std::vector<StoreSample>(
        traces[n].begin() + static_cast<std::ptrdiff_t>(rows * c / kChunks),
        traces[n].begin() +
            static_cast<std::ptrdiff_t>(rows * (c + 1) / kChunks));
  };

  const std::string serial_dir = temp_dir("serial");
  {
    TimeSeriesStore store =
        TimeSeriesStore::create(serial_dir, small_meta(kNodes, kMetrics),
                                config);
    for (std::size_t c = 0; c < kChunks; ++c)
      for (std::size_t n = 0; n < kNodes; ++n)
        for (const StoreSample& sample : chunk(n, c)) store.append(n, sample);
    store.flush();
  }

  const std::string parallel_dir = temp_dir("parallel");
  obs::Registry registry;
  {
    StoreWriter writer(
        TimeSeriesStore::create(parallel_dir, small_meta(kNodes, kMetrics),
                                config),
        StoreWriterConfig{0}, &registry);
    // Hand-off 0 carries chunk 0 of every node in shuffled node order;
    // hand-off 1 carries chunks 1 *and* 2, so a node's two batches ride
    // one hand-off and must land in order.
    std::vector<std::size_t> nodes(kNodes);
    std::iota(nodes.begin(), nodes.end(), std::size_t{0});
    std::shuffle(nodes.begin(), nodes.end(), rng);
    std::vector<StoreWriter::Batch> first, second;
    for (const std::size_t n : nodes) first.push_back({n, chunk(n, 0)});
    std::shuffle(nodes.begin(), nodes.end(), rng);
    for (const std::size_t n : nodes) second.push_back({n, chunk(n, 1)});
    for (const std::size_t n : nodes) second.push_back({n, chunk(n, 2)});
    writer.enqueue(std::move(first));
    writer.enqueue(std::move(second));
    writer.drain();
    EXPECT_EQ(writer.batches_enqueued(), kNodes * kChunks);
    EXPECT_EQ(writer.batches_dropped(), 0u);
  }

  const auto serial = read_tree(serial_dir);
  const auto parallel = read_tree(parallel_dir);
  ASSERT_GT(serial.size(), kNodes);  // index + several segments per node
  ASSERT_TRUE(serial.count("index.bin"));
  EXPECT_EQ(parallel.size(), serial.size());
  for (const auto& [path, bytes] : serial) {
    const auto it = parallel.find(path);
    ASSERT_NE(it, parallel.end()) << path;
    EXPECT_TRUE(it->second == bytes) << path << " differs";
  }
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);
}

TEST(StoreWriterTest, FailedAppendSurfacesFromDrainAndSparesOtherBatches) {
  const std::string dir = temp_dir("writer_error");
  obs::Registry registry;
  {
    StoreWriter writer(TimeSeriesStore::create(dir, small_meta(2, 2)),
                       StoreWriterConfig{0}, &registry);
    auto batch = [](std::size_t node, std::size_t t0, std::size_t rows) {
      StoreWriter::Batch b;
      b.node = node;
      StoreSample sample;
      sample.values.assign(2, 0.5f);
      for (std::size_t i = 0; i < rows; ++i) {
        sample.t = t0 + i;
        b.samples.push_back(sample);
      }
      return b;
    };
    writer.enqueue(batch(0, 0, 50));
    // The bad batch rewinds node 0's ticks; node 1 rides the same hand-off.
    std::vector<StoreWriter::Batch> middle;
    middle.push_back(batch(0, 10, 5));
    middle.push_back(batch(1, 0, 30));
    writer.enqueue(std::move(middle));
    writer.enqueue(batch(0, 50, 50));
    EXPECT_THROW(writer.drain(), Error);
    EXPECT_EQ(writer.batches_enqueued(), 4u);
    EXPECT_EQ(writer.batches_dropped(), 1u);
    EXPECT_EQ(writer.samples_written(), 130u);
    EXPECT_EQ(writer.store().node_samples(0), 100u);
    EXPECT_EQ(writer.store().node_samples(1), 30u);
    // The error was reported once; the writer keeps working.
    writer.enqueue(batch(1, 30, 10));
    EXPECT_NO_THROW(writer.drain());
    EXPECT_EQ(writer.store().node_samples(1), 40u);
    for (const auto& entry : registry.entries()) {
      if (entry.name == "ns_store_batches_dropped_total") {
        EXPECT_EQ(entry.counter->value(), 1u);
      }
    }
  }
  TimeSeriesStore reopened = TimeSeriesStore::open(dir);
  EXPECT_EQ(reopened.node_samples(0), 100u);
  EXPECT_EQ(reopened.node_samples(1), 40u);
  fs::remove_all(dir);
}

// ------------------------------------------------------------ query layer

TEST(StoreQuery, AnomalyRateAndTopKFromInBandBits) {
  const std::string dir = temp_dir("query");
  TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(3, 2));
  StoreSample sample;
  sample.values.assign(2, 1.0f);
  // node 0: 10% anomalous, node 1: 50%, node 2: none + some invalid.
  for (std::size_t t = 0; t < 100; ++t) {
    sample.t = t;
    sample.anomaly = t % 10 == 0;
    sample.valid = true;
    store.append(0, sample);
    sample.anomaly = t % 2 == 0;
    store.append(1, sample);
    sample.anomaly = false;
    sample.valid = t % 4 != 0;
    store.append(2, sample);
  }
  store.flush();
  const AnomalyRateResult node1 = store_anomaly_rate(store, 1, 0, 100);
  EXPECT_EQ(node1.samples, 100u);
  EXPECT_EQ(node1.anomalous, 50u);
  EXPECT_DOUBLE_EQ(node1.rate(), 0.5);
  const AnomalyRateResult fleet = store_anomaly_rate(store, 0, 100);
  EXPECT_EQ(fleet.samples, 300u);
  EXPECT_EQ(fleet.anomalous, 60u);
  EXPECT_EQ(fleet.invalid, 25u);
  // Sub-range aggregation: [0, 20) of node 0 holds exactly 2 anomalies.
  const AnomalyRateResult head = store_anomaly_rate(store, 0, 0, 20);
  EXPECT_EQ(head.samples, 20u);
  EXPECT_EQ(head.anomalous, 2u);
  const auto top = store_top_anomalous_nodes(store, 2, 0, 100);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 1u);
  EXPECT_EQ(top[1].node, 0u);
  EXPECT_EQ(top[0].node_name, "node1");
  fs::remove_all(dir);
}

// The top-k query runs std::partial_sort when k < N and a full sort
// otherwise; the comparator is a strict total order (rate desc, anomalous
// count desc, node id asc), so every k must return exactly the full
// ranking's prefix — including across tied rates.
TEST(StoreQuery, TopKPartialSortMatchesFullSortPrefix) {
  const std::string dir = temp_dir("topk");
  constexpr std::size_t kNodes = 10;
  TimeSeriesStore store = TimeSeriesStore::create(dir, small_meta(kNodes, 2));
  // Anomalous-tick counts with deliberate ties: nodes 2/5/8 all at 40%,
  // nodes 1/7 at 20%, node 9 clean.
  const std::size_t anomalous[kNodes] = {10, 20, 40, 30, 50,
                                         40, 60, 20, 40, 0};
  StoreSample sample;
  sample.values.assign(2, 1.0f);
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t t = 0; t < 100; ++t) {
      sample.t = t;
      sample.anomaly = t < anomalous[n];
      store.append(n, sample);
    }
  }
  store.flush();
  const auto full = store_top_anomalous_nodes(store, kNodes, 0, 100);
  ASSERT_EQ(full.size(), kNodes);
  // Tied 40% trio must appear in node-id order.
  EXPECT_EQ(full[2].node, 2u);
  EXPECT_EQ(full[3].node, 5u);
  EXPECT_EQ(full[4].node, 8u);
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                              std::size_t{9}, std::size_t{20}}) {
    const auto top = store_top_anomalous_nodes(store, k, 0, 100);
    ASSERT_EQ(top.size(), std::min(k, kNodes)) << "k=" << k;
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].node, full[i].node) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].rate.anomalous, full[i].rate.anomalous);
      EXPECT_EQ(top[i].node_name, full[i].node_name);
    }
  }
  fs::remove_all(dir);
}

TEST(StoreQuery, DatasetRoundTripWithMaskAndHoles) {
  SimDatasetConfig config = d1_sim_config(0.05, 3);
  config.missing_rate = 0.02;
  SimDataset sim = build_sim_dataset(config);
  const QualityResult quality = apply_quality_guard(sim.data);
  const std::size_t T = sim.data.num_timestamps();

  const std::string dir = temp_dir("dataset");
  TimeSeriesStore store = TimeSeriesStore::create(
      dir, store_meta_from_dataset(sim.data));
  store_append_dataset(store, sim.data, 0, T, &quality.mask,
                       &sim.data.labels);
  store.flush();

  const MtsDataset rebuilt = store_to_dataset(store, 0, T);
  rebuilt.validate();
  ASSERT_EQ(rebuilt.num_nodes(), sim.data.num_nodes());
  ASSERT_EQ(rebuilt.num_metrics(), sim.data.num_metrics());
  ASSERT_EQ(rebuilt.num_timestamps(), T);
  EXPECT_EQ(rebuilt.interval_seconds, sim.data.interval_seconds);
  for (std::size_t n = 0; n < sim.data.num_nodes(); ++n) {
    EXPECT_EQ(rebuilt.nodes[n].node_name, sim.data.nodes[n].node_name);
    ASSERT_EQ(rebuilt.jobs[n].size(), sim.data.jobs[n].size());
    for (std::size_t j = 0; j < sim.data.jobs[n].size(); ++j) {
      EXPECT_EQ(rebuilt.jobs[n][j].job_id, sim.data.jobs[n][j].job_id);
      EXPECT_EQ(rebuilt.jobs[n][j].begin, sim.data.jobs[n][j].begin);
      EXPECT_EQ(rebuilt.jobs[n][j].end, sim.data.jobs[n][j].end);
    }
    for (std::size_t m = 0; m < sim.data.num_metrics(); ++m)
      for (std::size_t t = 0; t < T; ++t) {
        const float want = sim.data.nodes[n].values[m][t];
        const float got = rebuilt.nodes[n].values[m][t];
        // All-NaN rows were skipped at import; their reconstruction is the
        // kMissingValue hole, not necessarily the same NaN payload.
        if (std::isnan(want))
          EXPECT_TRUE(std::isnan(got)) << n << "/" << m << "/" << t;
        else
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
                    std::bit_cast<std::uint32_t>(want))
              << n << "/" << m << "/" << t;
      }
    // Labels rode the in-band anomaly bits.
    for (std::size_t t = 0; t < T; ++t) {
      bool row_present = false;
      for (std::size_t m = 0; m < sim.data.num_metrics(); ++m)
        if (!std::isnan(sim.data.nodes[n].values[m][t])) row_present = true;
      if (row_present) {
        EXPECT_EQ(rebuilt.labels[n][t], sim.data.labels[n][t])
            << n << "/" << t;
      }
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------- serve-path equivalence

class ServeStoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimDatasetConfig sim_config = d2_sim_config(0.25, 7);
    sim_config.missing_rate = 0.0;  // clean stream -> exact equivalence
    sim_config.anomaly_ratio = 0.01;
    sim_ = new SimDataset(build_sim_dataset(sim_config));
    checkpoint_ = temp_dir("serve_ckpt");
    NodeSentryConfig config = fast_config();
    config.checkpoint_dir = checkpoint_;
    sentry_ = new NodeSentry(config);
    sentry_->fit(sim_->data, sim_->train_end);
  }

  static void TearDownTestSuite() {
    delete sentry_;
    delete sim_;
    sentry_ = nullptr;
    sim_ = nullptr;
    fs::remove_all(checkpoint_);
  }

  static NodeSentryConfig fast_config() {
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

  static SimDataset* sim_;
  static NodeSentry* sentry_;
  static std::string checkpoint_;
};

SimDataset* ServeStoreFixture::sim_ = nullptr;
NodeSentry* ServeStoreFixture::sentry_ = nullptr;
std::string ServeStoreFixture::checkpoint_;

TEST_F(ServeStoreFixture, ServeSealsBitsMatchingDetectionsAndWarmRestarts) {
  const std::string dir = temp_dir("serve_store");
  obs::Registry registry;
  TimeSeriesStore store =
      TimeSeriesStore::create(dir, store_meta_from_dataset(sim_->data));
  // Same shape as `nodesentry_serve --store-dir`: bulk-import the train
  // region, then let the engine seal the served region at flag time.
  store_append_dataset(store, sim_->data, 0, sim_->train_end);
  StoreWriter writer(std::move(store), StoreWriterConfig{}, &registry);
  ServeConfig serve_config;
  serve_config.store_writer = &writer;
  ServeEngine engine(*sentry_, serve_config);
  const ReplayReport rep = serve_replay(engine, sim_->data, sim_->train_end);
  writer.drain();

  // Leg 1: the in-band anomaly bits equal the replay's prediction flags
  // on every served sample.
  const StoreDelta delta = compare_detections_with_store(
      rep.result.detections, writer.store(), sim_->train_end);
  EXPECT_EQ(delta.samples_compared, rep.samples_streamed);
  EXPECT_EQ(delta.flag_mismatches, 0u);
  EXPECT_EQ(delta.samples_unflagged, 0u);

  // Leg 2: the sealed serve region is the original dataset, bitwise.
  const std::size_t T = sim_->data.num_timestamps();
  const MtsDataset rebuilt = store_to_dataset(writer.store(), 0, T);
  for (std::size_t n = 0; n < sim_->data.num_nodes(); ++n)
    for (std::size_t m = 0; m < sim_->data.num_metrics(); ++m)
      for (std::size_t t = 0; t < T; ++t)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(rebuilt.nodes[n].values[m][t]),
                  std::bit_cast<std::uint32_t>(
                      sim_->data.nodes[n].values[m][t]))
            << n << "/" << m << "/" << t;

  // Leg 3: warm restart from segments == warm restart from CSV, bitwise.
  NodeSentry csv_sentry(fast_config());
  csv_sentry.restore(sim_->data, sim_->train_end, checkpoint_);
  ServeEngine csv_engine(csv_sentry);
  const ReplayReport csv_rep =
      serve_replay(csv_engine, sim_->data, sim_->train_end);

  NodeSentry store_sentry(fast_config());
  store_sentry.restore(rebuilt, sim_->train_end, checkpoint_);
  ServeEngine store_engine(store_sentry);
  const ReplayReport store_rep =
      serve_replay(store_engine, rebuilt, sim_->train_end);

  ASSERT_EQ(store_rep.result.detections.size(),
            csv_rep.result.detections.size());
  for (std::size_t n = 0; n < csv_rep.result.detections.size(); ++n) {
    const auto& a = csv_rep.result.detections[n];
    const auto& b = store_rep.result.detections[n];
    ASSERT_EQ(a.scores.size(), b.scores.size()) << "node " << n;
    for (std::size_t t = 0; t < a.scores.size(); ++t)
      ASSERT_EQ(a.scores[t], b.scores[t]) << "node " << n << " t " << t;
    ASSERT_EQ(a.predictions, b.predictions) << "node " << n;
  }

  // Leg 4: the store's aggregate equals the flags' aggregate.
  const AnomalyRateResult rate = store_anomaly_rate(
      writer.store(), sim_->train_end, writer.store().end_tick());
  std::size_t flagged = 0;
  for (const NodeDetection& det : rep.result.detections)
    for (std::size_t t = sim_->train_end; t < det.predictions.size(); ++t)
      flagged += det.predictions[t];
  EXPECT_EQ(rate.anomalous, flagged);
}

// finalize() hands every node over at once, so a population larger than
// the writer's queue bound still seals every node.
TEST_F(ServeStoreFixture, FinalizeSealsEveryNodePastTheQueueBound) {
  const std::size_t N = sim_->data.num_nodes();
  ASSERT_GT(N, 1u);
  const std::string dir = temp_dir("serve_bound");
  obs::Registry registry;
  {
    StoreWriter writer(
        TimeSeriesStore::create(dir, store_meta_from_dataset(sim_->data)),
        StoreWriterConfig{/*queue_capacity=*/1}, &registry);
    ServeConfig serve_config;
    serve_config.store_writer = &writer;
    ServeEngine engine(*sentry_, serve_config);
    const ReplayReport rep = serve_replay(engine, sim_->data, sim_->train_end);
    writer.drain();
    EXPECT_EQ(writer.batches_enqueued(), N);
    EXPECT_EQ(writer.batches_dropped(), 0u);
    EXPECT_EQ(writer.samples_written(), rep.samples_streamed);
    std::size_t sealed = 0;
    for (std::size_t n = 0; n < N; ++n) {
      EXPECT_GT(writer.store().node_samples(n), 0u) << "node " << n;
      sealed += writer.store().node_samples(n);
    }
    EXPECT_EQ(sealed, rep.samples_streamed);
    EXPECT_EQ(compare_detections_with_store(rep.result.detections,
                                            writer.store(), sim_->train_end)
                  .flag_mismatches,
              0u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ns
