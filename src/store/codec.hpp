// Sample codec for the embedded time-series store (DESIGN.md §13).
//
// One page holds one node's consecutive samples, bit-packed in the Gorilla
// style: ticks are delta-of-delta coded (a regular 15 s cadence costs one
// bit per row), each raw metric value is XOR'd against the previous row's
// value of the same metric (identical values cost one bit; small drifts
// cost their meaningful mantissa bits), and every row carries its anomaly
// bit and validity bit *in-band* — the netdata discipline: anomaly rates
// fall out of ordinary aggregation over the samples with zero extra
// storage, and the bits are immutable history ("what was detectable
// THEN"). Encoding is bit-preserving: decode(encode(x)) reproduces every
// float bit pattern exactly, NaN payloads included, so a dataset rebuilt
// from the store replays bitwise identically to the CSV original.
//
// Pages are independently decodable (the first row of a page is stored in
// full; all per-metric XOR state resets), so a time-range query can seek
// to any page without touching its predecessors.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace ns {

/// One stored sample: every raw metric of one node at one tick, plus the
/// in-band bits. `values` is the raw metric space (NaN = missing cell);
/// `valid` is the §quality summary bit (0 = the quality/stream mask voided
/// part of this row); `anomaly` is the §3.5 detection flag at write time.
struct StoreSample {
  std::size_t t = 0;
  std::int64_t job_id = 0;
  bool anomaly = false;
  bool valid = true;
  std::vector<float> values;
};

// ------------------------------------------------------------- bit streams

namespace store_detail {

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  std::memcpy(p, &v, 8);
}

/// The low `count` bits of `value` (count <= 64).
inline std::uint64_t low_bits(std::uint64_t value, std::size_t count) {
  return count < 64 ? value & ((std::uint64_t{1} << count) - 1) : value;
}

[[noreturn]] void throw_bad_bit_count(std::size_t count);
[[noreturn]] void throw_bit_stream_truncated();

}  // namespace store_detail

/// LSB-first bit packer. Bits land in the low bit of the current byte
/// first; multi-bit writes emit the low bit of `value` first. A write moves
/// up to 64 bits as one little-endian word, so the stream is the same as
/// writing the bits one at a time.
class BitWriter {
 public:
  void write_bit(std::uint32_t bit) { write_bits(bit & 1u, 1); }
  void write_bits(std::uint64_t value, std::size_t count);  // count <= 64
  /// Unsigned LEB128-style varint inside the bit stream (7 data bits per
  /// continuation group).
  void write_varint(std::uint64_t value);

  std::size_t bit_count() const { return bits_; }
  std::size_t byte_count() const { return (bits_ + 7) / 8; }
  /// Truncates back to a previously captured bit_count().
  void truncate(std::size_t bit_position);
  /// Returns the byte_count() written bytes and resets the writer; the
  /// buffer stays allocated for the next stream.
  std::vector<std::uint8_t> take();

 private:
  void grow(std::size_t byte);

  /// The written bytes, then zeroed slack so a word store never runs past
  /// the end. Every bit past bits_ is zero.
  std::vector<std::uint8_t> buf_;
  std::size_t bits_ = 0;
};

// Inline: the page encoder calls this once or twice per metric per row.
inline void BitWriter::write_bits(std::uint64_t value, std::size_t count) {
  if (count > 64) store_detail::throw_bad_bit_count(count);
  if (count == 0) return;
  value = store_detail::low_bits(value, count);
  const std::size_t byte = bits_ >> 3;
  const std::size_t shift = bits_ & 7;
  // A write touches at most the 9 bytes from `byte` on.
  if (byte + 9 > buf_.size()) grow(byte);
  std::uint8_t* p = buf_.data() + byte;
  store_detail::store_le64(p, store_detail::load_le64(p) | (value << shift));
  if (shift + count > 64)
    p[8] |= static_cast<std::uint8_t>(value >> (64 - shift));
  bits_ += count;
}

/// Mirror of BitWriter. Reads past the end throw ns::ParseError.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : buf_(bytes) {}

  std::uint32_t read_bit() { return static_cast<std::uint32_t>(read_bits(1)); }
  std::uint64_t read_bits(std::size_t count);  // count <= 64
  std::uint64_t read_varint();
  std::size_t bits_consumed() const { return pos_; }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

// Inline: the page decoder calls this once or more per metric per row.
inline std::uint64_t BitReader::read_bits(std::size_t count) {
  if (count > 64) store_detail::throw_bad_bit_count(count);
  if (count == 0) return 0;
  if (count > buf_.size() * 8 - pos_)
    store_detail::throw_bit_stream_truncated();
  const std::size_t byte = pos_ >> 3;
  const std::size_t shift = pos_ & 7;
  std::uint64_t word = 0;
  if (byte + 8 <= buf_.size()) {
    word = store_detail::load_le64(buf_.data() + byte);
  } else {
    for (std::size_t i = 0; byte + i < buf_.size(); ++i)
      word |= static_cast<std::uint64_t>(buf_[byte + i]) << (8 * i);
  }
  std::uint64_t value = word >> shift;
  // Past 64 bits the read spills into a ninth byte, which the bounds
  // check above guarantees exists.
  if (shift + count > 64)
    value |= static_cast<std::uint64_t>(buf_[byte + 8]) << (64 - shift);
  pos_ += count;
  return store_detail::low_bits(value, count);
}

/// Zigzag mapping so small negative deltas stay small varints.
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// ------------------------------------------------------------ page codec

/// Builds one page's bit-packed payload. append() returns false (leaving
/// the page untouched) once adding the sample would push the payload past
/// the byte capacity — seal the page and start a new one. A page always
/// accepts at least one sample, whatever the capacity. The per-metric XOR
/// state is double-buffered: a row reads one half and writes the other,
/// and only an accepted row flips them, so a rejected row costs no copy.
class PageBuilder {
 public:
  PageBuilder(std::size_t num_metrics, std::size_t capacity_bytes);

  bool append(const StoreSample& sample);

  bool empty() const { return samples_ == 0; }
  std::size_t samples() const { return samples_; }
  std::size_t num_metrics() const { return num_metrics_; }
  std::size_t first_tick() const { return first_t_; }
  std::size_t last_tick() const { return prev_t_; }
  std::size_t payload_bytes() const { return writer_.byte_count(); }

  /// Returns the payload and resets the builder for the next page.
  std::vector<std::uint8_t> finish();

 private:
  struct MetricState {
    std::uint32_t prev_bits = 0;
    std::uint8_t leading = 0;
    std::uint8_t meaningful = 0;  ///< 0 = no reusable window yet
  };

  void encode_row(const StoreSample& sample);

  std::size_t num_metrics_;
  std::size_t capacity_bytes_;
  BitWriter writer_;
  std::size_t samples_ = 0;
  std::size_t first_t_ = 0;
  std::size_t prev_t_ = 0;
  std::int64_t prev_delta_ = 0;
  std::int64_t prev_job_ = 0;
  std::vector<MetricState> metrics_;  ///< two halves of num_metrics_
  std::size_t active_ = 0;            ///< half holding the last accepted row
};

/// Decodes a page payload produced by PageBuilder. The metric count and
/// sample count come from the page frame header (store.hpp).
class PageReader {
 public:
  PageReader(std::span<const std::uint8_t> payload, std::size_t num_metrics,
             std::size_t sample_count);

  /// Fills the next sample; false once `sample_count` rows were read.
  /// Throws ns::ParseError on a malformed payload.
  bool next(StoreSample& out);

 private:
  BitReader reader_;
  std::size_t num_metrics_;
  std::size_t remaining_;
  bool first_ = true;
  std::size_t prev_t_ = 0;
  std::int64_t prev_delta_ = 0;
  std::int64_t prev_job_ = 0;
  std::vector<std::uint32_t> prev_bits_;
  std::vector<std::uint8_t> leading_;
  std::vector<std::uint8_t> meaningful_;
};

}  // namespace ns
