#include "store/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace ns {

void store_detail::throw_bad_bit_count(std::size_t count) {
  throw InvalidArgument("bit stream: count " + std::to_string(count) +
                        " > 64");
}

void store_detail::throw_bit_stream_truncated() {
  throw ParseError("store page: bit stream truncated");
}

// ------------------------------------------------------------- BitWriter

void BitWriter::grow(std::size_t byte) {
  buf_.resize(std::max<std::size_t>(2 * buf_.size(), byte + 64), 0);
}

void BitWriter::write_varint(std::uint64_t value) {
  while (value >= 0x80u) {
    write_bits((value & 0x7Fu) | 0x80u, 8);
    value >>= 7;
  }
  write_bits(value, 8);
}

void BitWriter::truncate(std::size_t bit_position) {
  NS_REQUIRE(bit_position <= bits_,
             "BitWriter: truncate past end (" << bit_position << " > "
                                              << bits_ << ")");
  // Zero the dropped bits so later writes OR into zeros.
  const std::size_t keep = (bit_position + 7) / 8;
  std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(keep),
            buf_.begin() + static_cast<std::ptrdiff_t>(byte_count()), 0);
  if (bit_position & 7)
    buf_[keep - 1] &=
        static_cast<std::uint8_t>((1u << (bit_position & 7)) - 1u);
  bits_ = bit_position;
}

std::vector<std::uint8_t> BitWriter::take() {
  const auto end = buf_.begin() + static_cast<std::ptrdiff_t>(byte_count());
  std::vector<std::uint8_t> out(buf_.begin(), end);
  std::fill(buf_.begin(), end, 0);
  bits_ = 0;
  return out;
}

// ------------------------------------------------------------- BitReader

std::uint64_t BitReader::read_varint() {
  std::uint64_t value = 0;
  std::size_t shift = 0;
  while (true) {
    if (shift >= 64) throw ParseError("store page: varint overflow");
    const std::uint64_t group = read_bits(8);
    value |= (group & 0x7Fu) << shift;
    if ((group & 0x80u) == 0) break;
    shift += 7;
  }
  return value;
}

// ------------------------------------------------------------ PageBuilder

namespace {

/// Delta-of-delta buckets: '0' zero; '10'+7b; '110'+12b; '1110'+20b;
/// '1111'+64b raw zigzag. A steady cadence hits the 1-bit bucket every row.
/// The prefix is written LSB-first, so '10' is the value 0b01; a bucket's
/// prefix and payload go out as one word.
void write_dod(BitWriter& w, std::int64_t dod) {
  if (dod == 0) {
    w.write_bits(0, 1);
  } else if (dod >= -63 && dod < 64) {
    w.write_bits(0b01u | (static_cast<std::uint64_t>(dod + 63) & 0x7Fu) << 2,
                 2 + 7);
  } else if (dod >= -2047 && dod < 2048) {
    w.write_bits(
        0b011u | (static_cast<std::uint64_t>(dod + 2047) & 0xFFFu) << 3,
        3 + 12);
  } else if (dod >= -(1 << 19) && dod < (1 << 19)) {
    w.write_bits(
        0b0111u | (static_cast<std::uint64_t>(dod + (1 << 19)) & 0xFFFFFu) << 4,
        4 + 20);
  } else {
    w.write_bits(0b1111u, 4);
    w.write_bits(zigzag_encode(dod), 64);
  }
}

std::int64_t read_dod(BitReader& r) {
  if (r.read_bit() == 0) return 0;
  if (r.read_bit() == 0)
    return static_cast<std::int64_t>(r.read_bits(7)) - 63;
  if (r.read_bit() == 0)
    return static_cast<std::int64_t>(r.read_bits(12)) - 2047;
  if (r.read_bit() == 0)
    return static_cast<std::int64_t>(r.read_bits(20)) - (1 << 19);
  return zigzag_decode(r.read_bits(64));
}

}  // namespace

PageBuilder::PageBuilder(std::size_t num_metrics, std::size_t capacity_bytes)
    : num_metrics_(num_metrics),
      capacity_bytes_(capacity_bytes),
      metrics_(2 * num_metrics) {
  NS_REQUIRE(num_metrics_ > 0, "PageBuilder: zero metrics");
  NS_REQUIRE(capacity_bytes_ > 0, "PageBuilder: zero capacity");
}

bool PageBuilder::append(const StoreSample& sample) {
  NS_REQUIRE(sample.values.size() == num_metrics_,
             "PageBuilder: sample has " << sample.values.size()
                                        << " metrics, page wants "
                                        << num_metrics_);
  NS_REQUIRE(samples_ == 0 || sample.t > prev_t_,
             "PageBuilder: ticks must be strictly increasing ("
                 << sample.t << " after " << prev_t_ << ")");
  // An over-capacity row is rolled back: the bits are truncated, the
  // scalars restored, and the metric state was only written to the
  // inactive half.
  const std::size_t mark = writer_.bit_count();
  const std::size_t saved_prev_t = prev_t_;
  const std::int64_t saved_prev_delta = prev_delta_;
  const std::int64_t saved_prev_job = prev_job_;

  encode_row(sample);

  if (samples_ > 0 && writer_.byte_count() > capacity_bytes_) {
    writer_.truncate(mark);
    prev_t_ = saved_prev_t;
    prev_delta_ = saved_prev_delta;
    prev_job_ = saved_prev_job;
    return false;
  }
  active_ ^= 1;
  if (samples_ == 0) first_t_ = sample.t;
  ++samples_;
  return true;
}

void PageBuilder::encode_row(const StoreSample& sample) {
  const MetricState* prev = metrics_.data() + active_ * num_metrics_;
  MetricState* next = metrics_.data() + (active_ ^ 1) * num_metrics_;
  const std::uint64_t flags =
      (sample.anomaly ? 1u : 0u) | (sample.valid ? 2u : 0u);
  if (samples_ == 0) {
    // First row stored in full: the page is independently decodable.
    writer_.write_varint(sample.t);
    writer_.write_varint(zigzag_encode(sample.job_id));
    writer_.write_bits(flags, 2);
    for (std::size_t m = 0; m < num_metrics_; ++m) {
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(sample.values[m]);
      writer_.write_bits(bits, 32);
      next[m] = MetricState{bits, 0, 0};
    }
    prev_t_ = sample.t;
    prev_delta_ = 0;
    prev_job_ = sample.job_id;
    return;
  }
  const std::int64_t delta =
      static_cast<std::int64_t>(sample.t) - static_cast<std::int64_t>(prev_t_);
  write_dod(writer_, delta - prev_delta_);
  prev_delta_ = delta;
  prev_t_ = sample.t;
  // Job-change bit, then the anomaly and validity bits.
  if (sample.job_id == prev_job_) {
    writer_.write_bits(flags << 1, 3);
  } else {
    writer_.write_bits(1, 1);
    writer_.write_varint(zigzag_encode(sample.job_id - prev_job_));
    writer_.write_bits(flags, 2);
    prev_job_ = sample.job_id;
  }
  for (std::size_t m = 0; m < num_metrics_; ++m) {
    MetricState st = prev[m];
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(sample.values[m]);
    const std::uint32_t x = bits ^ st.prev_bits;
    st.prev_bits = bits;
    if (x == 0) {
      writer_.write_bits(0, 1);
      next[m] = st;
      continue;
    }
    const std::uint32_t lead = static_cast<std::uint32_t>(std::countl_zero(x));
    const std::uint32_t trail = static_cast<std::uint32_t>(std::countr_zero(x));
    const std::uint32_t mlen = 32 - lead - trail;
    const std::uint32_t prev_trail =
        st.meaningful > 0 ? 32u - st.leading - st.meaningful : 0;
    if (st.meaningful > 0 && lead >= st.leading && trail >= prev_trail) {
      // Fits the previous window: '10' + the window's meaningful bits.
      writer_.write_bits(
          0b01u | static_cast<std::uint64_t>(x >> prev_trail) << 2,
          2 + st.meaningful);
    } else {
      // New window: '11' + 5b leading + 5b (len-1) + the meaningful bits.
      writer_.write_bits(0b11u | std::uint64_t{lead} << 2 |
                             std::uint64_t{mlen - 1} << 7 |
                             static_cast<std::uint64_t>(x >> trail) << 12,
                         12 + mlen);
      st.leading = static_cast<std::uint8_t>(lead);
      st.meaningful = static_cast<std::uint8_t>(mlen);
    }
    next[m] = st;
  }
}

std::vector<std::uint8_t> PageBuilder::finish() {
  std::vector<std::uint8_t> payload = writer_.take();
  samples_ = 0;
  first_t_ = 0;
  prev_t_ = 0;
  prev_delta_ = 0;
  prev_job_ = 0;
  // The metric state needs no reset: a page's first row writes all of it.
  return payload;
}

// ------------------------------------------------------------- PageReader

PageReader::PageReader(std::span<const std::uint8_t> payload,
                       std::size_t num_metrics, std::size_t sample_count)
    : reader_(payload),
      num_metrics_(num_metrics),
      remaining_(sample_count),
      prev_bits_(num_metrics, 0),
      leading_(num_metrics, 0),
      meaningful_(num_metrics, 0) {
  NS_REQUIRE(num_metrics_ > 0, "PageReader: zero metrics");
}

bool PageReader::next(StoreSample& out) {
  if (remaining_ == 0) return false;
  --remaining_;
  out.values.resize(num_metrics_);
  if (first_) {
    first_ = false;
    prev_t_ = static_cast<std::size_t>(reader_.read_varint());
    prev_job_ = zigzag_decode(reader_.read_varint());
    out.anomaly = reader_.read_bit() != 0;
    out.valid = reader_.read_bit() != 0;
    for (std::size_t m = 0; m < num_metrics_; ++m) {
      prev_bits_[m] = static_cast<std::uint32_t>(reader_.read_bits(32));
      out.values[m] = std::bit_cast<float>(prev_bits_[m]);
    }
    out.t = prev_t_;
    out.job_id = prev_job_;
    return true;
  }
  const std::int64_t dod = read_dod(reader_);
  prev_delta_ += dod;
  const std::int64_t t =
      static_cast<std::int64_t>(prev_t_) + prev_delta_;
  if (t <= static_cast<std::int64_t>(prev_t_))
    throw ParseError("store page: non-increasing tick");
  prev_t_ = static_cast<std::size_t>(t);
  if (reader_.read_bit() != 0)
    prev_job_ += zigzag_decode(reader_.read_varint());
  out.anomaly = reader_.read_bit() != 0;
  out.valid = reader_.read_bit() != 0;
  for (std::size_t m = 0; m < num_metrics_; ++m) {
    std::uint32_t x = 0;
    if (reader_.read_bit() != 0) {
      if (reader_.read_bit() == 0) {
        // '10': previous window.
        if (meaningful_[m] == 0)
          throw ParseError("store page: window reuse before a window");
        const std::uint32_t prev_trail = 32u - leading_[m] - meaningful_[m];
        x = static_cast<std::uint32_t>(reader_.read_bits(meaningful_[m]))
            << prev_trail;
      } else {
        // '11': explicit window.
        const std::uint32_t lead =
            static_cast<std::uint32_t>(reader_.read_bits(5));
        const std::uint32_t mlen =
            static_cast<std::uint32_t>(reader_.read_bits(5)) + 1;
        if (lead + mlen > 32)
          throw ParseError("store page: bad XOR window");
        const std::uint32_t trail = 32 - lead - mlen;
        x = static_cast<std::uint32_t>(reader_.read_bits(mlen)) << trail;
        leading_[m] = static_cast<std::uint8_t>(lead);
        meaningful_[m] = static_cast<std::uint8_t>(mlen);
      }
    }
    prev_bits_[m] ^= x;
    out.values[m] = std::bit_cast<float>(prev_bits_[m]);
  }
  out.t = prev_t_;
  out.job_id = prev_job_;
  return true;
}

}  // namespace ns
