#include "util/bitio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/rng.hpp"

namespace nocw {
namespace {

// Reference bit I/O: one bit per step, the definition of the LSB-first,
// zero-padded stream format the word-wise BitWriter/BitReader must keep.
struct RefWriter {
  std::vector<std::uint8_t> buf;
  std::size_t bits = 0;
  void write(std::uint64_t value, unsigned width) {
    for (unsigned i = 0; i < width; ++i) {
      if (bits % 8 == 0) buf.push_back(0);
      if ((value >> i) & 1U) {
        buf.back() |= static_cast<std::uint8_t>(1U << (bits % 8));
      }
      ++bits;
    }
  }
};

std::uint64_t ref_read(const std::vector<std::uint8_t>& buf, std::size_t& pos,
                       unsigned width) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < width; ++i, ++pos) {
    if ((buf[pos / 8] >> (pos % 8)) & 1U) value |= std::uint64_t{1} << i;
  }
  return value;
}

TEST(BitIo, SingleBitRoundTrip) {
  BitWriter w;
  w.write(1, 1);
  w.write(0, 1);
  w.write(1, 1);
  EXPECT_EQ(w.bit_count(), 3u);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_EQ(r.read(1), 0u);
  EXPECT_EQ(r.read(1), 1u);
}

TEST(BitIo, FullWidthRoundTrip) {
  BitWriter w;
  const std::uint64_t v = 0xDEADBEEFCAFEBABEULL;
  w.write(v, 64);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(64), v);
}

TEST(BitIo, ValueMaskedToWidth) {
  BitWriter w;
  w.write(0xFFFF, 4);  // only low 4 bits kept
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(4), 0xFu);
}

TEST(BitIo, MixedWidthsRoundTrip) {
  BitWriter w;
  w.write(0x5, 3);
  w.write(0x1234, 13);
  w.write(1, 1);
  w.write(0x7F, 7);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(3), 0x5u);
  EXPECT_EQ(r.read(13), 0x1234u & 0x1FFFu);
  EXPECT_EQ(r.read(1), 1u);
  EXPECT_EQ(r.read(7), 0x7Fu);
}

TEST(BitIo, FloatRoundTripExact) {
  BitWriter w;
  for (float f : {0.0F, -0.0F, 1.5F, -3.25e-7F, 1e30F}) w.write_float(f);
  BitReader r(w.bytes());
  for (float f : {0.0F, -0.0F, 1.5F, -3.25e-7F, 1e30F}) {
    const float got = r.read_float();
    EXPECT_EQ(std::memcmp(&got, &f, sizeof(f)), 0);
  }
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.write(3, 2);
  BitReader r(w.bytes());
  r.read(2);
  // The writer zero-pads to a whole byte, so 6 padding bits remain.
  EXPECT_EQ(r.bits_left(), 6u);
  r.read(6);
  EXPECT_THROW(r.read(1), std::out_of_range);
}

TEST(BitIo, ZeroOrOversizedWidthThrows) {
  BitWriter w;
  EXPECT_THROW(w.write(0, 0), std::invalid_argument);
  EXPECT_THROW(w.write(0, 65), std::invalid_argument);
  w.write(1, 8);
  BitReader r(w.bytes());
  EXPECT_THROW(r.read(0), std::invalid_argument);
  EXPECT_THROW(r.read(65), std::invalid_argument);
}

TEST(BitIo, RandomizedRoundTrip) {
  Xoshiro256pp rng(314);
  for (int trial = 0; trial < 20; ++trial) {
    BitWriter w;
    std::vector<std::pair<std::uint64_t, unsigned>> entries;
    for (int i = 0; i < 200; ++i) {
      const unsigned bits = 1 + static_cast<unsigned>(rng.bounded(64));
      std::uint64_t value = rng();
      if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
      entries.emplace_back(value, bits);
      w.write(value, bits);
    }
    BitReader r(w.bytes());
    for (const auto& [value, bits] : entries) {
      EXPECT_EQ(r.read(bits), value);
    }
  }
}

TEST(BitIo, MatchesPerBitReferenceAtEveryStartOffset) {
  Xoshiro256pp rng(2718);
  for (unsigned lead = 0; lead < 8; ++lead) {
    for (int trial = 0; trial < 25; ++trial) {
      BitWriter w;
      RefWriter ref;
      std::vector<std::pair<std::uint64_t, unsigned>> fields;
      if (lead > 0) fields.emplace_back(rng() & ((1U << lead) - 1), lead);
      const int n = 1 + static_cast<int>(rng.bounded(40));
      for (int i = 0; i < n; ++i) {
        // Unmasked values: the writer must keep only the low `bits` bits.
        fields.emplace_back(rng(), 1 + static_cast<unsigned>(rng.bounded(64)));
      }
      for (const auto& [value, bits] : fields) {
        w.write(value, bits);
        ref.write(value, bits);
        ASSERT_EQ(w.bit_count(), ref.bits);
      }
      ASSERT_EQ(w.bytes(), ref.buf) << "lead " << lead << " trial " << trial;

      BitReader r(w.bytes());
      std::size_t ref_pos = 0;
      for (const auto& [value, bits] : fields) {
        const std::uint64_t expect = ref_read(ref.buf, ref_pos, bits);
        ASSERT_EQ(r.read(bits), expect);
        ASSERT_EQ(r.bit_pos(), ref_pos);
      }
      EXPECT_EQ(r.bits_left(), ref.buf.size() * 8 - ref.bits);
    }
  }
}

TEST(BitIo, SixtyFourBitFieldAtOffsetSevenSpansNineBytes) {
  const std::uint64_t v = 0x8123456789ABCDEFULL;
  for (std::size_t tail_bytes : {0U, 1U, 16U}) {  // tail and word-load paths
    BitWriter w;
    w.write(0x55, 7);
    w.write(v, 64);
    for (std::size_t i = 0; i < tail_bytes; ++i) w.write(0xA5, 8);
    RefWriter ref;
    ref.write(0x55, 7);
    ref.write(v, 64);
    for (std::size_t i = 0; i < tail_bytes; ++i) ref.write(0xA5, 8);
    ASSERT_EQ(w.bytes(), ref.buf);
    EXPECT_EQ(w.bytes().size(), 9 + tail_bytes);
    BitReader r(w.bytes());
    EXPECT_EQ(r.read(7), 0x55U);
    EXPECT_EQ(r.read(64), v);
    EXPECT_EQ(r.bit_pos(), 71U);
  }
}

TEST(BitIo, ReadEndingOnLastBitSucceeds) {
  for (unsigned bits = 1; bits <= 64; ++bits) {
    // A lead-in that makes the field end exactly on the last stream bit.
    const unsigned lead = (8 - bits % 8) % 8;
    const std::uint64_t v = ~std::uint64_t{0} >> (64 - bits);
    BitWriter w;
    if (lead > 0) w.write(0, lead);
    w.write(v, bits);
    BitReader r(w.bytes());
    if (lead > 0) r.read(lead);
    EXPECT_EQ(r.read(bits), v) << bits;
    EXPECT_EQ(r.bits_left(), 0U);
    EXPECT_THROW(r.read(1), std::out_of_range);
  }
}

TEST(BitIo, FailedReadLeavesPositionUnchanged) {
  BitWriter w;
  for (int i = 0; i < 12; ++i) w.write(0xFF, 8);
  const std::size_t total = w.bytes().size() * 8;
  // Every start position where one read can overrun the end: the last 1..8
  // bytes, at every bit offset (63 bits left down to 1).
  for (std::size_t start = total - 63; start < total; ++start) {
    BitReader r(w.bytes());
    for (std::size_t pos = 0; pos < start;) {
      const auto step =
          static_cast<unsigned>(std::min<std::size_t>(64, start - pos));
      r.read(step);
      pos += step;
    }
    const auto left = static_cast<unsigned>(r.bits_left());
    ASSERT_EQ(left, total - start);
    EXPECT_THROW(r.read(left + 1), std::out_of_range) << start;
    EXPECT_THROW(r.read(0), std::invalid_argument);
    EXPECT_THROW(r.read(65), std::invalid_argument);
    EXPECT_EQ(r.bit_pos(), start);
    EXPECT_EQ(r.read(left), ~std::uint64_t{0} >> (64 - left)) << start;
  }
}

TEST(BitIo, ReserveAndTakeBytesKeepTheStream) {
  BitWriter plain;
  BitWriter sized;
  sized.reserve(3 * 64 + 5);
  for (BitWriter* w : {&plain, &sized}) {
    w->write(0x1F, 5);
    for (int i = 0; i < 3; ++i) w->write(0x0123456789ABCDEFULL, 64);
  }
  ASSERT_EQ(plain.bytes(), sized.bytes());
  const std::vector<std::uint8_t> expect = plain.bytes();
  const std::vector<std::uint8_t> taken = std::move(sized).take_bytes();
  EXPECT_EQ(taken, expect);
  EXPECT_EQ(taken.size(), (3 * 64 + 5 + 7) / 8);
}

}  // namespace
}  // namespace nocw
