#include "core/baseline_codecs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/entropy.hpp"
#include "nn/models.hpp"
#include "util/bitio.hpp"
#include "util/rng.hpp"

namespace nocw::core {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return out;
}

// --- RLE ---------------------------------------------------------------------

TEST(Rle, EmptyRoundTrip) {
  EXPECT_TRUE(rle_decode(rle_encode({})).empty());
}

TEST(Rle, LiteralsRoundTrip) {
  const auto data = bytes_of("abcdefg");
  EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

TEST(Rle, LongRunCompresses) {
  std::vector<std::uint8_t> data(200, 0x42);
  const auto enc = rle_encode(data);
  EXPECT_LT(enc.size(), 10u);
  EXPECT_EQ(rle_decode(enc), data);
}

TEST(Rle, EscapeByteStuffedCorrectly) {
  std::vector<std::uint8_t> data{0xA5, 0x01, 0xA5, 0xA5, 0x02};
  EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

TEST(Rle, RunOfEscapeBytes) {
  std::vector<std::uint8_t> data(50, 0xA5);
  const auto enc = rle_encode(data);
  EXPECT_EQ(rle_decode(enc), data);
  EXPECT_LT(enc.size(), data.size());
}

TEST(Rle, RandomDataRoundTripAndNoGain) {
  const auto data = random_bytes(100000, 5);
  const auto enc = rle_encode(data);
  EXPECT_EQ(rle_decode(enc), data);
  // High-entropy data: RLE finds nothing (CR <= ~1).
  EXPECT_LT(lossless_cr(data.size(), enc.size()), 1.05);
}

TEST(Rle, TruncatedInputThrows) {
  std::vector<std::uint8_t> bad{0xA5};
  EXPECT_THROW(rle_decode(bad), std::runtime_error);
  std::vector<std::uint8_t> bad2{0xA5, 0x05};
  EXPECT_THROW(rle_decode(bad2), std::runtime_error);
}

TEST(Rle, MixedContentRoundTrip) {
  Xoshiro256pp rng(6);
  std::vector<std::uint8_t> data;
  for (int block = 0; block < 100; ++block) {
    if (rng.chance(0.5)) {
      const auto b = static_cast<std::uint8_t>(rng() & 0xFF);
      const auto n = 1 + rng.bounded(300);
      data.insert(data.end(), n, b);
    } else {
      for (int k = 0; k < 20; ++k) {
        data.push_back(static_cast<std::uint8_t>(rng() & 0xFF));
      }
    }
  }
  EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

// --- Huffman -------------------------------------------------------------------

TEST(Huffman, EmptyRoundTrip) {
  EXPECT_TRUE(huffman_decode(huffman_encode({})).empty());
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint8_t> data(1000, 0x7F);
  const auto enc = huffman_encode(data);
  EXPECT_EQ(huffman_decode(enc), data);
  // 1 bit/symbol + table: far below 1 byte/symbol.
  EXPECT_LT(enc.size(), 500u);
}

TEST(Huffman, TextRoundTripAndCompresses) {
  const std::string text = sample_text(1 << 16);
  const auto data = bytes_of(text);
  const auto enc = huffman_encode(data);
  EXPECT_EQ(huffman_decode(enc), data);
  // Prose has ~4.2 bits/byte entropy: Huffman should approach ~1.8x.
  EXPECT_GT(lossless_cr(data.size(), enc.size()), 1.5);
}

TEST(Huffman, RandomDataRoundTripNoGain) {
  const auto data = random_bytes(100000, 9);
  const auto enc = huffman_encode(data);
  EXPECT_EQ(huffman_decode(enc), data);
  EXPECT_LT(lossless_cr(data.size(), enc.size()), 1.02);
}

TEST(Huffman, SkewedDistributionApproachesEntropy) {
  // 90% zeros, 10% spread: entropy ~ 1.3 bits/byte.
  Xoshiro256pp rng(10);
  std::vector<std::uint8_t> data(100000);
  for (auto& b : data) {
    b = rng.chance(0.9) ? 0 : static_cast<std::uint8_t>(rng.bounded(16) + 1);
  }
  const auto enc = huffman_encode(data);
  EXPECT_EQ(huffman_decode(enc), data);
  EXPECT_GT(lossless_cr(data.size(), enc.size()), 4.0);
}

TEST(Huffman, BinaryAlphabetRoundTrip) {
  Xoshiro256pp rng(11);
  std::vector<std::uint8_t> data(5000);
  for (auto& b : data) b = rng.chance(0.5) ? 0x00 : 0xFF;
  EXPECT_EQ(huffman_decode(huffman_encode(data)), data);
}

// The original encoder: canonical codes rebuilt from the stream's length
// table, each emitted MSB-first as `len` separate 1-bit writes.
std::vector<std::uint8_t> per_bit_huffman_reference(
    std::span<const std::uint8_t> data, std::span<const std::uint8_t> enc) {
  BitReader table(enc);
  table.read(48);
  std::array<std::uint8_t, 256> code_len{};
  for (auto& len : code_len) len = static_cast<std::uint8_t>(table.read(8));
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (code_len[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (code_len[a] != code_len[b]) return code_len[a] < code_len[b];
    return a < b;
  });
  std::array<std::uint32_t, 256> code{};
  std::uint32_t next = 0;
  std::uint8_t prev_len = 0;
  for (int s : order) {
    next <<= (code_len[s] - prev_len);
    code[static_cast<std::size_t>(s)] = next++;
    prev_len = code_len[s];
  }
  BitWriter w;
  w.write(data.size(), 48);
  for (int s = 0; s < 256; ++s) w.write(code_len[s], 8);
  for (auto b : data) {
    const std::uint32_t c = code[b];
    for (int bit = code_len[b] - 1; bit >= 0; --bit) {
      w.write((c >> bit) & 1u, 1);
    }
  }
  return w.bytes();
}

TEST(Huffman, WholeCodeWritesMatchPerBitEncoder) {
  // Geometric-ish byte histogram: code lengths from 1 up to well past 8.
  Xoshiro256pp rng(12);
  std::vector<std::uint8_t> data(20000);
  for (auto& b : data) {
    std::uint8_t sym = 0;
    while (sym < 40 && rng.chance(0.6)) ++sym;
    b = sym;
  }
  const std::string text = sample_text(4096);
  data.insert(data.end(), text.begin(), text.end());
  const auto enc = huffman_encode(data);
  EXPECT_EQ(enc, per_bit_huffman_reference(data, enc));
  EXPECT_EQ(huffman_decode(enc), data);
}

// The original decoder: canonical per-length search, one BitReader::read(1)
// per stream bit. The table-driven decoder must return the same bytes and
// throw the same exception types.
std::vector<std::uint8_t> per_bit_huffman_decode(
    std::span<const std::uint8_t> enc) {
  BitReader r(enc);
  const std::uint64_t count = r.read(48);
  std::array<std::uint8_t, 256> code_len{};
  for (auto& len : code_len) len = static_cast<std::uint8_t>(r.read(8));
  std::vector<int> order;
  for (int s = 0; s < 256; ++s) {
    if (code_len[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (code_len[a] != code_len[b]) return code_len[a] < code_len[b];
    return a < b;
  });
  std::array<std::uint32_t, 33> first_code{};
  std::array<std::uint32_t, 33> first_index{};
  std::array<std::uint32_t, 33> span_per_len{};
  std::uint32_t next = 0;
  std::uint8_t prev_len = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint8_t len = code_len[static_cast<std::size_t>(order[i])];
    if (len > 32) throw std::runtime_error("huffman: code too long");
    if (len != prev_len) {
      next <<= (len - prev_len);
      first_code[len] = next;
      first_index[len] = static_cast<std::uint32_t>(i);
      prev_len = len;
    }
    ++span_per_len[len];
    ++next;
  }
  std::vector<std::uint8_t> out;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t c = 0;
    std::uint8_t len = 0;
    int symbol = -1;
    while (len < 32) {
      c = (c << 1) | static_cast<std::uint32_t>(r.read(1));
      ++len;
      const std::uint32_t span = span_per_len[len];
      if (span != 0 && c >= first_code[len] && c < first_code[len] + span) {
        symbol = order[first_index[len] + (c - first_code[len])];
        break;
      }
    }
    if (symbol < 0) throw std::runtime_error("huffman: bad code");
    out.push_back(static_cast<std::uint8_t>(symbol));
  }
  return out;
}

/// "ok", "out_of_range" or "runtime_error": how a decode ended.
template <typename Decode>
std::string decode_outcome(Decode decode, std::span<const std::uint8_t> enc,
                           std::vector<std::uint8_t>& out) {
  try {
    out = decode(enc);
    return "ok";
  } catch (const std::out_of_range&) {
    return "out_of_range";
  } catch (const std::runtime_error&) {
    return "runtime_error";
  }
}

void expect_same_decode(std::span<const std::uint8_t> enc,
                        const std::string& what) {
  std::vector<std::uint8_t> fast;
  std::vector<std::uint8_t> slow;
  const std::string fast_outcome = decode_outcome(
      [](std::span<const std::uint8_t> e) { return huffman_decode(e); }, enc,
      fast);
  const std::string slow_outcome =
      decode_outcome(per_bit_huffman_decode, enc, slow);
  ASSERT_EQ(fast_outcome, slow_outcome) << what;
  ASSERT_EQ(fast, slow) << what;
}

TEST(Huffman, TableDecodeMatchesPerBitDecoder) {
  // Random bytes (flat histogram, 8-bit codes), LeNet-5 dense_1 weight
  // bytes (skewed exponent bytes) and a geometric histogram whose longest codes run far
  // past the lookup table's width.
  std::vector<std::vector<std::uint8_t>> inputs;
  inputs.push_back(random_bytes(50000, 31));
  const nn::Model lenet = nn::make_lenet5();
  inputs.push_back(weights_as_bytes(
      lenet.graph.layer(lenet.graph.find(lenet.selected_layer)).kernel()));
  Xoshiro256pp rng(32);
  std::vector<std::uint8_t> geometric(40000);
  for (auto& b : geometric) {
    std::uint8_t sym = 0;
    while (sym < 60 && rng.chance(0.7)) ++sym;
    b = sym;
  }
  inputs.push_back(geometric);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto enc = huffman_encode(inputs[i]);
    EXPECT_EQ(huffman_decode(enc), inputs[i]) << "input " << i;
    expect_same_decode(enc, "input " + std::to_string(i));
  }
}

TEST(Huffman, TableDecodeMatchesPerBitDecoderOnBadInput) {
  // Every truncation of a stream with long codes, and streams whose length
  // table was overwritten with random (malformed) code lengths.
  Xoshiro256pp rng(33);
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) {
    std::uint8_t sym = 0;
    while (sym < 30 && rng.chance(0.65)) ++sym;
    b = sym;
  }
  const auto enc = huffman_encode(data);
  for (std::size_t len = 0; len <= enc.size(); ++len) {
    const std::vector<std::uint8_t> prefix(enc.begin(),
                                           enc.begin() + static_cast<long>(len));
    expect_same_decode(prefix, "prefix " + std::to_string(len));
  }
  for (int trial = 0; trial < 200; ++trial) {
    auto bad = enc;
    const int max_len = 1 + static_cast<int>(rng() % 24);
    for (std::size_t s = 0; s < 256; ++s) {
      bad[6 + s] = rng.chance(0.2)
                       ? static_cast<std::uint8_t>(rng() % (max_len + 1))
                       : 0;
    }
    expect_same_decode(bad, "trial " + std::to_string(trial));
  }
}

// --- The paper's claim -----------------------------------------------------------

TEST(BaselineCodecs, TraditionalCompressionFailsOnWeights) {
  // Sec. III-B: weight streams are near-random bytes, so lossless
  // compressors gain (almost) nothing — the reason a lossy domain-specific
  // codec is needed at all.
  Xoshiro256pp rng(12);
  std::vector<float> weights(100000);
  for (auto& w : weights) w = static_cast<float>(rng.normal(0.0, 0.05));
  const auto data = weights_as_bytes(weights);
  EXPECT_LT(lossless_cr(data.size(), rle_encode(data).size()), 1.05);
  const auto henc = huffman_encode(data);
  EXPECT_EQ(huffman_decode(henc), data);
  EXPECT_LT(lossless_cr(data.size(), henc.size()), 1.25);
}

}  // namespace
}  // namespace nocw::core
