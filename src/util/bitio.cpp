#include "util/bitio.hpp"

#include <bit>
#include <cstring>

namespace nocw {

namespace {

/// The 8 bytes at `p` as a little-endian word: byte 0 holds bits 0..7.
std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, p, sizeof(word));
  } else {
    for (unsigned i = 0; i < 8; ++i) word |= std::uint64_t{p[i]} << (8 * i);
  }
  return word;
}

}  // namespace

void BitWriter::write(std::uint64_t value, unsigned bits) {
  if (bits == 0 || bits > 64) throw std::invalid_argument("bits must be 1..64");
  if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  const unsigned off = bit_count_ % 8;
  bit_count_ += bits;
  // Top up the partly filled last byte, then append whole bytes.
  if (off != 0) {
    buf_.back() |= static_cast<std::uint8_t>(value << off);
    const unsigned took = 8 - off;
    if (bits <= took) return;
    value >>= took;
    bits -= took;
  }
  for (;;) {
    buf_.push_back(static_cast<std::uint8_t>(value));
    if (bits <= 8) return;
    value >>= 8;
    bits -= 8;
  }
}

void BitWriter::write_float(float value) {
  std::uint32_t raw;
  std::memcpy(&raw, &value, sizeof(raw));
  write(raw, 32);
}

std::uint64_t BitReader::read(unsigned bits) {
  if (bits == 0 || bits > 64) throw std::invalid_argument("bits must be 1..64");
  const std::size_t first = pos_ / 8;
  const unsigned off = pos_ % 8;
  const std::uint8_t* p = bytes_.data() + first;
  std::uint64_t value;
  if (bytes_.size() - first >= 9) {
    // Nine bytes hold any field, even 64 bits at offset 7.
    value = load_le64(p) >> off;
    if (off + bits > 64) value |= std::uint64_t{p[8]} << (64 - off);
  } else {
    // Stream tail: gather byte by byte, never past the last byte.
    if (bits > bits_left()) throw std::out_of_range("BitReader exhausted");
    const std::size_t n = (off + bits + 7) / 8;
    value = p[0] >> off;
    for (std::size_t i = 1; i < n; ++i) {
      value |= std::uint64_t{p[i]} << (8 * i - off);
    }
  }
  if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  pos_ += bits;
  return value;
}

float BitReader::read_float() {
  const auto raw = static_cast<std::uint32_t>(read(32));
  float value;
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}

}  // namespace nocw
