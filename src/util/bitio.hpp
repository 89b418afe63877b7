// Bit-granular serialization used by the compressed-weights storage format.
//
// The codec stores ⟨m, q, len⟩ records with configurable field widths, so the
// writer/reader operate on arbitrary bit counts (1..64) rather than whole
// bytes. Bits are packed LSB-first within each byte, matching how a hardware
// deserializer would shift them out of a 64-bit NoC flit. Both sides move
// whole bytes (the reader whole 64-bit words) per call, never single bits.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nocw {

class BitWriter {
 public:
  /// Pre-size the buffer for a stream of `bits` bits in total.
  void reserve(std::size_t bits) { buf_.reserve((bits + 7) / 8); }

  /// Append the low `bits` bits of `value` (1..64).
  void write(std::uint64_t value, unsigned bits);

  /// Append a float as its 32 raw bits.
  void write_float(float value);

  /// Total number of bits written so far.
  [[nodiscard]] std::size_t bit_count() const noexcept { return bit_count_; }

  /// Finished byte stream (last byte zero-padded).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }

  /// Move the finished byte stream out without copying it.
  [[nodiscard]] std::vector<std::uint8_t> take_bytes() && noexcept {
    bit_count_ = 0;
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  /// Read `bits` bits (1..64), LSB-first. Throws std::out_of_range past end,
  /// leaving the position unchanged.
  std::uint64_t read(unsigned bits);

  float read_float();

  [[nodiscard]] std::size_t bit_pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t bits_left() const noexcept {
    return bytes_.size() * 8 - pos_;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace nocw
