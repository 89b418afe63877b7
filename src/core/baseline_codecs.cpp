#include "core/baseline_codecs.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <queue>
#include <stdexcept>
#include <utility>

#include "util/bitio.hpp"

namespace nocw::core {

namespace {
constexpr std::uint8_t kEsc = 0xA5;
constexpr std::size_t kMinRun = 4;
}  // namespace

std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data) {
  // Grammar: ESC 0x00            -> one literal ESC byte
  //          ESC count byte      -> `count` copies of `byte` (count >= 4)
  //          anything else       -> literal byte
  std::vector<std::uint8_t> out;
  out.reserve(data.size());
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint8_t b = data[i];
    std::size_t run = 1;
    while (i + run < data.size() && data[i + run] == b && run < 255) ++run;
    if (run >= kMinRun) {
      out.push_back(kEsc);
      out.push_back(static_cast<std::uint8_t>(run));
      out.push_back(b);
      i += run;
    } else {
      for (std::size_t k = 0; k < run; ++k) {
        out.push_back(b);
        if (b == kEsc) out.push_back(0);  // stuff the escape
      }
      i += run;
    }
  }
  return out;
}

std::vector<std::uint8_t> rle_decode(std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> out;
  out.reserve(data.size());
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint8_t b = data[i++];
    if (b != kEsc) {
      out.push_back(b);
      continue;
    }
    if (i >= data.size()) throw std::runtime_error("rle: truncated escape");
    const std::uint8_t count = data[i++];
    if (count == 0) {
      out.push_back(kEsc);  // stuffed literal
      continue;
    }
    if (i >= data.size()) throw std::runtime_error("rle: truncated run");
    const std::uint8_t value = data[i++];
    for (std::uint8_t k = 0; k < count; ++k) out.push_back(value);
  }
  return out;
}

std::vector<std::uint8_t> huffman_encode(std::span<const std::uint8_t> data) {
  // Histogram.
  std::array<std::uint64_t, 256> freq{};
  for (auto b : data) ++freq[b];

  // Build code lengths via a simple Huffman tree (package in a heap).
  struct Node {
    std::uint64_t weight;
    int index;  // < 256: leaf symbol; >= 256: internal
  };
  struct Cmp {
    bool operator()(const Node& a, const Node& b) const {
      if (a.weight != b.weight) return a.weight > b.weight;
      return a.index > b.index;  // deterministic ties
    }
  };
  std::vector<std::pair<int, int>> children;  // internal node -> (l, r)
  std::priority_queue<Node, std::vector<Node>, Cmp> heap;
  int symbols = 0;
  for (int s = 0; s < 256; ++s) {
    if (freq[s] > 0) {
      heap.push(Node{freq[s], s});
      ++symbols;
    }
  }
  std::array<std::uint8_t, 256> code_len{};
  if (symbols == 1) {
    // Degenerate alphabet: one symbol, 1-bit codes.
    for (int s = 0; s < 256; ++s) {
      if (freq[s] > 0) code_len[s] = 1;
    }
  } else if (symbols > 1) {
    int next_internal = 256;
    while (heap.size() > 1) {
      const Node a = heap.top();
      heap.pop();
      const Node b = heap.top();
      heap.pop();
      children.emplace_back(a.index, b.index);
      heap.push(Node{a.weight + b.weight, next_internal++});
    }
    // Depth-first walk to assign lengths.
    struct Item {
      int index;
      std::uint8_t depth;
    };
    std::vector<Item> stack{{heap.top().index, 0}};
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      if (it.index < 256) {
        code_len[static_cast<std::size_t>(it.index)] = std::max<std::uint8_t>(
            it.depth, 1);
        continue;
      }
      const auto [l, r] = children[static_cast<std::size_t>(it.index - 256)];
      stack.push_back({l, static_cast<std::uint8_t>(it.depth + 1)});
      stack.push_back({r, static_cast<std::uint8_t>(it.depth + 1)});
    }
  }

  // Canonical codes from lengths, stored bit-reversed: one LSB-first write
  // of the reversed code emits the canonical code MSB-first.
  std::array<std::uint32_t, 256> code{};
  {
    std::vector<int> order;
    for (int s = 0; s < 256; ++s) {
      if (code_len[s] > 0) order.push_back(s);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (code_len[a] != code_len[b]) return code_len[a] < code_len[b];
      return a < b;
    });
    std::uint32_t next = 0;
    std::uint8_t prev_len = 0;
    for (int s : order) {
      if (code_len[s] > 32) throw std::runtime_error("huffman: code too long");
      next <<= (code_len[s] - prev_len);
      std::uint32_t reversed = 0;
      for (std::uint8_t bit = 0; bit < code_len[s]; ++bit) {
        reversed = (reversed << 1) | ((next >> bit) & 1u);
      }
      code[static_cast<std::size_t>(s)] = reversed;
      ++next;
      prev_len = code_len[s];
    }
  }

  BitWriter w;
  w.write(data.size(), 48);
  for (int s = 0; s < 256; ++s) w.write(code_len[s], 8);
  for (auto b : data) w.write(code[b], code_len[b]);
  return std::move(w).take_bytes();
}

std::vector<std::uint8_t> huffman_decode(std::span<const std::uint8_t> data) {
  BitReader r(data);
  const std::uint64_t count = r.read(48);
  std::array<std::uint8_t, 256> code_len{};
  for (int s = 0; s < 256; ++s) {
    code_len[s] = static_cast<std::uint8_t>(r.read(8));
  }
  // Rebuild canonical codes and a (length -> first code, symbols) decoder.
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
  {
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
  }
  // Fast path: a table indexed by the next kLookupBits stream bits gives
  // the symbol and length of every code up to kLookupBits long. Stream bits
  // are a code's bits MSB-first, so a code sits bit-reversed in the low
  // `len` bits of the index. Canonical codes are prefix-free even for a
  // malformed length table (each code's prefix exceeds every shorter code),
  // once codes that overflow their length are left out, so no entry is
  // claimed twice.
  constexpr unsigned kLookupBits = 10;
  struct Entry {
    std::uint8_t symbol = 0;
    std::uint8_t len = 0;  ///< 0: no code of <= kLookupBits bits matches
  };
  std::array<Entry, std::size_t{1} << kLookupBits> table{};
  for (std::uint8_t len = 1; len <= kLookupBits; ++len) {
    for (std::uint32_t i = 0; i < span_per_len[len]; ++i) {
      const std::uint32_t c = first_code[len] + i;
      if (c >> len != 0) break;  // overflowed canonical code: never matches
      std::uint32_t reversed = 0;
      for (std::uint8_t bit = 0; bit < len; ++bit) {
        reversed = (reversed << 1) | ((c >> bit) & 1U);
      }
      const auto symbol =
          static_cast<std::uint8_t>(order[first_index[len] + i]);
      for (std::uint32_t hi = 0; hi < (1U << (kLookupBits - len)); ++hi) {
        table[reversed | (hi << len)] = Entry{symbol, len};
      }
    }
  }

  // Stream bits not yet consumed, LSB first, refilled 32 bits at a time.
  std::uint64_t buf = 0;
  unsigned nbits = 0;
  std::vector<std::uint8_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    while (nbits <= 32 && r.bits_left() > 0) {
      const auto take =
          static_cast<unsigned>(std::min<std::size_t>(32, r.bits_left()));
      buf |= r.read(take) << nbits;
      nbits += take;
    }
    const Entry e = table[buf & ((1U << kLookupBits) - 1)];
    if (e.len != 0 && e.len <= nbits) {
      out.push_back(e.symbol);
      buf >>= e.len;
      nbits -= e.len;
      continue;
    }
    // Slow path (codes longer than kLookupBits, bad or truncated input):
    // the canonical per-length search, one buffered bit at a time.
    std::uint32_t c = 0;
    unsigned len = 0;
    int symbol = -1;
    while (len < 32 && len < nbits) {
      c = (c << 1) | static_cast<std::uint32_t>((buf >> len) & 1U);
      ++len;
      const std::uint32_t span = span_per_len[len];
      if (span != 0 && c >= first_code[len] && c < first_code[len] + span) {
        symbol = order[first_index[len] + (c - first_code[len])];
        break;
      }
    }
    if (symbol < 0) {
      if (len < 32) throw std::out_of_range("huffman: truncated stream");
      throw std::runtime_error("huffman: bad code");
    }
    out.push_back(static_cast<std::uint8_t>(symbol));
    buf >>= len;
    nbits -= len;
  }
  return out;
}

double lossless_cr(std::size_t original_bytes, std::size_t encoded_bytes) {
  if (encoded_bytes == 0) return 1.0;
  return static_cast<double>(original_bytes) /
         static_cast<double>(encoded_bytes);
}

std::vector<std::uint8_t> weights_as_bytes(std::span<const float> weights) {
  std::vector<std::uint8_t> out(weights.size() * sizeof(float));
  std::memcpy(out.data(), weights.data(), out.size());
  return out;
}

}  // namespace nocw::core
