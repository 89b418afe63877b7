#include "util/stats.hpp"

#include <cstring>

#include "util/check.hpp"

namespace nocw {

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    NOCW_DCHECK(sorted[i - 1] <= sorted[i]);
  }
  p = std::clamp(p, 0.0, 100.0);
  // All-equal samples: return the value itself, bit-exact for every p. The
  // interpolated path would also land here numerically, but making it a
  // short-circuit keeps exports byte-stable even for mixed ±0.0 samples.
  if (sorted.front() == sorted.back()) return sorted.front();
  // Linear interpolation between closest ranks over [0, n-1].
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return sorted[lo];  // exact rank: no interpolation noise
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile(std::span<const double> samples, double p) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double mean_squared_error(std::span<const float> a, std::span<const float> b) {
  NOCW_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

double value_range(std::span<const float> x) {
  if (x.empty()) return 0.0;
  float lo = x[0];
  float hi = x[0];
  for (float v : x) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return static_cast<double>(hi) - static_cast<double>(lo);
}

double shannon_entropy_hist(std::span<const std::uint64_t> histogram) {
  std::uint64_t total = 0;
  for (auto c : histogram) total += c;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (auto c : histogram) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

double shannon_entropy_bytes(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint64_t> hist(256, 0);
  for (auto b : bytes) ++hist[b];
  return shannon_entropy_hist(hist);
}

std::vector<std::uint64_t> byte_histogram(std::span<const float> values) {
  std::vector<std::uint64_t> hist(256, 0);
  for (float v : values) {
    std::uint8_t raw[sizeof(float)];
    std::memcpy(raw, &v, sizeof(float));
    for (auto b : raw) ++hist[b];
  }
  return hist;
}

}  // namespace nocw
