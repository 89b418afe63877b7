// Open-loop arrival generation: Poisson and bursty (MMPP) processes.
//
// Arrivals are *open loop*: the offered load never reacts to queueing or
// service state, which is what exposes tail latency under overload (a
// closed loop self-throttles and hides it). Every arrival time is derived
// from a counter-based hash in the style of noc::fault_hash — a pure
// function of (seed, class, counter) — so the generated timeline is
// identical for any thread count, iteration order, or repetition, and two
// schedulers can be compared on the *same* arrival sequence.
//
// The bursty process is a 2-state Markov-modulated Poisson process: time is
// cut into fixed dwell segments, each segment is calm or bursting according
// to a seeded two-state chain, and the arrival rate within a segment is the
// base rate scaled by 2f/(f+1) (burst) or 2/(f+1) (calm). With the
// symmetric chain the two states are equally likely, so the long-run mean
// rate equals the configured rate exactly — MMPP changes variance, not
// offered load.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/request.hpp"

namespace nocw::serve {

enum class ArrivalProcess : std::uint8_t {
  kPoisson,  ///< exponential inter-arrivals at constant rate
  kMmpp,     ///< 2-state Markov-modulated Poisson (bursty)
};

[[nodiscard]] constexpr const char* to_string(ArrivalProcess p) noexcept {
  switch (p) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kMmpp:
      return "mmpp";
  }
  return "unknown";
}

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Total offered rate across all classes, in requests per 1e6 cycles
  /// (a 1 GHz clock makes this requests per millisecond). Split across
  /// classes by their normalized mix_fractions.
  double rate_per_mcycle = 10.0;
  /// Generation stops at this cycle; the driver drains what arrived.
  std::uint64_t horizon_cycles = 10'000'000;
  std::uint64_t seed = 0x5E21;
  /// MMPP only: burst-state rate multiplier f > 1 (burst rate 2f/(f+1)x,
  /// calm rate 2/(f+1)x the class rate).
  double burst_factor = 4.0;
  /// MMPP only: dwell-segment length; each segment flips state with
  /// probability `switch_probability` (symmetric chain).
  std::uint64_t segment_cycles = 200'000;
  double switch_probability = 0.25;
};

/// One generated arrival. `seq` is the per-class counter that produced it
/// (stable across regenerations; useful for diagnostics).
struct Arrival {
  std::uint64_t cycle = 0;
  std::size_t class_id = 0;
  std::uint64_t seq = 0;
};

/// Counter-based uniform hash for arrival sampling: a pure function of
/// (seed, a, b, c), mirroring noc::fault_hash's role for fault decisions.
/// The determinism.fault-hash rule keeps fault sampling inside noc/fault.cpp;
/// serving has its own primitive so the two stochastic domains can never
/// share a stream.
[[nodiscard]] std::uint64_t arrival_hash(std::uint64_t seed, std::uint64_t a,
                                         std::uint64_t b,
                                         std::uint64_t c) noexcept;

/// Hash output -> uniform double in [0, 1) with 53-bit resolution.
[[nodiscard]] double arrival_u01(std::uint64_t h) noexcept;

/// Generate the merged arrival timeline for `classes` under `cfg`, sorted
/// by (cycle, class_id, seq). Classes with non-positive effective rate
/// contribute nothing. Pure: identical inputs give identical output on any
/// platform/thread count.
[[nodiscard]] std::vector<Arrival> generate_arrivals(
    std::span<const RequestClass> classes, const ArrivalConfig& cfg);

}  // namespace nocw::serve
