// Deterministic fault injection and flit protection primitives.
//
// The compressed ⟨m, q, len⟩ weight stream is maximally fragile to
// transmission faults: one flipped bit in a coefficient or length field
// corrupts an entire reconstructed sub-succession, an error mode the
// uncompressed stream does not have. This module provides (a) a seeded
// FaultModel that injects payload bit flips, transient/permanent link faults
// and router stalls into the cycle engine, and (b) the CRC-32 primitive the
// network uses to protect packets when `ProtectionConfig::crc` is on.
//
// Every fault decision is a *pure hash* of (seed, cycle, entity) — a
// counter-based generator rather than a sequential stream — so outcomes do
// not depend on iteration order, thread count, or how many other fault
// sites were evaluated first. Identical seeds reproduce identical fault
// patterns at any NOCW_THREADS.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace nocw::noc {

/// Fault-injection knobs. All probabilities are per-event Bernoulli rates;
/// zero everywhere (the default) means the model is completely inert and the
/// cycle engine behaves bit-identically to a build without it.
struct FaultConfig {
  /// Probability that any given payload bit flips during one link traversal
  /// (the BER of a 1 mm inter-router wire).
  double bit_flip_probability = 0.0;
  /// Probability that a given link is unavailable for a given cycle
  /// (transient outage: flits stay buffered and retry next cycle).
  double link_fault_probability = 0.0;
  /// Probability that a given router performs no switch allocation for a
  /// given cycle (control-path glitch; all five ports stall together).
  double router_stall_probability = 0.0;
  /// Number of links with a permanent stuck-at fault: every flit crossing
  /// one has a fixed seed-derived bit mask XOR-ed into its payload.
  int permanent_stuck_links = 0;
  /// Number of links permanently down for the whole run (seed-placed on
  /// distinct non-local links). Flits queued toward one stay buffered
  /// forever unless fault-aware routing detours around it.
  int permanent_link_outages = 0;
  /// Number of routers permanently down for the whole run (seed-placed,
  /// distinct). A dead router never allocates its switch; with resilience
  /// active its PE/MI role is failed over (DESIGN.md §13).
  int permanent_router_outages = 0;
  /// Seed for all fault decisions.
  std::uint64_t seed = 1;

  /// True when any fault mechanism is active.
  [[nodiscard]] bool any() const noexcept {
    return bit_flip_probability > 0.0 || link_fault_probability > 0.0 ||
           router_stall_probability > 0.0 || permanent_stuck_links > 0 ||
           permanent_link_outages > 0 || permanent_router_outages > 0;
  }
};

/// Packet protection + recovery knobs for the MI→PE weight stream.
struct ProtectionConfig {
  /// Append a CRC-32 flit to every packet at injection and verify it at
  /// ejection. Failed packets are NACK-ed back to their source.
  bool crc = false;
  /// Retransmission budget per packet; beyond it the packet is dropped.
  int max_retries = 4;
  /// Backoff before the k-th retry is `retry_backoff_cycles << k` cycles,
  /// with the shift capped at kMaxBackoffShift so a deep retry chain
  /// saturates instead of scheduling the packet billions of cycles out.
  std::uint64_t retry_backoff_cycles = 8;
  static constexpr unsigned kMaxBackoffShift = 10;  ///< backoff cap: << 10
  /// Throw PacketLossError when a packet exhausts its retry budget instead
  /// of counting a silent drop (callers that must not lose weight-stream
  /// data opt in).
  bool fail_on_drop = false;
};

/// Typed error for an unrecoverable packet loss: the retry budget of a
/// CRC-protected packet ran out and ProtectionConfig::fail_on_drop is set.
class PacketLossError : public std::runtime_error {
 public:
  PacketLossError(const std::string& what, int src_node, int dst_node,
                  std::uint32_t packet_tag)
      : std::runtime_error(what), src(src_node), dst(dst_node),
        tag(packet_tag) {}
  int src;
  int dst;
  std::uint32_t tag;
};

/// Counter-based hash: a uniform 64-bit value determined purely by
/// (seed, a, b, c). This is the only fault-sampling primitive; the
/// determinism.fault-hash rule of tools/nocw_analyze.py bans calls outside
/// src/noc/fault.cpp so all stochastic fault behaviour stays reproducible
/// from a single seed.
[[nodiscard]] std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t a,
                                       std::uint64_t b,
                                       std::uint64_t c) noexcept;

/// Deterministic synthetic link word for data flit `seq` of packet
/// `packet_id`. The cycle engine does not carry real tensor data; this gives
/// every flit a reproducible payload for the CRC/fault machinery to protect
/// and corrupt.
[[nodiscard]] std::uint64_t synth_payload(std::uint32_t packet_id,
                                          std::uint32_t seq) noexcept;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) folded over one 64-bit payload
/// word. Start from kCrcInit and feed each data flit's payload in order; the
/// final value rides in the packet's CRC flit.
inline constexpr std::uint32_t kCrcInit = 0xFFFFFFFFu;
[[nodiscard]] std::uint32_t crc32_word(std::uint32_t crc,
                                       std::uint64_t word) noexcept;

/// Flip each bit of `bytes` independently with probability
/// `bit_flip_probability` (exact Bernoulli sampling via geometric skips).
/// Deterministic from `seed`. Returns the number of bits flipped. This is
/// the storage/stream-level counterpart of the in-network flip model, used
/// by the fault sweep to corrupt serialized weight streams.
std::uint64_t corrupt_bits(std::span<std::uint8_t> bytes,
                           double bit_flip_probability, std::uint64_t seed);

/// Per-network fault oracle. Constructed from a FaultConfig plus the mesh
/// node count (to enumerate links for permanent faults). All queries are
/// pure in (cycle, entity), so two networks with equal configs agree on
/// every decision regardless of call order.
class FaultModel {
 public:
  FaultModel() = default;
  /// `width` (mesh columns) lets permanent-outage placement skip ports that
  /// point off-mesh; 0 means unknown (only local ports are skipped then).
  FaultModel(const FaultConfig& cfg, int node_count, int width = 0);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }

  /// Apply transient bit flips and permanent stuck-at masks to a payload
  /// crossing link (router, out_port) at `cycle`. Returns bits flipped.
  int corrupt_payload(std::uint64_t& payload, std::uint64_t cycle, int router,
                      int out_port) const noexcept;

  /// True when link (router, out_port) is down this cycle (transient
  /// outage, or one of the permanent link outages / a dead router's link).
  [[nodiscard]] bool link_down(std::uint64_t cycle, int router,
                               int out_port) const noexcept;

  /// True when `router` performs no switch allocation this cycle
  /// (transient stall, or a permanent router outage).
  [[nodiscard]] bool router_stalled(std::uint64_t cycle,
                                    int router) const noexcept;

  /// Stuck-at mask for link (router, out_port); 0 when healthy.
  [[nodiscard]] std::uint64_t stuck_mask(int router,
                                         int out_port) const noexcept;

  /// Seed-placed permanent outages (sorted flattened link ids
  /// router * kNumPorts + port, and sorted router ids). The resilience
  /// layer pre-marks these in its HealthMap; the accelerator fails the
  /// affected PE/MI roles over to survivors.
  [[nodiscard]] std::span<const int> dead_links() const noexcept {
    return dead_links_;
  }
  [[nodiscard]] std::span<const int> dead_routers() const noexcept {
    return dead_routers_;
  }

 private:
  FaultConfig cfg_;
  bool enabled_ = false;
  double flit_flip_probability_ = 0.0;  ///< 1 - (1 - p_bit)^64
  /// Flattened link id (router * kNumPorts + port) → stuck-at XOR mask.
  std::vector<std::uint64_t> stuck_masks_;
  std::vector<int> dead_links_;        ///< sorted flattened link ids
  std::vector<int> dead_routers_;      ///< sorted router ids
  std::vector<std::uint8_t> link_dead_;    ///< [link id] permanent outage
  std::vector<std::uint8_t> router_dead_;  ///< [router id] permanent outage
};

}  // namespace nocw::noc
