// Route computation for the mesh: DOR plus a fault-aware west-first table.
//
// All next-hop decisions in the repo flow through this module (the
// layering.route rule of tools/nocw_analyze.py bans dor_next_hop()
// elsewhere): Router::route() delegates to dor_next_hop() when no table is
// installed, or to a RouteTable built here.
//
// The adaptive mode is the west-first turn model (Glass & Ni): the turns
// N→W and S→W are forbidden, so any westward travel must be a prefix of the
// path. Prohibiting those two turns breaks every cycle in the channel
// dependency graph, which keeps wormhole routing deadlock-free even on the
// non-minimal detours a fault forces. Construction is two-phase per
// destination: (A) reverse BFS from the destination over live links using
// only the travel directions {E, N, S}, assigning each reached node the
// shortest-path port (preferring the XY DOR port on ties, then a fixed
// E/N/S order); (B) every remaining node routes West along a live west
// chain into region A, or is marked unreachable. With zero faults region A
// is exactly {x ≤ dst.x}, the DOR tie-break always wins, and phase B is
// the DOR West column walk — so the table equals XY DOR entry for entry,
// which is what makes no-fault adaptive runs bit-identical to the baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/config.hpp"
#include "noc/flit.hpp"

namespace nocw::noc {

/// Dimension-order next hop for `node` toward `dst` under cfg.routing.
/// The one DOR formula in the tree (layering.route rule).
[[nodiscard]] int dor_next_hop(const NocConfig& cfg, int node,
                               int dst) noexcept;

/// Which links and routers are currently considered permanently down.
/// Written serially (construction pre-marks, end-of-cycle escalation);
/// read-only during the switch phase.
class HealthMap {
 public:
  HealthMap() = default;
  explicit HealthMap(int node_count)
      : link_down_(static_cast<std::size_t>(node_count) * kNumPorts, 0),
        router_down_(static_cast<std::size_t>(node_count), 0) {}

  /// Mark link (router, out_port) down. Returns false if already down.
  bool mark_link_down(int router, int port);
  /// Mark a router (and implicitly all its links) down. Returns false if
  /// already down.
  bool mark_router_down(int router);

  [[nodiscard]] bool link_up(int router, int port) const noexcept {
    return link_down_[static_cast<std::size_t>(router) * kNumPorts +
                      static_cast<std::size_t>(port)] == 0;
  }
  [[nodiscard]] bool router_up(int router) const noexcept {
    return router_down_[static_cast<std::size_t>(router)] == 0;
  }

  [[nodiscard]] int links_down() const noexcept { return links_down_; }
  [[nodiscard]] int routers_down() const noexcept { return routers_down_; }
  [[nodiscard]] bool any_down() const noexcept {
    return links_down_ > 0 || routers_down_ > 0;
  }

 private:
  std::vector<std::uint8_t> link_down_;    ///< [router * kNumPorts + port]
  std::vector<std::uint8_t> router_down_;  ///< per router
  int links_down_ = 0;
  int routers_down_ = 0;
};

/// Precomputed next-hop table: port for every (node, dst) pair, or
/// kUnreachable when no west-first path over live components exists.
/// rebuild() recomputes the whole table from a HealthMap; between rebuilds
/// lookups are lock-free reads (the network flushes in-flight wormholes
/// before every rebuild, so no flit ever observes a mid-flight change).
class RouteTable {
 public:
  static constexpr int kUnreachable = -1;

  /// Builds the zero-fault table (== XY DOR). Requires cfg.routing == XY
  /// for RouteMode::WestFirst (throws nocw::CheckError otherwise).
  RouteTable(const NocConfig& cfg, RouteMode mode);

  /// Recompute every route around the down links/routers in `health`.
  void rebuild(const HealthMap& health);

  /// Output port for a flit at `node` heading to `dst`, or kUnreachable.
  [[nodiscard]] int next_hop(int node, int dst) const noexcept {
    return table_[static_cast<std::size_t>(node) *
                      static_cast<std::size_t>(n_) +
                  static_cast<std::size_t>(dst)];
  }

  /// True when a packet injected at `src` can reach `dst`.
  [[nodiscard]] bool reachable(int src, int dst) const noexcept {
    return src == dst || next_hop(src, dst) != kUnreachable;
  }

  [[nodiscard]] RouteMode mode() const noexcept { return mode_; }

 private:
  void build_destination(int dst, const HealthMap& health);

  NocConfig cfg_;
  RouteMode mode_;
  int n_ = 0;
  std::vector<std::int8_t> table_;  ///< [node * n_ + dst] → port
  std::vector<int> dist_;           ///< scratch: hops to dst in region A
  std::vector<int> queue_;          ///< scratch: BFS frontier
};

}  // namespace nocw::noc
