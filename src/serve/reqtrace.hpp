// Request span trees and tail-based trace sampling for the serving layer.
//
// Every served request can be described as a span tree: a root span from
// arrival to completion, a queue-wait child, a service child covering the
// request's share of its batch, and under the service span the per-layer
// accelerator phases (DRAM fetch, NoC scatter/gather, MAC, decompress).
// Retaining that tree for *every* request would dwarf the results it
// explains, so the sink here samples tail-based: full trees are kept only
// for (a) the top-K completions by latency — the requests a p99/p99.9
// investigation actually opens — and (b) SLO window exemplars the
// obs::SloMonitor pins via its SloIngest protocol (the max-latency
// completion and first shed of every breached window). Everything else is
// counted, not stored.
//
// Trees are synthesized from per-class layer templates precomputed in the
// ServeSim constructor from the audited AcceleratorSim results — not
// scraped from the global tracer rings — so a tree is a pure function of
// (class profile, batch geometry, arrival cycle) and the export is
// bit-identical across NOCW_THREADS and immune to ring-buffer drops. Span
// ids follow the deterministic derivation of obs/trace_context: root ids
// minted by serve::request_trace_context (the layering.trace-ctx boundary),
// child slots fixed by this file's layout (1 = queue wait, 2 = service,
// 3+i = layer i, phase children 1..4 under each layer).
//
// Exports: nocw.reqtrace.v1 line-wise JSON (one trace per line, hex ids
// matching the Perfetto args stamped by the live replay) and a
// TraceEvent conversion so one sampled tail request opens directly in
// ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "accel/simulator.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"

namespace nocw::serve {

/// One node of a request's span tree. Cycles are absolute (serving
/// timeline); ids follow obs/trace_context derivation.
struct ReqSpan {
  std::string name;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 for the root
  std::uint64_t start_cycle = 0;
  std::uint64_t dur_cycles = 0;
};

/// A complete sampled tree. spans[0] is the root; its dur_cycles is the
/// request latency (0 for shed requests, which never started).
struct RequestTrace {
  std::uint64_t request_id = 0;
  std::size_t class_id = 0;
  std::string class_name;
  std::uint64_t root_trace_id = 0;
  std::uint64_t latency_cycles = 0;
  bool shed = false;
  std::vector<ReqSpan> spans;
};

/// One template span, relative to the service-span start. phase_slot: 0 =
/// the layer span itself, then its children 1 = dram, 2 = noc, 3 = mac,
/// 4 = decompress — the child-slot keys fed to obs::derive_child.
struct ReqSpanTemplate {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t dur = 0;
  std::size_t layer_index = 0;
  std::uint32_t phase_slot = 0;
};

/// Per-class span layouts: `full` for the batch seed (weights streamed),
/// `marginal` for follower positions (weights resident).
struct ClassTraceTemplate {
  std::string class_name;
  std::vector<ReqSpanTemplate> full;
  std::vector<ReqSpanTemplate> marginal;
};

/// Flatten one simulated inference into template spans, mirroring the
/// simulator's own phase-span layout (dram at 0, noc after the DRAM
/// phase, mac/decompress after the NoC phase, layers stacked by rounded
/// totals). `plan` marks which layers carry a decompress phase.
[[nodiscard]] std::vector<ReqSpanTemplate> layout_spans(
    const accel::InferenceResult& result, const accel::CompressionPlan* plan);

/// Everything needed to rebuild one request's tree later: a small POD, so
/// retaining a candidate during the serving loop costs a copy, never a
/// synthesis. `batch_start` ends the queue-wait span; `svc_start`/
/// `svc_dur` locate the request's share of the batch (seed: [batch start,
/// full); follower j: [start + full + (j-1)*marginal, marginal));
/// `marginal_layout` picks the matching template half.
struct TraceSeed {
  std::uint64_t request_id = 0;
  std::size_t class_id = 0;
  bool marginal_layout = false;
  bool shed = false;
  obs::TraceContext root;
  std::uint64_t arrival_cycle = 0;
  std::uint64_t batch_start = 0;
  std::uint64_t svc_start = 0;
  std::uint64_t svc_dur = 0;
  std::uint64_t finish_cycle = 0;
  std::uint64_t latency_cycles = 0;  ///< finish - arrival; 0 for sheds
};

/// Build a completed request's tree (seed.shed must be false).
[[nodiscard]] RequestTrace build_request_trace(const ClassTraceTemplate& tpl,
                                               const TraceSeed& seed);

/// Build a shed request's stub tree: zero-length root + shed marker
/// (seed.shed must be true).
[[nodiscard]] RequestTrace build_shed_trace(const ClassTraceTemplate& tpl,
                                            const TraceSeed& seed);

struct ReqTraceConfig {
  /// Top-K completions kept by (latency desc, request id asc).
  std::size_t tail_keep = 32;
  /// Bound on promoted window exemplars; overflow is counted, not stored.
  std::size_t exemplar_capacity = 256;
};

/// The retention policy: tail top-K plus SLO-pinned exemplars. Driven by
/// the serial ServeSim loop; deliberately not thread-safe.
///
/// Ingest stores seeds, never trees: the steady-state cost per completion
/// is one tail comparison plus (for candidates) a POD copy. Span trees are
/// synthesized once, in finish(), for exactly the retained set — which is
/// what keeps tracing-on under ext_reqtrace's <1% overhead gate even
/// though the phase-cached sweep itself is fast.
class RequestTraceSink {
 public:
  RequestTraceSink(std::size_t num_classes, const ReqTraceConfig& cfg = {});

  /// Ingest one completion (seed copied only when it is a tail candidate
  /// or its window's max so far).
  void ingest_complete(const obs::SloIngest& ingest, const TraceSeed& seed);
  /// Ingest one shed (seed copied only for the first shed of a window).
  void ingest_shed(const obs::SloIngest& ingest, const TraceSeed& seed);
  /// Promote the pending per-class pins (the monitor's final windows close
  /// without a follow-up event) and materialize every retained tree from
  /// the class templates. Call after SloMonitor::finish(); idempotent
  /// (the first call's templates win).
  void finish(std::span<const ClassTraceTemplate> templates);

  /// Retained tail, sorted by (latency desc, request id asc). Trees are
  /// materialized by finish(); empty before it.
  [[nodiscard]] const std::vector<RequestTrace>& tail() const noexcept {
    return tail_;
  }
  /// Promoted exemplar for a window's trace id, or nullptr (always, before
  /// finish()).
  [[nodiscard]] const RequestTrace* exemplar(
      std::uint64_t trace_id) const noexcept;
  [[nodiscard]] std::size_t exemplar_count() const noexcept {
    return exemplar_seeds_.size();
  }

  [[nodiscard]] std::uint64_t completions_seen() const noexcept {
    return completions_seen_;
  }
  [[nodiscard]] std::uint64_t sheds_seen() const noexcept {
    return sheds_seen_;
  }
  /// Completions whose tree is not in the final tail sample.
  [[nodiscard]] std::uint64_t dropped_trees() const noexcept {
    return completions_seen_ - static_cast<std::uint64_t>(tail_seeds_.size());
  }
  [[nodiscard]] std::uint64_t exemplar_drops() const noexcept {
    return exemplar_drops_;
  }

  /// Line-wise nocw.reqtrace.v1: one header object, then one trace per
  /// line (union of tail + exemplars, by request id), with hex ids.
  /// Requires finish().
  [[nodiscard]] std::string to_json() const;

 private:
  void promote_or_clear(std::size_t class_id, bool breached);
  void promote(std::optional<TraceSeed>& pending);
  [[nodiscard]] bool wants_tail(std::uint64_t latency_cycles,
                                std::uint64_t request_id) const;

  ReqTraceConfig cfg_;
  /// Max-heap under tail order while ingesting (front = eviction victim);
  /// sorted (latency desc, id asc) by finish().
  std::vector<TraceSeed> tail_seeds_;
  std::map<std::uint64_t, TraceSeed> exemplar_seeds_;  ///< by trace id
  std::vector<std::optional<TraceSeed>> pending_complete_;
  std::vector<std::optional<TraceSeed>> pending_shed_;
  /// Materialized by finish(), parallel to the seed containers.
  std::vector<RequestTrace> tail_;
  std::map<std::uint64_t, RequestTrace> exemplars_;
  bool finished_ = false;
  std::uint64_t completions_seen_ = 0;
  std::uint64_t sheds_seen_ = 0;
  std::uint64_t exemplar_drops_ = 0;
};

/// Convert one tree to Chrome-trace events (pid kPidServe, tid = request
/// id) for obs::to_chrome_json — the "open this tail request in Perfetto"
/// path.
[[nodiscard]] std::vector<obs::TraceEvent> to_trace_events(
    const RequestTrace& trace);

}  // namespace nocw::serve
