// Request-scoped causal trace context: deterministic trace/span ids.
//
// A TraceContext names one node of a request's span tree: the trace id
// (shared by every span of one request), the span id of the current node,
// and the span id of its parent. Ids are *derived*, never drawn from a
// clock or an RNG: the serving layer mints the root pair from its
// counter-based arrival hash (serve/trace_ids.hpp — the only sanctioned
// mint, enforced by the layering.trace-ctx rule of tools/nocw_analyze.py),
// and every child id is a pure function of (parent span id, child slot) via
// derive_child().
// Two runs of the same workload therefore produce bit-identical id trees
// at any NOCW_THREADS, and a span id seen in a Perfetto export can be
// matched against the nocw.reqtrace.v1 JSON without any join table.
//
// Propagation mirrors ScopedTimeBase: a thread-local current context that
// Tracer::record() stamps onto every event whose own context is unset.
// The serving driver pushes the request/batch context around its replay of
// the accelerator simulation, so the accel/noc phase spans (emitted on the
// calling thread) land attributed to the owning request. Worker-pool
// threads never inherit the context — their per-hop instants stay
// unattributed (trace_id 0), which is the honest statement that a single
// router cycle serves many requests at once.
#pragma once

#include <cstdint>

namespace nocw::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;  ///< 0 = no request attribution
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

/// Child context under `parent`: same trace id, parent's span id as the
/// parent link, and a span id that is a pure hash of (parent span id,
/// slot). Slots number the children of one parent (layer index, phase
/// ordinal), so the whole id tree is reproducible from the root alone.
/// The derived span id is never zero.
[[nodiscard]] TraceContext derive_child(const TraceContext& parent,
                                        std::uint64_t slot) noexcept;

/// The calling thread's current context (invalid by default).
[[nodiscard]] const TraceContext& trace_context() noexcept;

/// RAII override of the thread-local context (absolute, like
/// ScopedTimeBase: the previous context is restored on destruction).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx) noexcept;
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

}  // namespace nocw::obs
