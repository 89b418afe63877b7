// Root trace-id mint for the serving layer.
//
// Every request's span tree hangs off exactly one root TraceContext, and
// this helper is the only place allowed to construct one from scratch
// (the layering.trace-ctx rule of tools/nocw_analyze.py pins TraceContext
// construction here and inside the obs trace plumbing). The root ids are derived from
// serve::arrival_hash — the same counter-based stream that times the
// arrivals — keyed by (trace seed, request id), so the whole id tree for a
// workload is a pure function of the sweep configuration: bit-identical
// across NOCW_THREADS, schedulers, and repeat runs, and stable enough to
// diff trace exports across commits.
#pragma once

#include <cstdint>

#include "obs/trace_context.hpp"

namespace nocw::serve {

/// Salt folded into arrival_hash for trace-id minting, disjoint from the
/// inter-arrival and MMPP state-flip salts so tracing can never perturb
/// the generated timeline.
inline constexpr std::uint64_t kSaltTraceId = 0x7201;

/// Mint the root context for `request_id` under `seed` (the sweep's trace
/// seed). trace_id and span_id are independent nonzero hashes; the root
/// has no parent (parent_span_id = 0).
[[nodiscard]] obs::TraceContext request_trace_context(
    std::uint64_t seed, std::uint64_t request_id) noexcept;

}  // namespace nocw::serve
