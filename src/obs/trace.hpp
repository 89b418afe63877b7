// Cycle-level event tracer: ring-buffered, per-thread, zero when disabled.
//
// Emitters (the NoC cycle engine, the accelerator simulator, the
// decompressor FSM) record instants and spans stamped in *simulated cycles*;
// obs/trace_export turns the merged stream into Chrome-trace/Perfetto JSON
// that opens directly in ui.perfetto.dev. Three layers of gating keep the
// disabled path free:
//
//   1. compile-out: building with -DNOCW_TRACE_DISABLED (CMake option
//      NOCW_TRACING=OFF) turns every NOCW_TRACE_* macro into ((void)0) and
//      NOCW_TRACE_ON(cat) into the constant false, so instrumented branches
//      fold away entirely;
//   2. process switch: NOCW_TRACE=1 enables recording at runtime (default
//      off); the check is one relaxed atomic load, and hot emitters cache it
//      in a bool at construction;
//   3. category mask: NOCW_TRACE_CATEGORIES selects event families
//      ("noc,mac,decomp,layer,mem,eval" or "all"), and NOCW_TRACE_SAMPLE=N
//      keeps only every Nth router-hop instant (deterministic, counter-based)
//      so a multi-million-flit layer traces at bounded cost.
//
// Buffers are strictly per-thread (registered on first record), sized by
// NOCW_TRACE_BUF events each; when full they drop the *oldest* events and
// count the drops, so a trace always holds the most recent window. Tracing
// never feeds back into simulation state: results are bit-identical with
// tracing on, off, or compiled out.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nocw::obs {

/// Event families, maskable via NOCW_TRACE_CATEGORIES.
enum Category : std::uint32_t {
  kCatNoc = 1u << 0,     ///< packet inject/eject, router hops, retransmission
  kCatMac = 1u << 1,     ///< MAC-lane busy spans
  kCatDecomp = 1u << 2,  ///< decompressor FSM phases
  kCatLayer = 1u << 3,   ///< layer begin/end markers
  kCatMem = 1u << 4,     ///< DRAM phase spans
  kCatEval = 1u << 5,    ///< evaluation-driver spans
  kCatAll = 0xffffffffu,
};

/// Stable process ids for the Perfetto track hierarchy (process = subsystem,
/// thread = node/lane within it). Exported as process_name metadata.
inline constexpr std::uint32_t kPidAccel = 1;   ///< layer/phase spans
inline constexpr std::uint32_t kPidNoc = 2;     ///< per-router instants
inline constexpr std::uint32_t kPidDecomp = 3;  ///< decompressor FSM
inline constexpr std::uint32_t kPidEval = 4;    ///< evaluation drivers

/// "noc,mac" -> mask; "all"/"" -> kCatAll. Unknown names are ignored, and
/// one stderr line per call names every one of them.
[[nodiscard]] std::uint32_t parse_categories(const std::string& csv) noexcept;

/// One trace event. ph follows the Chrome trace format: 'i' instant,
/// 'X' complete span (ts + dur), 'C' counter sample.
struct TraceEvent {
  std::string name;
  char ph = 'i';
  std::uint32_t cat = kCatNoc;
  std::uint32_t pid = kPidNoc;
  std::uint32_t tid = 0;
  std::uint64_t ts = 0;   ///< simulated cycle (exported as microseconds)
  std::uint64_t dur = 0;  ///< span length in cycles ('X' only)
  const char* arg_name = nullptr;  ///< optional single numeric arg (static)
  double arg = 0.0;
};

class Tracer {
 public:
  /// Master switch (NOCW_TRACE, overridable for tests/benches).
  [[nodiscard]] static bool enabled() noexcept;
  static void set_enabled(bool on) noexcept;

  /// Category mask (NOCW_TRACE_CATEGORIES).
  [[nodiscard]] static bool category_on(std::uint32_t cat) noexcept;
  static void set_categories(std::uint32_t mask) noexcept;

  /// Router-hop sampling period N >= 1 (NOCW_TRACE_SAMPLE): emitters record
  /// every Nth high-frequency instant. Deterministic: the counter lives in
  /// the emitter, not the clock.
  [[nodiscard]] static std::uint32_t sample_every() noexcept;
  static void set_sample_every(std::uint32_t n) noexcept;

  /// Append to the calling thread's ring buffer (registering it on first
  /// use). The thread-local time base (see ScopedTimeBase) is added to ts.
  void record(TraceEvent ev);
  void record_instant(std::uint32_t cat, std::string name, std::uint32_t pid,
                      std::uint32_t tid, std::uint64_t ts,
                      const char* arg_name = nullptr, double arg = 0.0);
  void record_span(std::uint32_t cat, std::string name, std::uint32_t pid,
                   std::uint32_t tid, std::uint64_t ts, std::uint64_t dur,
                   const char* arg_name = nullptr, double arg = 0.0);

  /// Merge every thread's buffer, ordered by (pid, tid, ts). Must be called
  /// outside parallel regions (after the pool joined), like any aggregation
  /// over per-thread state.
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// Events currently held / dropped (ring overwrote the oldest).
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Drop all buffered events (buffers stay registered). Same caveat as
  /// collect(): only between parallel regions.
  void clear();

  /// Per-thread ring capacity in events (NOCW_TRACE_BUF, default 1<<16).
  [[nodiscard]] static std::size_t buffer_capacity() noexcept;
  /// Test-only override of the ring capacity. Takes effect for events
  /// recorded after the call; set it before any thread records so every
  /// ring sees one consistent bound (tests/obs/trace_test.cpp forces a
  /// tiny ring to exercise drop-oldest accounting).
  static void set_buffer_capacity(std::size_t cap) noexcept;

  static Tracer& global();

 private:
  struct Buffer {
    std::vector<TraceEvent> ring;  ///< capacity-bounded, oldest overwritten
    std::size_t next = 0;          ///< write cursor once the ring is full
    std::uint64_t total = 0;       ///< events ever recorded by this thread
  };

  Buffer& local_buffer();

  mutable std::mutex mu_;  ///< guards buffers_ registration and collection
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Thread-local cycle offset added to every recorded ts. The accelerator
/// simulator stacks layers on one global timeline by setting the base to the
/// cumulative cycle count before each layer; the NoC engine, which only
/// knows phase-local cycles, stamps `time_base() + local_cycle`.
[[nodiscard]] std::uint64_t time_base() noexcept;

/// RAII override of the thread-local time base (absolute, not additive).
class ScopedTimeBase {
 public:
  explicit ScopedTimeBase(std::uint64_t base) noexcept;
  ~ScopedTimeBase();
  ScopedTimeBase(const ScopedTimeBase&) = delete;
  ScopedTimeBase& operator=(const ScopedTimeBase&) = delete;

 private:
  std::uint64_t prev_;
};

}  // namespace nocw::obs

// Emission macros. The disabled build folds the whole call away; the enabled
// build checks the process switch + category mask before evaluating any
// argument expression.
#if defined(NOCW_TRACE_DISABLED)
#define NOCW_TRACE_ON(cat) false
#define NOCW_TRACE_INSTANT(cat, name, pid, tid, ts) ((void)0)
#define NOCW_TRACE_INSTANT_ARG(cat, name, pid, tid, ts, arg_name, arg) \
  ((void)0)
#define NOCW_TRACE_SPAN(cat, name, pid, tid, ts, dur) ((void)0)
#define NOCW_TRACE_SPAN_ARG(cat, name, pid, tid, ts, dur, arg_name, arg) \
  ((void)0)
#else
#define NOCW_TRACE_ON(cat)                \
  (::nocw::obs::Tracer::enabled() &&      \
   ::nocw::obs::Tracer::category_on(cat))
#define NOCW_TRACE_INSTANT(cat, name, pid, tid, ts)                        \
  do {                                                                     \
    if (NOCW_TRACE_ON(cat)) {                                              \
      ::nocw::obs::Tracer::global().record_instant(cat, name, pid, tid,    \
                                                   ts);                    \
    }                                                                      \
  } while (false)
#define NOCW_TRACE_INSTANT_ARG(cat, name, pid, tid, ts, arg_name, arg)     \
  do {                                                                     \
    if (NOCW_TRACE_ON(cat)) {                                              \
      ::nocw::obs::Tracer::global().record_instant(cat, name, pid, tid,    \
                                                   ts, arg_name, arg);     \
    }                                                                      \
  } while (false)
#define NOCW_TRACE_SPAN(cat, name, pid, tid, ts, dur)                      \
  do {                                                                     \
    if (NOCW_TRACE_ON(cat)) {                                              \
      ::nocw::obs::Tracer::global().record_span(cat, name, pid, tid, ts,   \
                                                dur);                      \
    }                                                                      \
  } while (false)
#define NOCW_TRACE_SPAN_ARG(cat, name, pid, tid, ts, dur, arg_name, arg)   \
  do {                                                                     \
    if (NOCW_TRACE_ON(cat)) {                                              \
      ::nocw::obs::Tracer::global().record_span(cat, name, pid, tid, ts,   \
                                                dur, arg_name, arg);       \
    }                                                                      \
  } while (false)
#endif
