#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "util/env.hpp"

namespace nocw::obs {

namespace {

struct Flags {
  std::atomic<bool> enabled;
  std::atomic<std::uint32_t> categories;
  std::atomic<std::uint32_t> sample_every;
  std::atomic<std::size_t> capacity;
};

Flags& flags() {
  // Leaked singleton: atomics are not movable and the flags must outlive
  // every tracing call site, including static destructors.
  static Flags* f = [] {
    auto* init = new Flags;
    init->enabled.store(env_int("NOCW_TRACE", 0) != 0,
                        std::memory_order_relaxed);
    init->categories.store(
        parse_categories(env_string("NOCW_TRACE_CATEGORIES", "all")),
        std::memory_order_relaxed);
    init->sample_every.store(
        static_cast<std::uint32_t>(env_int("NOCW_TRACE_SAMPLE", 1, 1)),
        std::memory_order_relaxed);
    init->capacity.store(
        static_cast<std::size_t>(
            env_int("NOCW_TRACE_BUF", std::int64_t{1} << 16, 16)),
        std::memory_order_relaxed);
    return init;
  }();
  return *f;
}

struct CategoryName {
  const char* name;
  std::uint32_t bit;
};

constexpr CategoryName kCategoryNames[] = {
    {"noc", kCatNoc},       {"mac", kCatMac},   {"decomp", kCatDecomp},
    {"layer", kCatLayer},   {"mem", kCatMem},   {"eval", kCatEval},
};

thread_local std::uint64_t tl_time_base = 0;

}  // namespace

std::uint32_t parse_categories(const std::string& csv) noexcept {
  if (csv.empty() || csv == "all") return kCatAll;
  std::uint32_t mask = 0;
  std::string unknown;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    const std::string token = csv.substr(start, end - start);
    bool known = token == "all";
    if (known) mask = kCatAll;
    for (const auto& [name, bit] : kCategoryNames) {
      if (token == name) {
        mask |= bit;
        known = true;
      }
    }
    if (!known && !token.empty()) {
      unknown += (unknown.empty() ? "\"" : ", \"") + token + "\"";
    }
    start = end + 1;
  }
  if (!unknown.empty()) {
    std::string names;
    for (const CategoryName& c : kCategoryNames) {
      names += std::string(c.name) + ", ";
    }
    std::fprintf(stderr,
                 "nocw: NOCW_TRACE_CATEGORIES: ignoring unknown category %s "
                 "(known: %sall)\n",
                 unknown.c_str(), names.c_str());
  }
  return mask;
}

bool Tracer::enabled() noexcept {
  return flags().enabled.load(std::memory_order_relaxed);
}

void Tracer::set_enabled(bool on) noexcept {
  flags().enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::category_on(std::uint32_t cat) noexcept {
  return (flags().categories.load(std::memory_order_relaxed) & cat) != 0;
}

void Tracer::set_categories(std::uint32_t mask) noexcept {
  flags().categories.store(mask, std::memory_order_relaxed);
}

std::uint32_t Tracer::sample_every() noexcept {
  return std::max(1u, flags().sample_every.load(std::memory_order_relaxed));
}

void Tracer::set_sample_every(std::uint32_t n) noexcept {
  flags().sample_every.store(std::max(1u, n), std::memory_order_relaxed);
}

std::size_t Tracer::buffer_capacity() noexcept {
  return flags().capacity.load(std::memory_order_relaxed);
}

void Tracer::set_buffer_capacity(std::size_t cap) noexcept {
  flags().capacity.store(std::max<std::size_t>(1, cap),
                         std::memory_order_relaxed);
}

Tracer::Buffer& Tracer::local_buffer() {
  // One buffer per (tracer, thread). The raw pointer is safe because the
  // tracer is a process-lifetime singleton and buffers are never removed.
  thread_local Buffer* cached = nullptr;
  thread_local const Tracer* cached_owner = nullptr;
  if (cached && cached_owner == this) return *cached;
  const std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  buffers_.back()->ring.reserve(buffer_capacity());
  cached = buffers_.back().get();
  cached_owner = this;
  return *cached;
}

void Tracer::record(TraceEvent ev) {
  ev.ts += tl_time_base;
  Buffer& buf = local_buffer();
  ++buf.total;
  if (buf.ring.size() < buffer_capacity()) {
    buf.ring.push_back(std::move(ev));
    return;
  }
  // Ring is full: overwrite the oldest event, keep the most recent window.
  buf.ring[buf.next] = std::move(ev);
  buf.next = (buf.next + 1) % buf.ring.size();
}

void Tracer::record_instant(std::uint32_t cat, std::string name,
                            std::uint32_t pid, std::uint32_t tid,
                            std::uint64_t ts, const char* arg_name,
                            double arg) {
  TraceEvent ev;
  ev.name = std::move(name);
  ev.ph = 'i';
  ev.cat = cat;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts = ts;
  ev.arg_name = arg_name;
  ev.arg = arg;
  record(std::move(ev));
}

void Tracer::record_span(std::uint32_t cat, std::string name,
                         std::uint32_t pid, std::uint32_t tid,
                         std::uint64_t ts, std::uint64_t dur,
                         const char* arg_name, double arg) {
  TraceEvent ev;
  ev.name = std::move(name);
  ev.ph = 'X';
  ev.cat = cat;
  ev.pid = pid;
  ev.tid = tid;
  ev.ts = ts;
  ev.dur = dur;
  ev.arg_name = arg_name;
  ev.arg = arg;
  record(std::move(ev));
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      // Oldest-first within the buffer: [next, end) then [0, next).
      for (std::size_t i = buf->next; i < buf->ring.size(); ++i) {
        out.push_back(buf->ring[i]);
      }
      for (std::size_t i = 0; i < buf->next; ++i) {
        out.push_back(buf->ring[i]);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts < b.ts;
                   });
  return out;
}

std::uint64_t Tracer::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buf : buffers_) n += buf->ring.size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& buf : buffers_) n += buf->total - buf->ring.size();
  return n;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    buf->ring.clear();
    buf->next = 0;
    buf->total = 0;
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t time_base() noexcept { return tl_time_base; }

ScopedTimeBase::ScopedTimeBase(std::uint64_t base) noexcept
    : prev_(tl_time_base) {
  tl_time_base = base;
}

ScopedTimeBase::~ScopedTimeBase() { tl_time_base = prev_; }

}  // namespace nocw::obs
