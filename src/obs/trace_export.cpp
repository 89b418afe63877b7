#include "obs/trace_export.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace nocw::obs {

namespace {

const char* process_name(std::uint32_t pid) noexcept {
  switch (pid) {
    case kPidAccel: return "accelerator";
    case kPidNoc: return "noc";
    case kPidDecomp: return "decompressor";
    case kPidEval: return "eval";
    default: return "nocw";
  }
}

const char* category_label(std::uint32_t cat) noexcept {
  switch (cat) {
    case kCatNoc: return "noc";
    case kCatMac: return "mac";
    case kCatDecomp: return "decomp";
    case kCatLayer: return "layer";
    case kCatMem: return "mem";
    case kCatEval: return "eval";
    default: return "misc";
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // names are ASCII
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_chrome_json(std::span<const TraceEvent> events) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // process_name metadata first, one entry per pid seen.
  std::map<std::uint32_t, bool> pids;
  for (const TraceEvent& ev : events) pids.emplace(ev.pid, true);
  for (const auto& [pid, unused] : pids) {
    (void)unused;
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << process_name(pid) << "\"}}";
  }
  for (const TraceEvent& ev : events) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
       << category_label(ev.cat) << "\",\"ph\":\"" << ev.ph
       << "\",\"ts\":" << ev.ts;
    if (ev.ph == 'X') os << ",\"dur\":" << ev.dur;
    os << ",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
    if (ev.ph == 'i') os << ",\"s\":\"t\"";  // instant scope: thread
    if (ev.arg_name != nullptr) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", ev.arg);
      os << ",\"args\":{\"" << ev.arg_name << "\":" << buf << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
        "\"tool\":\"nocw\",\"timebase\":\"1 simulated cycle = 1 us\"}}\n";
  return os.str();
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<TraceEvent> events = Tracer::global().collect();
  const std::string json = to_chrome_json(events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (written != json.size()) std::fclose(f);
  return ok;
}

}  // namespace nocw::obs
