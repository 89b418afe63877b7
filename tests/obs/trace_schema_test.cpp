// Schema validation for exported Chrome-trace JSON (the CI contract).
//
// Generates a real trace in-process — a compressed LeNet-5 inference plus a
// decompressor-unit FSM run — then validates the exported JSON line-wise:
// every event carries the ph/ts/pid/tid/name keys, timestamps are
// monotonically non-decreasing per (pid, tid) track, and the event classes
// the ISSUE promises (router hops, MAC spans, decompressor phases, layer
// markers) are all present.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "accel/simulator.hpp"
#include "core/decompressor_unit.hpp"
#include "nn/models.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/thread_pool.hpp"

namespace nocw::obs {
namespace {

#if defined(NOCW_TRACE_DISABLED)

TEST(TraceSchema, SkippedWhenCompiledOut) {
  GTEST_SKIP() << "NOCW_TRACING=OFF: no trace to validate";
}

#else

// Extracts the numeric value following `"key":` on an event line.
std::uint64_t num_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing " << key << " in: " << line;
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

char ph_field(const std::string& line) {
  const auto pos = line.find("\"ph\":\"");
  EXPECT_NE(pos, std::string::npos) << line;
  return pos == std::string::npos ? '?' : line[pos + 6];
}

// Opens every trace gate and empties the buffers.
void begin_trace() {
  Tracer::set_enabled(true);
  Tracer::set_categories(kCatAll);
  Tracer::set_sample_every(1);
  Tracer::global().clear();
}

// Exports what was recorded since begin_trace() and closes the gate.
std::string end_trace() {
  const std::string json = to_chrome_json(Tracer::global().collect());
  Tracer::global().clear();
  Tracer::set_enabled(false);
  return json;
}

// One compressed LeNet-5 inference through the accelerator simulator.
void simulate_lenet5() {
  // Small NoC windows keep the cycle engine fast while still producing
  // thousands of hop/inject/eject events.
  accel::AccelConfig cfg;
  cfg.noc_window_flits = 1500;
  const accel::ModelSummary summary = accel::summarize(nn::make_lenet5());

  // Synthetic 4:1 plan over every weight layer: exercises the decompress
  // span without running the codec.
  accel::CompressionPlan plan;
  for (const accel::LayerSummary& l : summary.layers) {
    if (l.weight_count > 0) {
      plan[l.name] = {l.weight_count * 8, l.weight_count};
    }
  }
  const accel::AcceleratorSim sim(cfg);
  (void)sim.simulate(summary, &plan);
}

std::string generate_trace_json() {
  begin_trace();
  simulate_lenet5();

  // Drive the FSM model for decomp.load/init/run events. Constructed after
  // set_enabled so its cached gate is open.
  core::DecompressorUnit unit;
  unit.load({0.25F, 1.0F, 16});
  while (unit.busy()) (void)unit.tick();

  return end_trace();
}

/// FNV-1a over the bytes of `s`.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(TraceSchema, ChromeTraceValidatesLineWise) {
  const std::string json = generate_trace_json();
  ASSERT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);

  std::istringstream in(json);
  std::string line;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> last_ts;
  std::size_t events = 0;
  bool saw_hop = false;
  bool saw_mac = false;
  bool saw_decomp = false;
  bool saw_layer = false;
  bool saw_process_meta = false;

  while (std::getline(in, line)) {
    if (line.rfind("{\"name\":", 0) != 0) continue;  // header/footer lines
    ++events;

    // Required keys on every event line.
    for (const char* key : {"\"name\":", "\"ph\":", "\"pid\":", "\"tid\":",
                            "\"ts\":"}) {
      EXPECT_NE(line.find(key), std::string::npos)
          << "missing " << key << " in: " << line;
    }
    const char ph = ph_field(line);
    EXPECT_TRUE(ph == 'M' || ph == 'i' || ph == 'X')
        << "unexpected ph '" << ph << "' in: " << line;

    if (ph == 'M') {
      if (line.find("\"process_name\"") != std::string::npos) {
        saw_process_meta = true;
      }
      continue;  // metadata records carry ts 0 and sit outside the timeline
    }

    // Monotonic timestamps within each (pid, tid) track.
    const std::uint64_t pid = num_field(line, "pid");
    const std::uint64_t tid = num_field(line, "tid");
    const std::uint64_t ts = num_field(line, "ts");
    const auto track = std::make_pair(pid, tid);
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second)
          << "ts regressed on track pid=" << pid << " tid=" << tid;
      it->second = ts;
    } else {
      last_ts.emplace(track, ts);
    }

    if (line.find("\"name\":\"hop\"") != std::string::npos) saw_hop = true;
    if (line.find("\"name\":\"mac\"") != std::string::npos) saw_mac = true;
    if (line.find("\"name\":\"decomp.run\"") != std::string::npos ||
        line.find("\"name\":\"decompress\"") != std::string::npos) {
      saw_decomp = true;
    }
    if (line.find("\"name\":\"layer:") != std::string::npos) saw_layer = true;
  }

  EXPECT_GT(events, 100u) << "suspiciously small trace";
  EXPECT_TRUE(saw_process_meta) << "no process_name metadata";
  EXPECT_TRUE(saw_hop) << "no router-hop events";
  EXPECT_TRUE(saw_mac) << "no MAC spans";
  EXPECT_TRUE(saw_decomp) << "no decompressor events";
  EXPECT_TRUE(saw_layer) << "no layer markers";
}

TEST(TraceSchema, EveryLayerMarkerMatchesAMacroLayer) {
  const std::string json = generate_trace_json();
  const accel::ModelSummary summary = accel::summarize(nn::make_lenet5());
  std::size_t markers = 0;
  for (const std::size_t i : summary.macro_layers()) {
    const std::string needle =
        "\"name\":\"layer:" + summary.layers[i].name + "\"";
    if (json.find(needle) != std::string::npos) ++markers;
  }
  // The ring may drop the oldest events under very small NOCW_TRACE_BUF
  // overrides, but with defaults every macro layer must be marked.
  EXPECT_EQ(markers, summary.macro_layers().size());
}

TEST(TraceSchema, LeNet5ExportMatchesGoldenHash) {
  // Pins the Chrome/Perfetto export of one traced LeNet-5 inference byte
  // for byte. The hash was recorded while TraceEvent still carried
  // request-attribution ids (emitted only when set, and nothing here set
  // them), so it also proves their removal left the export unchanged. The
  // same bytes come out at 1 and 2 threads.
  constexpr std::uint64_t kGolden = 0xcf2f61a939b8ea9dULL;
  const unsigned saved = global_thread_count();
  for (const unsigned threads : {1U, 2U}) {
    set_global_threads(threads);
    begin_trace();
    simulate_lenet5();
    EXPECT_EQ(fnv1a(end_trace()), kGolden) << "threads " << threads;
  }
  set_global_threads(saved);
}

#endif  // NOCW_TRACE_DISABLED

}  // namespace
}  // namespace nocw::obs
