// Benchmark runner: runs one named workload against the nocweight library in
// a closed loop (one thread issuing library calls back to back; parallelism
// only inside the library) and prints, as its last stdout line, one JSON
// object with the set-up times, every pass's wall and CPU time, and every
// op's outputs. perfbench/run.py builds this runner, pins the environment,
// checks the outputs against recorded references and derives the metrics.
//
//   perfbench_runner --workload zoo_sweep --seed 3 --seconds 15
//                    [--trace 0|1] [--scale full|tiny] [--trace-out PATH]
//
// Set-up (model construction, seeded init, input generation, summaries) runs
// kSetupReps times and is timed on its own. Timed passes then repeat the
// workload until --seconds have elapsed.
//
// With --trace 1, untraced and traced passes alternate. A traced pass makes
// each layer's public calls itself — it unrolls DeltaEvaluator construction
// and evaluate_many into select_layer / make_probes / forward_capturing /
// compress / decompress / forward_tail, and AcceleratorSim::simulate into
// simulate_layer — and wraps every call in a span. Spans (name, start, end,
// parent, op id, plus work counts such as simulated cycles) are kept in
// memory and written as Chrome-trace JSON at exit; Perfetto opens the file.
// Traced passes report the same op outputs, so the unrolled calls are
// checked against the same references as the library entry points.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "accel/simulator.hpp"
#include "accel/summary.hpp"
#include "core/codec.hpp"
#include "eval/flow.hpp"
#include "eval/layer_selection.hpp"
#include "eval/probes.hpp"
#include "nn/digits.hpp"
#include "nn/metrics.hpp"
#include "nn/models.hpp"
#include "nn/train.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nocw;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  std::string op;
  std::string label;  ///< CNN layer name for simulate_layer spans
  double t0_us = 0.0;
  double t1_us = 0.0;
  int id = 0;
  int parent = -1;
  std::vector<std::pair<std::string, double>> args;
};

/// In-memory span log. Only the runner thread opens spans, so a plain stack
/// tracks the parent. Disabled, every call is a no-op.
class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string_view name, std::string_view op) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.t0_us = now_us();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1_us = now_us();
    stack_.pop_back();
  }
  void arg(int id, std::string_view key, double value) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
    }
  }
  void label(int id, std::string_view text) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].label = text;
  }

  void write_chrome(const std::string& path, const std::string& title) const;

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Recorder& rec, std::string_view name, std::string_view op = {})
      : rec_(rec), id_(rec.open(name, op)) {}
  ~Scope() { rec_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void arg(std::string_view key, double value) { rec_.arg(id_, key, value); }
  void label(std::string_view text) { rec_.label(id_, text); }

 private:
  Recorder& rec_;
  int id_;
};

// ---------------------------------------------------------------------------
// JSON output

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      os << buf;
    } else {
      os << ch;
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void Recorder::write_chrome(const std::string& path,
                            const std::string& title) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":";
  json_string(os, title);
  os << "}}";
  for (const Span& s : spans_) {
    os << ",\n{\"name\":";
    json_string(os, s.name);
    os << ",\"cat\":";
    json_string(os, s.name.substr(0, s.name.find('.')));
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    json_number(os, s.t0_us);
    os << ",\"dur\":";
    json_number(os, s.t1_us - s.t0_us);
    os << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"op\":";
    json_string(os, s.op);
    if (!s.label.empty()) {
      os << ",\"layer\":";
      json_string(os, s.label);
    }
    for (const auto& [k, v] : s.args) {
      os << ',';
      json_string(os, k);
      os << ':';
      json_number(os, v);
    }
    os << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("short write to trace file " + path);
}

// ---------------------------------------------------------------------------
// Op outputs

/// One checked unit of work. `exact` outputs must equal the reference
/// bit for bit; `approx` outputs depend on the nn float summation order and
/// are compared within run.py's stated tolerance.
struct Op {
  std::string id;
  std::vector<std::pair<std::string, std::variant<double, std::string>>> exact;
  std::vector<std::pair<std::string, double>> approx;

  void put(std::string key, double v, bool is_exact) {
    if (is_exact) {
      exact.emplace_back(std::move(key), v);
    } else {
      approx.emplace_back(std::move(key), v);
    }
  }
};

void put_inference(Op& op, const accel::InferenceResult& r, bool is_exact) {
  const auto& lat = r.latency;
  const auto& e = r.energy;
  double flits = 0.0;
  for (const auto& l : r.layers) {
    flits += static_cast<double>(l.total_flits.value());
  }
  op.put("memory_cycles", lat.memory_cycles.value(), is_exact);
  op.put("comm_cycles", lat.comm_cycles.value(), is_exact);
  op.put("compute_cycles", lat.compute_cycles.value(), is_exact);
  op.put("flits", flits, is_exact);
  op.put("comm_dyn_j", e.communication.dynamic_j.value(), is_exact);
  op.put("comm_leak_j", e.communication.leakage_j.value(), is_exact);
  op.put("comp_dyn_j", e.computation.dynamic_j.value(), is_exact);
  op.put("comp_leak_j", e.computation.leakage_j.value(), is_exact);
  op.put("lmem_dyn_j", e.local_memory.dynamic_j.value(), is_exact);
  op.put("lmem_leak_j", e.local_memory.leakage_j.value(), is_exact);
  op.put("mmem_dyn_j", e.main_memory.dynamic_j.value(), is_exact);
  op.put("mmem_leak_j", e.main_memory.leakage_j.value(), is_exact);
}

void put_point(Op& op, const eval::DeltaPoint& p, bool is_exact) {
  op.put("cr", p.report.cr, is_exact);
  op.put("mse", p.report.mse, is_exact);
  op.put("segments", static_cast<double>(p.report.segment_count), is_exact);
  op.put("compressed_bits", static_cast<double>(p.compression.compressed_bits),
         is_exact);
}

std::string op_id(const std::string& model, std::string_view tail) {
  return model + "/" + std::string(tail);
}

std::string delta_tag(double delta) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "d%g", delta);
  return buf;
}

// ---------------------------------------------------------------------------
// Layer calls shared by the workloads

/// Per-pass state: the span log, whether to unroll entry points that hide
/// two layers, and what the pass produced.
struct Pass {
  Recorder& rec;
  bool unroll = false;
  std::vector<Op> ops;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  void count_cache(const accel::AcceleratorSim& sim) {
    cache_hits += sim.noc_phase_cache_hits();
    cache_misses += sim.noc_phase_cache_misses();
  }
};

std::string_view layer_bucket(nn::LayerType t) {
  switch (t) {
    case nn::LayerType::Conv2D:
      return "accel.simulate_layer.conv";
    case nn::LayerType::DepthwiseConv2D:
      return "accel.simulate_layer.depthwise";
    case nn::LayerType::Dense:
      return "accel.simulate_layer.dense";
    case nn::LayerType::MaxPool:
    case nn::LayerType::AvgPool:
    case nn::LayerType::GlobalAvgPool:
      return "accel.simulate_layer.pool";
    default:
      return "accel.simulate_layer.other";
  }
}

/// AcceleratorSim::simulate, or — unrolled — its simulate_layer calls in the
/// same order with the same accumulation.
accel::InferenceResult simulate(Pass& pass, const accel::AcceleratorSim& sim,
                                const accel::ModelSummary& summary,
                                const accel::CompressionPlan* plan,
                                std::string_view op) {
  Scope span(pass.rec, "accel.simulate", op);
  accel::InferenceResult r;
  if (!pass.unroll) {
    r = sim.simulate(summary, plan);
  } else {
    r.model_name = summary.model_name;
    for (std::size_t i = 0; i < summary.layers.size(); ++i) {
      const accel::LayerSummary& layer = summary.layers[i];
      const accel::LayerCompression* lc = nullptr;
      if (plan) {
        const auto it = plan->find(layer.name);
        if (it != plan->end()) lc = &it->second;
      }
      accel::LayerResult lr;
      {
        Scope ls(pass.rec, layer_bucket(layer.type), op);
        ls.label(layer.name);
        lr = sim.simulate_layer(layer, lc, static_cast<std::uint32_t>(i));
        ls.arg("sim_cycles", lr.latency.total().value());
        ls.arg("flits", static_cast<double>(lr.total_flits.value()));
      }
      if (!layer.traffic_bearing) continue;
      r.latency += lr.latency;
      r.energy += lr.energy;
      r.layers.push_back(std::move(lr));
    }
  }
  span.arg("sim_cycles", r.total_cycles().value());
  return r;
}

struct Sweep {
  std::string selected_layer;
  double baseline_accuracy = 0.0;
  std::vector<eval::DeltaPoint> points;
};

/// The Fig. 8 flow for one model: build the evaluator (probe-prefix forward)
/// and evaluate the δ grid. `test` selects labeled mode. Unrolled, the
/// evaluator's public layer calls are made here, serially, in its order.
Sweep delta_sweep(Pass& pass, nn::Model& model,
                  const accel::ModelSummary& summary,
                  const eval::EvalConfig& cfg, const nn::Dataset* test,
                  const std::vector<double>& grid) {
  Sweep out;
  if (!pass.unroll) {
    std::optional<eval::DeltaEvaluator> ev;
    {
      Scope s(pass.rec, "eval.prepare", model.name);
      if (test) {
        ev.emplace(model, *test, cfg);
      } else {
        ev.emplace(model, cfg);
      }
    }
    out.selected_layer = ev->selected_layer();
    out.baseline_accuracy = ev->baseline_accuracy();
    out.points = ev->evaluate_many(grid);
    return out;
  }

  int node = -1;
  std::vector<float> original;
  double fraction = 0.0;
  nn::Tensor baseline;
  nn::Tensor captured;
  {
    Scope s(pass.rec, "eval.prepare", model.name);
    node = eval::select_layer(model);
    const nn::Layer& layer = model.graph.layer(node);
    out.selected_layer = layer.name();
    const auto kernel = layer.kernel();
    original.assign(kernel.begin(), kernel.end());
    fraction = static_cast<double>(layer.param_count()) /
               static_cast<double>(model.graph.total_params());
    const nn::Tensor probes =
        test ? nn::Tensor{}
             : eval::make_probes(cfg.probes, model.input_size,
                                 model.input_channels, cfg.probe_seed);
    const nn::Tensor& inputs = test ? test->images : probes;
    {
      Scope f(pass.rec, "nn.forward_capturing", model.name);
      f.arg("macs", static_cast<double>(summary.total_macs) *
                        static_cast<double>(inputs.dim(0)));
      std::tie(baseline, captured) =
          model.graph.forward_capturing(inputs, node);
    }
    out.baseline_accuracy =
        test ? nn::topk_accuracy(baseline, test->labels, cfg.topk) : 1.0;
  }

  auto kernel = model.graph.layer(node).kernel();
  for (const double delta : grid) {
    const std::string op = op_id(model.name, delta_tag(delta));
    Scope s(pass.rec, "eval.point", op);
    eval::DeltaPoint p;
    p.delta_percent = delta;
    core::CodecConfig codec = cfg.codec;
    codec.delta_percent = delta;
    std::optional<core::CompressedLayer> c;
    {
      Scope cs(pass.rec, "core.compress", op);
      cs.arg("weights", static_cast<double>(original.size()));
      c.emplace(core::compress(original, codec));
    }
    p.report.delta_percent = delta;
    p.report.cr = c->compression_ratio();
    p.report.weighted_cr = core::weighted_cr(p.report.cr, fraction);
    p.report.mem_fp_reduction =
        core::mem_footprint_reduction(p.report.cr, fraction);
    p.report.mse = c->mse();
    p.report.segment_count = c->segments.size();
    p.report.mean_segment_length = c->mean_segment_length();
    p.compression.compressed_bits = c->compressed_bits();
    p.compression.weight_count = c->original_count;
    {
      Scope ds(pass.rec, "core.decompress", op);
      ds.arg("weights", static_cast<double>(original.size()));
      core::decompress(*c, kernel);
    }
    nn::Tensor outputs;
    {
      Scope ft(pass.rec, "nn.forward_tail", op);
      outputs = model.graph.forward_tail(captured, node);
    }
    std::copy(original.begin(), original.end(), kernel.begin());
    p.accuracy = test ? nn::topk_accuracy(outputs, test->labels, cfg.topk)
                      : nn::mean_topk_agreement(baseline, outputs, cfg.topk);
    out.points.push_back(std::move(p));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over (seed, tag): independent streams per input.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

const std::vector<double>& delta_grid(const std::string& model, bool tiny) {
  // The paper's δ grids (Table II / Fig. 10): narrow for the models whose
  // accuracy collapses early.
  static const std::vector<double> kWide{0, 5, 10, 15, 20};
  static const std::vector<double> kNarrow{0, 2, 4, 6, 8};
  static const std::vector<double> kTiny{0, 10};
  if (tiny) return kTiny;
  if (model == "VGG-16" || model == "MobileNet" || model == "ResNet50") {
    return kNarrow;
  }
  return kWide;
}

nn::Model build_model(Recorder& rec, const std::string& name,
                      std::uint64_t seed) {
  Scope s(rec, "nn.make_model", name);
  return nn::make_model(name, seed);
}

accel::ModelSummary summarize(Recorder& rec, const nn::Model& model) {
  Scope s(rec, "accel.summarize", model.name);
  return accel::summarize(model);
}

std::unique_ptr<accel::AcceleratorSim> fresh_sim(Recorder& rec) {
  Scope s(rec, "accel.construct");
  return std::make_unique<accel::AcceleratorSim>(accel::AccelConfig{});
}

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// Build every input the timed passes use (replaces earlier state).
  virtual void setup(Recorder& rec, std::uint64_t seed, bool tiny) = 0;
  virtual void run(Pass& pass) = 0;
};

/// Fig. 8/10 agreement-mode flow: probe prefix, δ sweep, and the baseline
/// plus every point simulated on one simulator per model.
class ZooSweep final : public Workload {
 public:
  void setup(Recorder& rec, std::uint64_t seed, bool tiny) override {
    models_.clear();
    summaries_.clear();
    cfgs_.clear();
    const std::vector<std::string> names =
        tiny ? std::vector<std::string>{"LeNet-5"}
             : std::vector<std::string>{"AlexNet", "MobileNet", "ResNet50"};
    for (std::size_t i = 0; i < names.size(); ++i) {
      models_.push_back(build_model(rec, names[i], mix_seed(seed, 100 + i)));
      summaries_.push_back(summarize(rec, models_.back()));
      eval::EvalConfig cfg;
      cfg.topk = 5;
      cfg.probes = 2;
      cfg.probe_seed = mix_seed(seed, 200 + i);
      cfgs_.push_back(cfg);
    }
    tiny_ = tiny;
  }

  void run(Pass& pass) override {
    for (std::size_t i = 0; i < models_.size(); ++i) {
      nn::Model& m = models_[i];
      const Sweep sw = delta_sweep(pass, m, summaries_[i], cfgs_[i], nullptr,
                                   delta_grid(m.name, tiny_));
      auto sim = fresh_sim(pass.rec);
      Op base{op_id(m.name, "base"), {}, {}};
      put_inference(base, simulate(pass, *sim, summaries_[i], nullptr,
                                   base.id),
                    true);
      base.put("accuracy", sw.baseline_accuracy, false);
      pass.ops.push_back(std::move(base));
      for (const eval::DeltaPoint& p : sw.points) {
        Op op{op_id(m.name, delta_tag(p.delta_percent)), {}, {}};
        accel::CompressionPlan plan;
        plan[sw.selected_layer] = p.compression;
        put_point(op, p, true);
        put_inference(op, simulate(pass, *sim, summaries_[i], &plan, op.id),
                      true);
        op.put("accuracy", p.accuracy, false);
        pass.ops.push_back(std::move(op));
      }
      pass.count_cache(*sim);
    }
  }

 private:
  std::vector<nn::Model> models_;
  std::vector<accel::ModelSummary> summaries_;
  std::vector<eval::EvalConfig> cfgs_;
  bool tiny_ = false;
};

std::uint64_t fnv1a(std::span<const float> v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

bool same_segments(const core::CompressedLayer& a,
                   const core::CompressedLayer& b) {
  if (a.original_count != b.original_count ||
      a.segments.size() != b.segments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    const auto& x = a.segments[i];
    const auto& y = b.segments[i];
    if (std::memcmp(&x.m, &y.m, sizeof x.m) != 0 ||
        std::memcmp(&x.q, &y.q, sizeof x.q) != 0 || x.length != y.length) {
      return false;
    }
  }
  return true;
}

/// Table II plus the storage path: compress, serialize, deserialize and
/// decompress each model's selected layer over its δ grid. Streams are the
/// layer's first kMaxStream weights: at full size VGG-16's 103 M-weight
/// layer alone spends ~40 s per δ = 0 point in serialize + deserialize.
class CodecRoundtrip final : public Workload {
 public:
  static constexpr std::size_t kMaxStream = std::size_t{1} << 20;

  void setup(Recorder& rec, std::uint64_t seed, bool tiny) override {
    layers_.clear();
    const std::vector<std::string> names =
        tiny ? std::vector<std::string>{"LeNet-5", "MobileNet"}
             : nn::model_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const nn::Model m = build_model(rec, names[i], mix_seed(seed, 300 + i));
      Scope s(rec, "eval.select_layer", m.name);
      const auto kernel = m.graph.layer(eval::select_layer(m)).kernel();
      const std::size_t n = std::min<std::size_t>(kernel.size(), kMaxStream);
      layers_.push_back({m.name, {kernel.begin(), kernel.begin() + n}});
    }
    tiny_ = tiny;
  }

  void run(Pass& pass) override {
    for (const auto& [name, weights] : layers_) {
      std::vector<float> out(weights.size());
      for (const double delta : delta_grid(name, tiny_)) {
        Op op{op_id(name, delta_tag(delta)), {}, {}};
        const auto n = static_cast<double>(weights.size());
        core::CodecConfig cfg;
        cfg.delta_percent = delta;
        std::optional<core::CompressedLayer> c;
        {
          Scope s(pass.rec, "core.compress", op.id);
          s.arg("weights", n);
          c.emplace(core::compress(weights, cfg));
        }
        std::vector<std::uint8_t> bytes;
        {
          Scope s(pass.rec, "core.serialize", op.id);
          bytes = core::serialize(*c);
        }
        std::optional<core::CompressedLayer> back;
        {
          Scope s(pass.rec, "core.deserialize", op.id);
          back.emplace(core::deserialize(bytes));
        }
        {
          Scope s(pass.rec, "core.decompress", op.id);
          s.arg("weights", n);
          core::decompress(*back, out);
        }
        char hash[24];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(fnv1a(out)));
        op.put("cr", c->compression_ratio(), true);
        op.put("mse", c->mse(), true);
        op.put("segments", static_cast<double>(c->segments.size()), true);
        op.put("compressed_bits", static_cast<double>(c->compressed_bits()),
               true);
        op.put("stream_bytes", static_cast<double>(bytes.size()), true);
        op.put("roundtrip_exact", same_segments(*c, *back) ? 1.0 : 0.0, true);
        op.exact.emplace_back("weights_fnv1a", std::string(hash));
        pass.ops.push_back(std::move(op));
      }
    }
  }

 private:
  std::vector<std::pair<std::string, std::vector<float>>> layers_;
  bool tiny_ = false;
};

/// Cold inference simulations: every op gets a fresh simulator, so the NoC
/// phase cache only hits on layer shapes repeated within one inference.
class AccelCold final : public Workload {
 public:
  void setup(Recorder& rec, std::uint64_t seed, bool tiny) override {
    summaries_.clear();
    const std::vector<std::string> names =
        tiny ? std::vector<std::string>{"LeNet-5"} : nn::model_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const nn::Model m = build_model(rec, names[i], mix_seed(seed, 400 + i));
      summaries_.push_back(summarize(rec, m));
    }
  }

  void run(Pass& pass) override {
    for (const accel::ModelSummary& s : summaries_) {
      const accel::CompressionPlan resident = accel::resident_weights_plan(s);
      for (const bool warm : {false, true}) {
        Op op{op_id(s.model_name, warm ? "resident" : "full"), {}, {}};
        auto sim = fresh_sim(pass.rec);
        put_inference(op, simulate(pass, *sim, s, warm ? &resident : nullptr,
                                   op.id),
                      true);
        pass.count_cache(*sim);
        pass.ops.push_back(std::move(op));
      }
    }
  }

 private:
  std::vector<accel::ModelSummary> summaries_;
};

/// LeNet-5 trained from scratch, then top-1 and the labeled δ sweep with
/// every point simulated cold. Everything downstream of training depends on
/// the nn float summation order, so all outputs are tolerance-checked.
class LenetTrain final : public Workload {
 public:
  void setup(Recorder& rec, std::uint64_t seed, bool tiny) override {
    model_ = build_model(rec, "LeNet-5", mix_seed(seed, 500));
    summary_ = summarize(rec, model_);
    Scope s(rec, "nn.make_digits");
    train_ = nn::make_digits(tiny ? 200 : 1200, mix_seed(seed, 501));
    test_ = nn::make_digits(tiny ? 100 : 400, mix_seed(seed, 502));
    tcfg_ = nn::TrainConfig{};
    tcfg_.epochs = tiny ? 1 : 5;
    tcfg_.batch_size = 32;
    tcfg_.learning_rate = 0.08F;
    tcfg_.shuffle_seed = mix_seed(seed, 503);
    grid_ = &delta_grid(model_.name, tiny);
  }

  void run(Pass& pass) override {
    nn::Model m;
    m.name = model_.name;
    m.graph = model_.graph.clone();
    m.input_size = model_.input_size;
    m.input_channels = model_.input_channels;
    m.num_classes = model_.num_classes;
    m.selected_layer = model_.selected_layer;
    m.top5 = model_.top5;

    nn::TrainStats stats;
    {
      Scope s(pass.rec, "nn.train_classifier", "train");
      s.arg("samples", static_cast<double>(train_.size()) * tcfg_.epochs);
      stats = nn::train_classifier(m.graph, train_, tcfg_);
    }
    Op train{"LeNet-5/train", {}, {}};
    train.put("loss", stats.epoch_loss.back(), false);
    train.put("train_accuracy", stats.epoch_accuracy.back(), false);
    pass.ops.push_back(std::move(train));

    Op top1{"LeNet-5/top1", {}, {}};
    {
      Scope s(pass.rec, "nn.evaluate_top1", top1.id);
      top1.put("accuracy", nn::evaluate_top1(m.graph, test_), false);
    }
    pass.ops.push_back(std::move(top1));

    eval::EvalConfig cfg;
    cfg.topk = 1;
    const Sweep sw = delta_sweep(pass, m, summary_, cfg, &test_, *grid_);
    for (const eval::DeltaPoint& p : sw.points) {
      Op op{op_id(m.name, delta_tag(p.delta_percent)), {}, {}};
      accel::CompressionPlan plan;
      plan[sw.selected_layer] = p.compression;
      auto sim = fresh_sim(pass.rec);
      put_point(op, p, false);
      put_inference(op, simulate(pass, *sim, summary_, &plan, op.id), false);
      op.put("accuracy", p.accuracy, false);
      pass.count_cache(*sim);
      pass.ops.push_back(std::move(op));
    }
  }

 private:
  nn::Model model_;
  accel::ModelSummary summary_;
  nn::Dataset train_;
  nn::Dataset test_;
  nn::TrainConfig tcfg_;
  const std::vector<double>* grid_ = nullptr;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "zoo_sweep") return std::make_unique<ZooSweep>();
  if (name == "codec_roundtrip") return std::make_unique<CodecRoundtrip>();
  if (name == "accel_cold") return std::make_unique<AccelCold>();
  if (name == "lenet_train") return std::make_unique<LenetTrain>();
  throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Entry point

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " +
                                                   std::string(key));
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--scale takes full or tiny");
      }
      o.tiny = value == "tiny";
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + std::string(key));
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (o.trace && o.trace_out.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-out");
  }
  return o;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct PassRecord {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<Op> ops;
};

void write_ops(std::ostream& os, const std::vector<Op>& ops) {
  os << '[';
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (i) os << ',';
    os << "{\"id\":";
    json_string(os, op.id);
    os << ",\"exact\":{";
    for (std::size_t k = 0; k < op.exact.size(); ++k) {
      if (k) os << ',';
      json_string(os, op.exact[k].first);
      os << ':';
      if (const auto* d = std::get_if<double>(&op.exact[k].second)) {
        json_number(os, *d);
      } else {
        json_string(os, std::get<std::string>(op.exact[k].second));
      }
    }
    os << "},\"approx\":{";
    for (std::size_t k = 0; k < op.approx.size(); ++k) {
      if (k) os << ',';
      json_string(os, op.approx[k].first);
      os << ':';
      json_number(os, op.approx[k].second);
    }
    os << "}}";
  }
  os << ']';
}

int run(const Options& opt) {
  Recorder rec;
  std::unique_ptr<Workload> wl = make_workload(opt.workload);

  std::vector<double> setup_s;
  rec.set_enabled(opt.trace);
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    Scope root(rec, "setup");
    root.arg("rep", r);
    wl->setup(rec, opt.seed, opt.tiny);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<PassRecord> passes;
  const Clock::time_point start = Clock::now();
  const std::size_t min_passes = opt.trace ? 2 : 1;
  while (passes.size() < min_passes || seconds_since(start) < opt.seconds) {
    // Traced runs alternate untraced and traced passes, untraced first.
    const bool traced = opt.trace && passes.size() % 2 == 1;
    rec.set_enabled(traced);
    Pass pass{rec, traced, {}, 0, 0};
    PassRecord pr;
    pr.traced = traced;
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    {
      Scope root(rec, "pass");
      root.arg("pass", static_cast<double>(passes.size()));
      wl->run(pass);
    }
    pr.wall_s = seconds_since(t0);
    pr.cpu_s = cpu_seconds() - cpu0;
    pr.cache_hits = pass.cache_hits;
    pr.cache_misses = pass.cache_misses;
    pr.ops = std::move(pass.ops);
    passes.push_back(std::move(pr));
  }
  rec.set_enabled(false);
  if (opt.trace) {
    rec.write_chrome(opt.trace_out, "perfbench " + opt.workload);
  }

  std::ostringstream os;
  os << "{\"workload\":";
  json_string(os, opt.workload);
  os << ",\"seed\":" << opt.seed << ",\"scale\":"
     << (opt.tiny ? "\"tiny\"" : "\"full\"")
     << ",\"threads\":" << global_pool().size() << ",\"compiler\":";
  json_string(os, PERFBENCH_COMPILER);
  os << ",\"cxx_flags\":";
  json_string(os, PERFBENCH_CXX_FLAGS);
  os << ",\"peak_rss_mb\":";
  json_number(os, peak_rss_mb());
  os << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    if (i) os << ',';
    json_number(os, setup_s[i]);
  }
  os << "],\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    if (i) os << ',';
    os << "{\"wall_s\":";
    json_number(os, p.wall_s);
    os << ",\"cpu_s\":";
    json_number(os, p.cpu_s);
    os << ",\"traced\":" << (p.traced ? "true" : "false")
       << ",\"cache_hits\":" << p.cache_hits
       << ",\"cache_misses\":" << p.cache_misses << ",\"ops\":";
    write_ops(os, p.ops);
    os << '}';
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
