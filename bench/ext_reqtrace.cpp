// Request tracing + SLO gate: causal span trees, tail sampling and the
// streaming SLO monitor over the serving sweep (DESIGN.md §15).
//
// Workload: bench::serving_workload, ext_serving's class mix
// (lenet_d0 / lenet_d8 / alexnet_d0), on a smaller load x scheduler grid, run twice per arm — plain
// (run_serving_sweep, the PR 9 path) and observed
// (run_observed_serving_sweep: SLO monitor + trace sink hooked into every
// point).
//
// Gates (non-zero exit on failure):
//   (1) Purity: the observed sweep's ServeResult numbers are bit-identical
//       to the plain sweep's, across NOCW_THREADS {1,2,8} and repeats —
//       hooks observe, they never feed back.
//   (2) Overhead: tail-sampled tracing (hooks on) costs < 1% wall-clock
//       over the plain sweep, min-over-reps on the 1-thread arm.
//   (3) Exemplars: every breached SLO window names an exemplar trace the
//       sink retained, and its span tree's root latency equals the
//       window's recorded max (shed exemplar for shed-only windows); at
//       least one window must breach, and exemplar storage must not drop.
//   Determinism: slo + reqtrace JSON exports byte-identical across arms.
//
// Outputs: summary metrics (per-point windows_breached / max_burn_1w +
// overhead for obs_diff); for the overloaded FIFO point,
// results/reqtrace.json (nocw.reqtrace.v1) and results/slo_windows.json
// (nocw.slo.v1); results/reqtrace_tail.json (Perfetto tree of the worst
// tail request).
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "eval/serving.hpp"
#include "obs/log.hpp"
#include "obs/trace_export.hpp"
#include "serve/reqtrace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nocw;

/// Byte-stable digest of every point's slo + reqtrace export, for the
/// cross-arm determinism comparison.
std::string observability_digest(const eval::ObservedSweepResult& obs) {
  std::string out;
  for (std::size_t i = 0; i < obs.sweep.points.size(); ++i) {
    out += obs.sweep.points[i].scheduler + "." +
           bench::load_key(obs.sweep.points[i].offered_load) + "\n";
    out += obs.slo[i].to_json();
    out += obs.sinks[i].to_json();
  }
  return out;
}

double elapsed_s(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int, char** argv) {
  const std::string dir = bench::output_dir(argv[0]);
  obs::RunManifest man = bench::bench_manifest("ext_reqtrace", "LeNet-5");

  bench::ServingWorkload w = bench::serving_workload(dir, man);
  const std::vector<serve::RequestClass>& classes = w.classes;
  eval::ServingSweepConfig& cfg = w.config;
  cfg.offered_loads = {0.6, 0.9, 1.3};
  cfg.schedulers = {"fifo", "sjf"};
  cfg.requests_per_point =
      static_cast<int>(env_int("REPRO_REQTRACE_REQUESTS", 800, 10));

  // --- reference run + SLO policy derived from the profiled classes -----
  set_global_threads(1);
  auto t0 = std::chrono::steady_clock::now();
  const eval::ServingSweepResult plain = eval::run_serving_sweep(classes, cfg);
  std::vector<double> plain_s{elapsed_s(t0)};
  const std::map<std::string, double> reference = bench::flatten(plain);

  std::uint64_t max_full = 0;
  for (const serve::ServiceProfile& p : plain.profiles) {
    max_full = std::max(max_full, p.full_cycles.value());
  }
  const double amortized_cycles =
      1.0 / eval::capacity_requests_per_cycle(
                classes, plain.profiles, cfg.serve.batch.max_batch);

  eval::ObservedSweepConfig ocfg;
  ocfg.base = cfg;
  // ~100 capacity-requests per window: enough samples for a window p99,
  // >= a dozen windows per point.
  ocfg.slo.window_cycles =
      static_cast<std::uint64_t>(std::llround(100.0 * amortized_cycles));
  ocfg.slo.p99_budget_cycles = 4.0 * static_cast<double>(max_full);
  ocfg.slo.p999_budget_cycles = 6.0 * static_cast<double>(max_full);
  ocfg.slo.min_goodput_fraction = 0.99;
  ocfg.slo.error_budget = 0.01;
  ocfg.traces.tail_keep = 32;
  ocfg.traces.exemplar_capacity = 512;

  // --- gate (1): purity on the 1-thread arm -----------------------------
  const int reps = static_cast<int>(env_int("REPRO_REQTRACE_REPS", 3, 1));
  bool sweep_identical = true;
  bool deterministic = true;
  std::vector<double> observed_s;
  std::string digest0;
  eval::ObservedSweepResult obs0;  // rep 0, the gated result
  for (int rep = 0; rep < reps; ++rep) {
    t0 = std::chrono::steady_clock::now();
    eval::ObservedSweepResult o =
        eval::run_observed_serving_sweep(classes, ocfg);
    observed_s.push_back(elapsed_s(t0));
    if (bench::flatten(o.sweep) != reference) sweep_identical = false;
    const std::string digest = observability_digest(o);
    if (rep == 0) {
      digest0 = digest;
      obs0 = std::move(o);
    } else if (digest != digest0) {
      deterministic = false;
    }
    if (rep + 1 < reps) {
      t0 = std::chrono::steady_clock::now();
      const eval::ServingSweepResult again =
          eval::run_serving_sweep(classes, cfg);
      plain_s.push_back(elapsed_s(t0));
      if (bench::flatten(again) != reference) sweep_identical = false;
    }
  }

  // --- gate (2): tracing's extra wall-clock, amortized ------------------
  // The sweep's wall-clock is dominated by class profiling (identical in
  // both arms, it cancels exactly), and run-to-run noise on ~100 ms swamps
  // a ~1 ms hook cost — a naive on/off sweep comparison cannot resolve a
  // 1% bound. Following ext_trace_overhead's estimator idiom, the gated
  // number measures the *difference* directly: the per-point serving loops
  // run paired (hooks off / hooks on) on one shared profiled sim many
  // times; the aggregate extra, scaled to one sweep, is compared against
  // the plain sweep's median wall-clock.
  const serve::ServeSim shared_sim(cfg.serve, classes);
  const double cap_rpc = eval::capacity_requests_per_cycle(
      shared_sim.classes(), shared_sim.profiles(), cfg.serve.batch.max_batch);
  std::vector<std::vector<serve::Arrival>> grid_arrivals;
  for (const double load : cfg.offered_loads) {
    const double rate_per_cycle = load * cap_rpc;
    serve::ArrivalConfig acfg;
    acfg.process = cfg.process;
    acfg.rate_per_mcycle = rate_per_cycle * 1e6;
    acfg.horizon_cycles = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(cfg.requests_per_point) / rate_per_cycle));
    acfg.seed = cfg.arrival_seed;
    grid_arrivals.push_back(
        serve::generate_arrivals(shared_sim.classes(), acfg));
  }
  const int loop_reps =
      static_cast<int>(env_int("REPRO_REQTRACE_LOOPS", 24, 1));
  double plain_loop_s = 0.0;
  double hooked_loop_s = 0.0;
  for (int rep = 0; rep < loop_reps; ++rep) {
    t0 = std::chrono::steady_clock::now();
    for (const std::vector<serve::Arrival>& arr : grid_arrivals) {
      for (const std::string& sched : cfg.schedulers) {
        (void)shared_sim.run(arr, *serve::make_scheduler(sched), nullptr);
      }
    }
    plain_loop_s += elapsed_s(t0);
    t0 = std::chrono::steady_clock::now();
    for (std::size_t li = 0; li < grid_arrivals.size(); ++li) {
      for (const std::string& sched : cfg.schedulers) {
        obs::SloMonitor slo(shared_sim.classes().size(), ocfg.slo);
        serve::RequestTraceSink sink(shared_sim.classes().size(),
                                     ocfg.traces);
        serve::RunHooks hooks;
        hooks.slo = &slo;
        hooks.traces = &sink;
        hooks.trace_seed =
            ocfg.trace_seed ^
            (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(li + 1));
        (void)shared_sim.run(grid_arrivals[li], *serve::make_scheduler(sched),
                             hooks);
      }
    }
    hooked_loop_s += elapsed_s(t0);
  }
  const double plain_med = percentile(plain_s, 50.0);
  const double extra_per_sweep_s =
      (hooked_loop_s - plain_loop_s) / static_cast<double>(loop_reps);
  const double overhead =
      plain_med > 0.0 ? extra_per_sweep_s / plain_med : 0.0;

  // --- determinism across thread counts ---------------------------------
  for (const unsigned threads : {2u, 8u}) {
    set_global_threads(threads);
    eval::ObservedSweepResult o =
        eval::run_observed_serving_sweep(classes, ocfg);
    if (bench::flatten(o.sweep) != reference) sweep_identical = false;
    if (observability_digest(o) != digest0) deterministic = false;
  }
  set_global_threads(1);

  // --- gate (3): every breached window resolves to a retained exemplar --
  std::uint64_t windows_total = 0;
  std::uint64_t windows_breached = 0;
  std::uint64_t exemplar_drops = 0;
  bool exemplar_ok = true;
  for (std::size_t i = 0; i < obs0.sweep.points.size(); ++i) {
    const obs::SloMonitor& m = obs0.slo[i];
    const serve::RequestTraceSink& sink = obs0.sinks[i];
    exemplar_drops += sink.exemplar_drops();
    windows_total += static_cast<std::uint64_t>(m.windows().size());
    for (const obs::SloWindow& w : m.windows()) {
      if (w.breach_mask == 0) continue;
      ++windows_breached;
      if (w.completions > 0) {
        const serve::RequestTrace* t = sink.exemplar(w.exemplar_trace_id);
        if (t == nullptr || t->shed || t->spans.empty() ||
            t->spans.front().dur_cycles != w.max_latency_cycles ||
            t->latency_cycles != w.max_latency_cycles) {
          exemplar_ok = false;
        }
      } else {
        const serve::RequestTrace* t =
            sink.exemplar(w.shed_exemplar_trace_id);
        if (t == nullptr || !t->shed) exemplar_ok = false;
      }
    }
  }
  if (windows_breached == 0) exemplar_ok = false;  // the gate must bite
  if (exemplar_drops != 0) exemplar_ok = false;

  // --- artifacts: overloaded FIFO point + worst tail request ------------
  std::size_t artifact_point = 0;
  for (std::size_t i = 0; i < obs0.sweep.points.size(); ++i) {
    if (obs0.sweep.points[i].scheduler == "fifo" &&
        obs0.sweep.points[i].offered_load >
            obs0.sweep.points[artifact_point].offered_load) {
      artifact_point = i;
    }
  }
  bench::write_artifact(dir + "/results/reqtrace.json",
                        obs0.sinks[artifact_point].to_json());
  bench::write_artifact(dir + "/results/slo_windows.json",
                        obs0.slo[artifact_point].to_json());
  if (!obs0.sinks[artifact_point].tail().empty()) {
    const std::vector<obs::TraceEvent> events =
        serve::to_trace_events(obs0.sinks[artifact_point].tail().front());
    bench::write_artifact(dir + "/results/reqtrace_tail.json",
                          obs::to_chrome_json(events));
  }

  // --- table + metrics ---------------------------------------------------
  Table t({"Sched", "Load", "Windows", "Breached", "Burn 1w", "Sampled",
           "Dropped", "Exemplars"});
  for (std::size_t i = 0; i < obs0.sweep.points.size(); ++i) {
    const eval::ServingPoint& pt = obs0.sweep.points[i];
    const obs::SloMonitor& m = obs0.slo[i];
    const serve::RequestTraceSink& sink = obs0.sinks[i];
    t.add_row({pt.scheduler, fmt_fixed(pt.offered_load, 2),
               std::to_string(m.windows().size()),
               std::to_string(m.windows_breached()),
               fmt_fixed(m.max_burn(0), 2),
               std::to_string(sink.tail().size()),
               std::to_string(sink.dropped_trees()),
               std::to_string(sink.exemplar_count())});
    const std::string base =
        pt.scheduler + "." + bench::load_key(pt.offered_load);
    man.metrics[base + ".windows_breached"] =
        static_cast<double>(m.windows_breached());
    man.metrics[base + ".max_burn_1w"] = m.max_burn(0);
    man.metrics[base + ".sampled_trees"] =
        static_cast<double>(sink.tail().size());
    man.metrics[base + ".dropped_trees"] =
        static_cast<double>(sink.dropped_trees());
  }
  bench::emit("Request tracing + SLO windows (observed serving sweep)", t,
              dir, "ext_reqtrace");

  man.metrics["deterministic"] = deterministic ? 1.0 : 0.0;
  man.metrics["sweep_identical"] = sweep_identical ? 1.0 : 0.0;
  man.metrics["trace_overhead_fraction"] = overhead;
  man.metrics["trace_extra_ms_per_sweep"] = extra_per_sweep_s * 1e3;
  man.metrics["plain_sweep_seconds"] = plain_med;
  man.metrics["observed_sweep_seconds"] = percentile(observed_s, 50.0);
  man.metrics["exemplar_ok"] = exemplar_ok ? 1.0 : 0.0;
  man.metrics["windows_total"] = static_cast<double>(windows_total);
  man.metrics["windows_breached"] = static_cast<double>(windows_breached);
  man.metrics["exemplar_drops"] = static_cast<double>(exemplar_drops);
  man.metrics["slo_window_cycles"] =
      static_cast<double>(ocfg.slo.window_cycles);
  bench::write_summary(dir, man);

  if (!sweep_identical) {
    std::fprintf(stderr,
                 "ERROR: observed sweep numbers differ from the plain "
                 "(tracing-off) sweep\n");
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr,
                 "ERROR: slo/reqtrace exports are not byte-identical "
                 "across NOCW_THREADS {1,2,8} / repeats\n");
    return 1;
  }
  if (!(overhead < 0.01)) {
    std::fprintf(stderr,
                 "ERROR: tracing overhead %.2f%% exceeds the 1%% gate "
                 "(extra %.3f ms per sweep, plain sweep median %.3f s)\n",
                 overhead * 100.0, extra_per_sweep_s * 1e3, plain_med);
    return 1;
  }
  if (!exemplar_ok) {
    std::fprintf(stderr,
                 "ERROR: exemplar gate failed (%llu breached windows, "
                 "%llu exemplar drops)\n",
                 static_cast<unsigned long long>(windows_breached),
                 static_cast<unsigned long long>(exemplar_drops));
    return 1;
  }
  obs::log("[reqtrace] %llu windows (%llu breached), overhead %.2f%%, "
           "exemplars resolve, deterministic\n",
           static_cast<unsigned long long>(windows_total),
           static_cast<unsigned long long>(windows_breached),
           overhead * 100.0);
  return 0;
}
