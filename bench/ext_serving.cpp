// Serving-layer load sweep: offered load x scheduler grid with
// determinism and scheduling gates (DESIGN.md §14), on the three-class
// workload of bench::serving_workload.
//
// Gates (non-zero exit on failure):
//   (1) Determinism: the whole sweep re-runs under NOCW_THREADS in
//       {1, 2, 8} plus a fixed-seed repeat; every reported number must be
//       bit-identical across all arms.
//   (2) Scheduling: at >= 1 overloaded point (load > 1.0), SJF or
//       priority must beat FIFO on the interactive tenant's p99.
//
// Outputs: every number of the sweep (bench::flatten keys, read by the
// dashboard serving panel and the obs_diff gate) in the summary and run
// manifest, and a queue-depth time series for one overloaded point
// (results/serving_queue_depth.json).
#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "eval/serving.hpp"
#include "obs/log.hpp"
#include "obs/timeseries.hpp"
#include "util/thread_pool.hpp"

int main(int, char** argv) {
  using namespace nocw;
  const std::string dir = bench::output_dir(argv[0]);
  obs::RunManifest man = bench::bench_manifest("ext_serving", "LeNet-5");

  bench::ServingWorkload w = bench::serving_workload(dir, man);
  const std::vector<serve::RequestClass>& classes = w.classes;
  eval::ServingSweepConfig& cfg = w.config;
  cfg.requests_per_point =
      static_cast<int>(env_int("REPRO_SERVE_REQUESTS", 1200, 10));

  // --- (1) determinism gate: threads x repeats --------------------------
  const std::vector<unsigned> thread_arms{1, 1, 2, 8};
  std::vector<std::map<std::string, double>> arms;
  for (const unsigned threads : thread_arms) {
    set_global_threads(threads);
    arms.push_back(bench::flatten(eval::run_serving_sweep(classes, cfg)));
  }
  set_global_threads(1);
  bool deterministic = true;
  for (std::size_t a = 1; a < arms.size(); ++a) {
    if (arms[a] != arms[0]) deterministic = false;
  }

  // The gated result: re-run once more at 1 thread, keeping the full
  // structure (flatten drops none of it, so the arms above already proved
  // this run equals every other arm bit-for-bit).
  const eval::ServingSweepResult sweep = eval::run_serving_sweep(classes, cfg);

  // --- bursty arm: MMPP at nominal load through FIFO --------------------
  eval::ServingSweepConfig mcfg = cfg;
  mcfg.process = serve::ArrivalProcess::kMmpp;
  mcfg.offered_loads = {0.9};
  mcfg.schedulers = {"fifo"};
  const eval::ServingSweepResult mmpp = eval::run_serving_sweep(classes, mcfg);

  // --- queue-depth time series for one overloaded FIFO point ------------
  {
    obs::TimeSeriesSet ts;
    const serve::ServeSim sim(cfg.serve, classes);
    const double cap_rpc = eval::capacity_requests_per_cycle(
        sim.classes(), sim.profiles(), cfg.serve.batch.max_batch);
    serve::ArrivalConfig acfg;
    acfg.rate_per_mcycle = 1.5 * cap_rpc * 1e6;
    acfg.horizon_cycles = static_cast<std::uint64_t>(std::ceil(
        static_cast<double>(cfg.requests_per_point) / (1.5 * cap_rpc)));
    acfg.seed = cfg.arrival_seed;
    (void)sim.run(serve::generate_arrivals(sim.classes(), acfg), "fifo", &ts);
    bench::write_artifact(dir + "/results/serving_queue_depth.json",
                          ts.to_json());
  }

  // --- (2) scheduling gate + table + metrics ----------------------------
  Table t({"Sched", "Load", "Offered", "Done", "Shed %", "p50 cyc",
           "p99 cyc", "p99.9 cyc", "Goodput r/s", "Batch"});
  std::map<std::string, std::map<std::string, double>> t0_p99;  // load->sched
  for (const eval::ServingPoint& pt : sweep.points) {
    const serve::ClassServeStats& agg = pt.result.aggregate;
    t.add_row({pt.scheduler, fmt_fixed(pt.offered_load, 2),
               std::to_string(agg.offered), std::to_string(agg.completed),
               fmt_fixed(agg.shed_rate * 100.0, 1),
               fmt_fixed(bench::finite_or_zero(agg.latency.p50), 0),
               fmt_fixed(bench::finite_or_zero(agg.latency.p99), 0),
               fmt_fixed(bench::finite_or_zero(agg.latency.p999), 0),
               fmt_fixed(pt.result.goodput_rps, 0),
               fmt_fixed(pt.result.mean_batch_size, 2)});
    if (pt.offered_load > 1.0) {
      t0_p99[bench::load_key(pt.offered_load)][pt.scheduler] =
          bench::finite_or_zero(pt.result.per_class[0].latency.p99);
    }
  }
  bench::emit("Serving sweep: offered load x scheduler (aggregate)", t, dir,
              "ext_serving");

  bool smart_beats_fifo = false;
  for (const auto& [load, by_sched] : t0_p99) {
    const auto fifo = by_sched.find("fifo");
    if (fifo == by_sched.end()) continue;
    for (const auto& [sched, p99] : by_sched) {
      if (sched != "fifo" && p99 < fifo->second) smart_beats_fifo = true;
    }
    (void)load;
  }

  for (const auto& [key, value] : bench::flatten(sweep)) {
    man.metrics[key] = value;
  }
  man.metrics["deterministic"] = deterministic ? 1.0 : 0.0;
  man.metrics["sjf_or_priority_beats_fifo"] = smart_beats_fifo ? 1.0 : 0.0;
  man.metrics["mmpp.l090.p99_cycles"] = bench::finite_or_zero(
      mmpp.points.front().result.aggregate.latency.p99);
  man.metrics["mmpp.l090.shed_rate"] =
      mmpp.points.front().result.aggregate.shed_rate;
  bench::write_summary(dir, man);

  if (!deterministic) {
    std::fprintf(stderr,
                 "ERROR: serving sweep is not bit-identical across "
                 "NOCW_THREADS {1,2,8} / repeated runs\n");
    return 1;
  }
  if (!smart_beats_fifo) {
    std::fprintf(stderr,
                 "ERROR: neither SJF nor priority beat FIFO on tenant-0 "
                 "p99 at any overloaded point\n");
    return 1;
  }
  obs::log("[serving] capacity %.0f r/s, %zu grid points, deterministic, "
           "smart scheduling beats FIFO under overload\n",
           sweep.capacity_rps, sweep.points.size());
  return 0;
}
