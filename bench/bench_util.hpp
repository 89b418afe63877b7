// Shared plumbing for the reproduction benches.
//
// Every bench prints its table(s) to stdout and mirrors them to
// <exe-dir>/<name>.csv. Scale knobs come from the environment:
//   REPRO_PROBES  probe inputs per model for accuracy evaluation (default 6)
//   REPRO_TRAIN   LeNet-5 training samples (default 1200)
//   REPRO_EPOCHS  LeNet-5 training epochs (default 5)
//   REPRO_WINDOW  NoC sampling window in flits (default 24000)
// Defaults finish the full bench suite in minutes on one laptop core.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "accel/simulator.hpp"
#include "eval/flow.hpp"
#include "nn/digits.hpp"
#include "nn/models.hpp"
#include "obs/manifest.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace nocw::bench {

inline int probe_count() {
  return static_cast<int>(env_int("REPRO_PROBES", 6, 1));
}

inline std::uint64_t noc_window() {
  return static_cast<std::uint64_t>(env_int("REPRO_WINDOW", 24000, 1));
}

/// Directory of the running executable (argv[0] based), for CSV output.
std::string output_dir(const char* argv0);

/// Print a titled table and write it to `<dir>/<slug>.csv`.
void emit(const std::string& title, const Table& table,
          const std::string& dir, const std::string& slug);

/// Write a bench's trace or time-series artifact (`body`) to `path`.
void write_artifact(const std::string& path, const std::string& body);

/// LeNet-5 trained on the procedural digit set. Trains once per build tree:
/// the checkpoint is cached at `<dir>/lenet5_trained.weights` and reloaded
/// by every subsequent bench. Returns the model and its held-out test set.
struct TrainedLenet {
  nn::Model model;
  nn::Dataset test;
  double test_accuracy = 0.0;
};
TrainedLenet trained_lenet(const std::string& cache_dir);

/// Run manifest for this bench: provenance, environment and thread count
/// pre-filled (obs::make_manifest). Benches add config strings / metrics (or
/// let an evaluator's annotate_manifest do it) before handing it to
/// write_summary, which stamps the bench's wall time as metrics.wall_ms.
obs::RunManifest bench_manifest(const std::string& bench_name,
                                const std::string& model = "");

/// Record a bench's headline results — the one channel through which a
/// bench reports numbers. After stamping the bench's wall time as
/// metrics.wall_ms it
///  - writes `<dir>/results/run_<tool>.json`, the bench's provenance
///    manifest (schema nocw.manifest.v1);
///  - upserts one `"<tool>": {...}` line into the aggregated summary
///    (default `<dir>/results/BENCH_summary.json`, path overridable via
///    NOCW_SUMMARY_JSON; schema nocw.bench_summary.v1, one bench per line
///    so independent binaries merge without a JSON parser).
/// Every bench calls this exactly once — the output.manifest rule of
/// tools/nocw_analyze.py enforces registration. This is the single writer of the summary file.
void write_summary(const std::string& dir, const obs::RunManifest& m);

/// Convenience: bench_manifest(name, model) + metrics + write_summary.
void write_summary(const std::string& dir, const std::string& bench_name,
                   const std::map<std::string, double>& metrics,
                   const std::string& model = "");

/// Times this process re-registered a tool that had already written its
/// summary entry. A re-run within one process cannot duplicate the tool's
/// key — the merge is last-writer-wins — but it usually means a bench
/// registered twice by accident, so each repeat warns on stderr and bumps
/// this counter (exposed for tests).
std::uint64_t duplicate_summary_writes();

/// Latency and energy of one baseline inference of `summary` on `sim`, then
/// one inference per δ point with only `layer`'s weight stream replaced by
/// that point's compression, in grid order. Two sweeps compare equal only
/// when every number matches bit-for-bit: the A/B identity gates of
/// ext_engine_speed and ext_degradation.
struct DeltaSweep {
  std::vector<double> latency_cycles;
  std::vector<double> energy_j;
  bool operator==(const DeltaSweep&) const = default;
};
DeltaSweep simulate_delta_sweep(const accel::AcceleratorSim& sim,
                                const accel::ModelSummary& summary,
                                const std::string& layer,
                                const std::vector<eval::DeltaPoint>& points);

}  // namespace nocw::bench
