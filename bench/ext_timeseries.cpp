// Extension: time-series telemetry of a LeNet-5 inference.
//
// Runs the full accelerator simulation (compressed selected layer, real
// codec) twice — once with a TimeSeriesSet attached, once without — and
//   1. exports the sampled series (DRAM words, link flits, queue depth,
//      MAC/decompress activity over cycles) to results/timeseries_lenet5
//      .{json,csv} for the dashboard (tools/obs_dashboard.py);
//   2. checks that sampling is observation-only: latency and energy are
//      bit-identical with the sink attached and detached (exit 1 if not);
//   3. writes the run manifest + summary entry like every other bench.
// Knobs: NOCW_TS_INTERVAL (sampling interval, cycles), NOCW_TS_CAP
// (per-series point budget before ring compaction).
#include "bench_util.hpp"

#include <filesystem>
#include <system_error>
#include <vector>

#include "accel/simulator.hpp"
#include "core/codec.hpp"
#include "eval/layer_selection.hpp"
#include "nn/models.hpp"
#include "obs/timeseries.hpp"

int main(int, char** argv) {
  using namespace nocw;
  const std::string dir = bench::output_dir(argv[0]);

  nn::Model m = nn::make_lenet5();
  const accel::ModelSummary summary = accel::summarize(m);

  // Compress the selected layer so the decompress series is populated.
  const int node = eval::select_layer(m);
  core::CodecConfig codec;
  codec.delta_percent = 10.0;
  const auto kernel = m.graph.layer(node).kernel();
  const std::vector<float> weights(kernel.begin(), kernel.end());
  const core::CompressedLayer comp = core::compress(weights, codec);
  accel::CompressionPlan plan;
  plan[m.graph.layer(node).name()] =
      accel::LayerCompression{comp.compressed_bits(), comp.original_count};

  accel::AccelConfig cfg;
  cfg.noc_window_flits = bench::noc_window();

  // Reference run: no sink attached (the production default).
  const accel::InferenceResult r_off =
      accel::AcceleratorSim(cfg).simulate(summary, &plan);

  // Instrumented run.
  obs::TimeSeriesSet series(obs::series_capacity());
  cfg.series = &series;
  cfg.series_interval_cycles = obs::series_interval_cycles();
  const accel::InferenceResult r_on =
      accel::AcceleratorSim(cfg).simulate(summary, &plan);

  const bool bit_identical =
      r_off.latency.total() == r_on.latency.total() &&
      r_off.energy.total() == r_on.energy.total();

  std::error_code ec;
  std::filesystem::create_directories(dir + "/results", ec);
  const std::string json_path =
      env_string("NOCW_TS_JSON", dir + "/results/timeseries_lenet5.json");
  const std::string csv_path = dir + "/results/timeseries_lenet5.csv";
  bench::write_artifact(json_path, series.to_json());
  bench::write_artifact(csv_path, series.to_csv());

  Table t({"Series", "Points", "Stride", "Unit"});
  std::map<std::string, double> metrics{
      {"latency_cycles", r_on.latency.total().value()},
      {"energy_j", r_on.energy.total().value()},
      {"bit_identical", bit_identical ? 1.0 : 0.0},
      {"series", static_cast<double>(series.size())}};
  for (const auto& name : series.names()) {
    const obs::TimeSeries s = series.series(name);
    metrics[name + ".points"] = static_cast<double>(s.size());
    t.add_row({name, std::to_string(s.size()),
               std::to_string(s.compaction_stride()), s.unit()});
  }
  bench::emit("Extension: time-series telemetry of a LeNet-5 inference", t,
              dir, "ext_timeseries");
  bench::write_summary(dir, "ext_timeseries", metrics, m.name);

  if (!bit_identical) {
    std::fprintf(stderr,
                 "time-series sampling changed simulation results\n");
    return 1;
  }
  return 0;
}
