// Engineering micro-benchmarks (google-benchmark): codec throughput,
// decompressor-unit rate, router/network cycle rate, GEMM, quantization.
// Not a paper figure — these guard the simulator's own performance.
//
// After the google-benchmark suite, main() runs a GEMM/conv thread-scaling
// sweep (1, 2, 4, N threads) and records the best-of-3 seconds per thread
// count, with each kernel's shape and flop count, in the summary and run
// manifest, so the perf trajectory of the parallel kernels can be tracked.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

#include "core/codec.hpp"
#include "core/decompressor_unit.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "quant/affine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace nocw;

std::vector<float> weights(std::size_t n, double stddev = 0.05) {
  Xoshiro256pp rng(42);
  std::vector<float> w(n);
  for (auto& x : w) x = static_cast<float>(rng.normal(0.0, stddev));
  return w;
}

void BM_Compress(benchmark::State& state) {
  const auto w = weights(static_cast<std::size_t>(state.range(0)));
  core::CodecConfig cfg;
  cfg.delta_percent = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compress(w, cfg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Compress)->Arg(1 << 14)->Arg(1 << 18);

void BM_Decompress(benchmark::State& state) {
  const auto w = weights(static_cast<std::size_t>(state.range(0)));
  core::CodecConfig cfg;
  cfg.delta_percent = 10.0;
  const auto layer = core::compress(w, cfg);
  std::vector<float> out(w.size());
  for (auto _ : state) {
    core::decompress(layer, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Decompress)->Arg(1 << 18);

void BM_DecompressorUnit(benchmark::State& state) {
  const auto w = weights(1 << 14);
  core::CodecConfig cfg;
  cfg.delta_percent = 15.0;
  const auto layer = core::compress(w, cfg);
  for (auto _ : state) {
    core::DecompressorUnit du;
    float sink = 0.0F;
    for (const auto& seg : layer.segments) {
      du.load(seg);
      while (du.busy()) {
        if (auto v = du.tick()) sink += *v;
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 14));
}
BENCHMARK(BM_DecompressorUnit);

// Arg = δ in percent: δ = 0 gives the most segments per weight, the worst
// case for the bit I/O; δ = 10 is a typical operating point.
core::CompressedLayer codec_layer(const benchmark::State& state) {
  core::CodecConfig cfg;
  cfg.delta_percent = static_cast<double>(state.range(0));
  return core::compress(weights(1 << 16), cfg);
}

void BM_Serialize(benchmark::State& state) {
  const auto layer = codec_layer(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::serialize(layer));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_Serialize)->Arg(0)->Arg(10);

void BM_Deserialize(benchmark::State& state) {
  const auto bytes = core::serialize(codec_layer(state));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::deserialize(bytes));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_Deserialize)->Arg(0)->Arg(10);

void BM_Quantize(benchmark::State& state) {
  const auto w = weights(1 << 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::quantize_tensor(w));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_Quantize);

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = weights(n * n, 1.0);
  const auto b = weights(n * n, 1.0);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // FLOPs
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256);

// The zoo's hot GEMM shapes at one thread, A half exact zeros like a
// post-ReLU im2col matrix: ResNet50 3x3 conv at 14x14, MobileNet's first
// pointwise conv, and a 9216 -> 4096 Dense layer at batch 2.
void BM_GemmZoo(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  set_global_threads(1);
  auto a = weights(m * k, 1.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = a[i] > 0.0F ? a[i] : 0.0F;
  }
  const auto b = weights(k * n);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m) *
                          static_cast<std::int64_t>(k) *
                          static_cast<std::int64_t>(n));  // MACs
}
BENCHMARK(BM_GemmZoo)
    ->ArgNames({"m", "k", "n"})
    ->Args({196, 2304, 256})
    ->Args({12544, 32, 64})
    ->Args({2, 9216, 4096});

void BM_GemmParallel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  set_global_threads(static_cast<unsigned>(state.range(1)));
  const auto a = weights(n * n, 1.0);
  const auto b = weights(n * n, 1.0);
  std::vector<float> c(n * n);
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // FLOPs
  set_global_threads(1);
}
BENCHMARK(BM_GemmParallel)->Args({512, 1})->Args({512, 2})->Args({512, 4});

void BM_NocUniformTraffic(benchmark::State& state) {
  for (auto _ : state) {
    noc::Network net{noc::NocConfig{}};
    net.add_packets(
        noc::uniform_random_traffic(net.config(), 500, 4, 11));
    net.run_until_drained(1000000);
    benchmark::DoNotOptimize(net.stats().cycles);
  }
}
BENCHMARK(BM_NocUniformTraffic);

void BM_NocScatterStream(benchmark::State& state) {
  noc::NocConfig cfg;
  const auto pes = cfg.pe_nodes();
  for (auto _ : state) {
    noc::Network net{cfg};
    for (int mi : cfg.memory_interface_nodes()) {
      net.add_packets(noc::scatter_flow(mi, pes, 3000, 32));
    }
    net.run_until_drained(1000000);
    benchmark::DoNotOptimize(net.stats().throughput());
  }
}
BENCHMARK(BM_NocScatterStream);

// --- thread-scaling sweep ----------------------------------------------------

struct ScalePoint {
  unsigned threads = 1;
  double seconds = 0.0;
};

template <typename Fn>
double best_seconds(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::vector<unsigned> scaling_thread_counts() {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  std::vector<unsigned> counts{1, 2, 4};
  counts.push_back(hw);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

void write_parallel_scaling_report(const std::string& dir) {
  const std::vector<unsigned> counts = scaling_thread_counts();

  // GEMM: the acceptance-size 512x512x512 product.
  constexpr std::size_t kN = 512;
  const auto a = weights(kN * kN, 1.0);
  const auto b = weights(kN * kN, 1.0);
  std::vector<float> c(kN * kN);
  const double gemm_flops = 2.0 * kN * kN * kN;
  std::vector<ScalePoint> gemm_pts;
  for (unsigned t : counts) {
    set_global_threads(t);
    nn::gemm(a.data(), b.data(), c.data(), kN, kN, kN);  // warm up pool
    gemm_pts.push_back(ScalePoint{
        t, best_seconds(3, [&] {
          nn::gemm(a.data(), b.data(), c.data(), kN, kN, kN);
        })});
  }

  // Conv: a mid-network Same-padded 3x3 layer (im2col + GEMM path).
  constexpr int kBatch = 4, kHW = 56, kCin = 32, kCout = 64;
  nn::Conv2D conv("scaling_conv", kCin, kCout, 3, 3, 1, nn::Padding::Same);
  {
    Xoshiro256pp rng(7);
    for (auto& v : conv.kernel()) v = static_cast<float>(rng.normal(0, 0.05));
  }
  nn::Tensor input({kBatch, kHW, kHW, kCin});
  {
    Xoshiro256pp rng(8);
    for (auto& v : input.data()) v = static_cast<float>(rng.normal());
  }
  const nn::Tensor* conv_in[] = {&input};
  const double conv_flops = 2.0 * kBatch * kHW * kHW * 9.0 * kCin * kCout;
  std::vector<ScalePoint> conv_pts;
  for (unsigned t : counts) {
    set_global_threads(t);
    (void)conv.forward(conv_in);  // warm up pool
    conv_pts.push_back(ScalePoint{
        t, best_seconds(3, [&] { (void)conv.forward(conv_in); })});
  }
  set_global_threads(1);

  obs::RunManifest man = bench::bench_manifest("micro_kernels");
  man.config["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  man.metrics["gemm.m"] = static_cast<double>(kN);
  man.metrics["gemm.k"] = static_cast<double>(kN);
  man.metrics["gemm.n"] = static_cast<double>(kN);
  man.metrics["gemm.flops"] = gemm_flops;
  man.metrics["conv.batch"] = kBatch;
  man.metrics["conv.height"] = kHW;
  man.metrics["conv.width"] = kHW;
  man.metrics["conv.in_channels"] = kCin;
  man.metrics["conv.out_channels"] = kCout;
  man.metrics["conv.flops"] = conv_flops;
  for (const auto& p : gemm_pts) {
    man.metrics["gemm.t" + std::to_string(p.threads) + ".seconds"] =
        p.seconds;
  }
  for (const auto& p : conv_pts) {
    man.metrics["conv.t" + std::to_string(p.threads) + ".seconds"] =
        p.seconds;
  }
  bench::write_summary(dir, man);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_parallel_scaling_report(nocw::bench::output_dir(argv[0]));
  return 0;
}
