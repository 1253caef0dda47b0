// Thread-scaling sweep for the three paradigm hot paths (ISSUE 2 acceptance
// bench): dense conv2d forward (CNN), batch event-graph construction (GNN),
// and spiking layer updates (SNN), each at 1, 2, 4 and hardware_concurrency
// threads via evd::par::set_thread_count.
//
// Besides throughput/speedup, every parallel run is checked bitwise against
// the single-thread output — the deterministic-partitioning contract that
// makes EVD_THREADS a pure performance knob. A mismatch prints loudly and
// the process exits non-zero.
//
// `--roofline` runs the single-core scalar-vs-vector sweep instead (see the
// roofline section below); its JSON lines are committed as BENCH_simd.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "events/dataset.hpp"
#include "gnn/graph_builder.hpp"
#include "gnn/graph_conv.hpp"
#include "nn/conv2d.hpp"
#include "simd/dispatch.hpp"
#include "snn/snn_model.hpp"

using namespace evd;

namespace {

bool g_checksum_failed = false;

std::vector<Index> sweep_thread_counts() {
  const auto hw = static_cast<Index>(std::thread::hardware_concurrency());
  std::vector<Index> counts{1, 2, 4};
  if (hw > 4) counts.push_back(hw);
  return counts;
}

double time_ms(const std::function<void()>& fn, int reps) {
  fn();  // warm-up (first touch, pool spin-up)
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
}

struct SweepRow {
  Index threads = 1;
  double ms = 0.0;
  bool identical = true;
};

void print_sweep(const char* workload, const std::vector<SweepRow>& rows) {
  Table table({"threads", "time [ms]", "speedup", "== serial output"});
  const double base = rows.front().ms;
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.threads), Table::num(row.ms, 3),
                   Table::num(base / row.ms, 2) + "x",
                   row.identical ? "yes" : "MISMATCH"});
    if (!row.identical) g_checksum_failed = true;
  }
  std::printf("\n-- %s --\n", workload);
  table.print();
}

// ---- CNN: conv2d forward (im2col + blocked GEMM path) ----

void sweep_conv2d() {
  Rng rng(1);
  nn::Conv2d conv(nn::Conv2dConfig{16, 32, 3, 1, 1, nn::ConvAlgo::Gemm}, rng);
  Rng xrng(2);
  const nn::Tensor x = nn::Tensor::randn({16, 64, 64}, xrng);

  std::vector<SweepRow> rows;
  nn::Tensor reference;
  for (const Index threads : sweep_thread_counts()) {
    par::set_thread_count(threads);
    nn::Tensor out;
    const double ms = time_ms([&] { out = conv.forward(x, false); }, 20);
    bool identical = true;
    if (threads == 1) {
      reference = out;
    } else {
      identical = std::memcmp(reference.data(), out.data(),
                              sizeof(float) *
                                  static_cast<size_t>(out.numel())) == 0;
    }
    rows.push_back({threads, ms, identical});
  }
  print_sweep("conv2d forward 16->32 ch, 64x64, k3 (GEMM path)", rows);
}

// ---- GNN: batch graph construction over a kd-tree ----

events::EventStream scaling_stream(Index events_count) {
  events::ShapeDatasetConfig config;
  config.width = 64;
  config.height = 64;
  config.duration_us = 200000;
  events::ShapeDataset dataset(config);
  auto sample = dataset.make_sample(0);
  auto& ev = sample.stream.events;
  while (static_cast<Index>(ev.size()) < events_count) {
    const auto n = ev.size();
    const TimeUs shift = ev.back().t + 100;
    for (size_t i = 0;
         i < n && static_cast<Index>(ev.size()) < events_count; ++i) {
      auto e = ev[i];
      e.t += shift;
      ev.push_back(e);
    }
  }
  ev.resize(static_cast<size_t>(events_count));
  return sample.stream;
}

std::uint64_t graph_checksum(const gnn::EventGraph& graph) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(graph.node_count()));
  mix(static_cast<std::uint64_t>(graph.edge_count()));
  for (Index i = 0; i < graph.node_count(); ++i) {
    for (const Index n : graph.neighbors(i)) {
      mix(static_cast<std::uint64_t>(n));
    }
  }
  return hash;
}

void sweep_graph_build() {
  const auto stream = scaling_stream(20000);
  gnn::GraphBuildConfig config;
  config.max_nodes = 4096;
  config.radius = 3.0f;

  std::vector<SweepRow> rows;
  std::uint64_t reference = 0;
  for (const Index threads : sweep_thread_counts()) {
    par::set_thread_count(threads);
    std::uint64_t checksum = 0;
    const double ms = time_ms(
        [&] { checksum = graph_checksum(gnn::build_graph(stream, config)); },
        5);
    bool identical = true;
    if (threads == 1) {
      reference = checksum;
    } else {
      identical = checksum == reference;
    }
    rows.push_back({threads, ms, identical});
  }
  print_sweep("batch graph construction, 4096 nodes, radius 3", rows);
}

// ---- SNN: spiking layer updates over a dense-ish train ----

snn::SpikeTrain random_train(Index steps, Index size, double density,
                             std::uint64_t seed) {
  snn::SpikeTrain train;
  train.steps = steps;
  train.size = size;
  train.active.resize(static_cast<size_t>(steps));
  Rng rng(seed);
  for (Index t = 0; t < steps; ++t) {
    for (Index i = 0; i < size; ++i) {
      if (rng.bernoulli(density)) {
        train.active[static_cast<size_t>(t)].push_back(i);
      }
    }
  }
  return train;
}

void sweep_snn_step() {
  snn::SpikingNetConfig config;
  config.layer_sizes = {1024, 2048, 2048, 10};
  Rng rng(3);
  snn::SpikingNet net(config, rng);
  net.freeze();  // time the serving path: transposed weights
  const snn::SpikeTrain train = random_train(50, 1024, 0.05, 4);

  std::vector<SweepRow> rows;
  nn::Tensor reference;
  for (const Index threads : sweep_thread_counts()) {
    par::set_thread_count(threads);
    nn::Tensor logits;
    const double ms = time_ms([&] { logits = net.forward(train, false); }, 3);
    bool identical = true;
    if (threads == 1) {
      reference = logits;
    } else {
      identical = std::memcmp(reference.data(), logits.data(),
                              sizeof(float) *
                                  static_cast<size_t>(logits.numel())) == 0;
    }
    rows.push_back({threads, ms, identical});
  }
  print_sweep("SNN forward 1024-2048-2048-10, T=50, 5% input density", rows);
}

// ---- single-core roofline: scalar kernels vs the dispatched vector tier ----
//
// `--roofline` pins the pool to one thread and times the three vectorized
// hot spans under EVD_SIMD=scalar and under the best tier the CPU supports,
// so the reported speedup is pure vector-register win — no thread scaling
// mixed in. Every vector run is also checked bitwise against its scalar
// run: the kernels promise lane-for-lane identical arithmetic, so a
// roofline that cheats on the contract fails loudly here.

struct RooflineRow {
  const char* span = "";
  double scalar_ms = 0.0;
  double vector_ms = 0.0;
  bool identical = true;
  double speedup() const { return scalar_ms / vector_ms; }
};

/// Time fn under both tiers and bitwise-compare the `count` floats that
/// `data()` points at after each run (a getter, not a raw pointer, because
/// runs that reassign a Tensor relocate its storage).
RooflineRow roofline_span(const char* span, int reps, Index count,
                          const std::function<void()>& fn,
                          const std::function<const float*()>& data) {
  RooflineRow row;
  row.span = span;
  std::vector<float> scalar_out;
  {
    simd::ScopedTier tier(simd::Tier::Scalar);
    row.scalar_ms = time_ms(fn, reps);
    scalar_out.assign(data(), data() + count);
  }
  {
    simd::ScopedTier tier(simd::detect_best());
    row.vector_ms = time_ms(fn, reps);
    row.identical = std::memcmp(scalar_out.data(), data(),
                                sizeof(float) *
                                    static_cast<size_t>(count)) == 0;
  }
  return row;
}

RooflineRow roofline_conv() {
  Rng rng(1);
  nn::Conv2d conv(nn::Conv2dConfig{16, 32, 3, 1, 1, nn::ConvAlgo::Gemm}, rng);
  Rng xrng(2);
  const nn::Tensor x = nn::Tensor::randn({16, 64, 64}, xrng);
  nn::Tensor out;
  auto fn = [&] { out = conv.forward(x, false); };
  fn();  // materialise `out` so numel() is known
  return roofline_span("cnn.conv_forward", 20, out.numel(), fn,
                       [&] { return out.data(); });
}

RooflineRow roofline_snn() {
  snn::SpikingNetConfig config;
  config.layer_sizes = {1024, 2048, 2048, 10};
  Rng rng(3);
  snn::SpikingNet net(config, rng);
  net.freeze();  // time the serving path: transposed weights
  const snn::SpikeTrain train = random_train(50, 1024, 0.05, 4);
  nn::Tensor logits;
  auto fn = [&] { logits = net.forward(train, false); };
  fn();
  return roofline_span("snn.step", 3, logits.numel(), fn,
                       [&] { return logits.data(); });
}

RooflineRow roofline_gnn() {
  constexpr Index kIn = 16, kOut = 16, kNodes = 2048, kDegree = 8;
  Rng rng(5);
  gnn::GraphConv conv(kIn, kOut, rng);
  conv.freeze();  // time the serving path: transposed weights
  // Synthetic node features + ring-neighbor references: the exact
  // gathered-accumulate workload the incremental message pass runs per
  // event, without graph-construction cost polluting the span.
  std::vector<float> features(static_cast<size_t>(kNodes * kIn));
  for (auto& f : features) f = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> offsets(static_cast<size_t>(kNodes * kDegree * 3));
  for (auto& o : offsets) o = static_cast<float>(rng.uniform(-3.0, 3.0));
  std::vector<float> out(static_cast<size_t>(kNodes * kOut));
  auto fn = [&] {
    gnn::GraphConv::NeighborRef refs[kDegree];
    for (Index i = 0; i < kNodes; ++i) {
      for (Index j = 0; j < kDegree; ++j) {
        const Index n = (i + 1 + j) % kNodes;
        const float* o3 =
            offsets.data() + static_cast<size_t>((i * kDegree + j) * 3);
        refs[j] = {features.data() + static_cast<size_t>(n * kIn), o3[0],
                   o3[1], o3[2]};
      }
      conv.apply_node(features.data() + static_cast<size_t>(i * kIn),
                      std::span<const gnn::GraphConv::NeighborRef>(
                          refs, static_cast<size_t>(kDegree)),
                      out.data() + static_cast<size_t>(i * kOut));
    }
  };
  return roofline_span("gnn.message_pass", 10, static_cast<Index>(out.size()),
                       fn, [&] { return out.data(); });
}

int run_roofline() {
  par::set_thread_count(1);
  const simd::Tier best = simd::detect_best();
  std::printf("== single-core roofline: scalar vs %s kernels ==\n",
              simd::tier_name(best));
  if (best == simd::Tier::Scalar) {
    std::printf("no vector tier available on this CPU; nothing to compare.\n");
    return 0;
  }
  const RooflineRow rows[] = {roofline_conv(), roofline_snn(),
                              roofline_gnn()};
  Table table({"span", "scalar [ms]",
               std::to_string(simd::lane_width(best)) + "-lane [ms]",
               "speedup", "== scalar output"});
  for (const auto& row : rows) {
    table.add_row({row.span, Table::num(row.scalar_ms, 3),
                   Table::num(row.vector_ms, 3),
                   Table::num(row.speedup(), 2) + "x",
                   row.identical ? "yes" : "MISMATCH"});
    if (!row.identical) g_checksum_failed = true;
  }
  table.print();
  for (const auto& row : rows) {
    std::printf(
        "{%s,\"bench\":\"simd_roofline\",\"span\":\"%s\",\"tier\":\"%s\","
        "\"threads\":1,\"scalar_ms\":%.3f,\"vector_ms\":%.3f,"
        "\"speedup\":%.2f,\"bitwise\":%s}\n",
        bench::host_fields().c_str(), row.span, simd::tier_name(best),
        row.scalar_ms, row.vector_ms, row.speedup(),
        row.identical ? "true" : "false");
  }
  if (g_checksum_failed) {
    std::fprintf(stderr,
                 "FATAL: vector output diverged from the scalar kernels\n");
    return 1;
  }
  return 0;
}

// ---- google-benchmark registrations (thread count as the sweep axis) ----

void BM_Conv2dForwardThreads(benchmark::State& state) {
  par::set_thread_count(state.range(0));
  Rng rng(1);
  nn::Conv2d conv(nn::Conv2dConfig{16, 32, 3, 1, 1, nn::ConvAlgo::Gemm}, rng);
  Rng xrng(2);
  const nn::Tensor x = nn::Tensor::randn({16, 64, 64}, xrng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  par::set_thread_count(1);
}
BENCHMARK(BM_Conv2dForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_GraphBuildThreads(benchmark::State& state) {
  par::set_thread_count(state.range(0));
  const auto stream = scaling_stream(20000);
  gnn::GraphBuildConfig config;
  config.max_nodes = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnn::build_graph(stream, config));
  }
  par::set_thread_count(1);
}
BENCHMARK(BM_GraphBuildThreads)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SnnForwardThreads(benchmark::State& state) {
  par::set_thread_count(state.range(0));
  snn::SpikingNetConfig config;
  config.layer_sizes = {1024, 2048, 2048, 10};
  Rng rng(3);
  snn::SpikingNet net(config, rng);
  net.freeze();  // time the serving path: transposed weights
  const snn::SpikeTrain train = random_train(50, 1024, 0.05, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(train, false));
  }
  par::set_thread_count(1);
}
BENCHMARK(BM_SnnForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--roofline") == 0) {
    return run_roofline();
  }
  std::printf("== parallel scaling: CNN / GNN / SNN hot paths "
              "(hardware_concurrency = %u) ==\n",
              std::thread::hardware_concurrency());
  sweep_conv2d();
  sweep_graph_build();
  sweep_snn_step();
  if (g_checksum_failed) {
    std::fprintf(stderr,
                 "FATAL: parallel output diverged from the serial baseline\n");
    return 1;
  }
  std::printf("\nall parallel outputs bitwise-identical to EVD_THREADS=1.\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
