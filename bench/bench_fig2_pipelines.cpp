// Reproduces Fig. 2: the three processing pipelines side by side.
//
//  * left  (SNN): LIF membrane dynamics under a spike train + the surrogate
//    gradient that replaces the spike's delta-function derivative;
//  * centre (CNN): two-channel dense-frame construction from events, the
//    sparsity of the resulting feature maps, and the compressed (non-zero
//    list) storage the zero-skipping accelerators rely on;
//  * right (GNN): the spatiotemporal graph built from the same events.
#include <cstdio>

#include "cnn/representation.hpp"
#include "common/table.hpp"
#include "events/dataset.hpp"
#include "gnn/graph_builder.hpp"
#include "hw/zero_skip.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "snn/lif.hpp"
#include "snn/surrogate.hpp"

using namespace evd;

namespace {

void snn_panel() {
  std::printf("-- Fig 2 left (SNN): LIF membrane + surrogate gradient --\n");
  snn::LifConfig config;
  config.beta = 0.9f;
  config.threshold = 1.0f;
  // Current injection: silence, a burst, then sustained drive.
  std::vector<float> current(60, 0.0f);
  for (int t = 10; t < 14; ++t) current[static_cast<size_t>(t)] = 0.35f;
  for (int t = 30; t < 55; ++t) current[static_cast<size_t>(t)] = 0.22f;
  const auto trace = simulate_lif(config, current);

  std::printf("membrane trace (#=V, ^=spike):\n");
  for (size_t t = 0; t < trace.membrane.size(); t += 2) {
    const int bar = static_cast<int>(trace.membrane[t] / config.threshold * 30);
    std::printf("  t=%2zu |%-30.*s|%s V=%.2f\n", t, bar,
                "##############################",
                trace.spikes[t] ? " ^ spike" : "", trace.membrane[t]);
  }
  std::printf("total spikes: %lld\n", (long long)trace.spike_count());

  Table surrogate_table({"V - theta", "true dH/dV", "fast_sigmoid", "boxcar",
                         "arctan"});
  for (const float x : {-1.0f, -0.5f, -0.1f, 0.0f, 0.1f, 0.5f, 1.0f}) {
    surrogate_table.add_row(
        {Table::num(x, 2), x == 0.0f ? "inf (delta)" : "0",
         Table::num(surrogate_grad(snn::SurrogateKind::FastSigmoid, x), 3),
         Table::num(surrogate_grad(snn::SurrogateKind::Boxcar, x), 3),
         Table::num(surrogate_grad(snn::SurrogateKind::ArcTan, x), 3)});
  }
  surrogate_table.print();
}

void cnn_panel(const events::EventStream& stream) {
  std::printf("\n-- Fig 2 centre (CNN): dense frame, sparse feature maps, "
              "compression --\n");
  cnn::FrameOptions options;
  options.repr = cnn::Representation::CountTwoChannel;
  const nn::Tensor frame =
      cnn::build_frame(stream.events, stream.width, stream.height,
                       stream.events.front().t, stream.events.back().t + 1,
                       options);
  std::printf("frame: %lld events -> [2, %lld, %lld] dense tensor, "
              "%.1f%% zeros\n",
              (long long)stream.size(), (long long)stream.height,
              (long long)stream.width, frame.zero_fraction() * 100.0);

  // One conv+ReLU stage: feature-map sparsity after rectification.
  Rng rng(1);
  nn::Conv2d conv(nn::Conv2dConfig{2, 8, 3, 1, 1}, rng);
  nn::ReLU relu;
  const nn::Tensor feature_map = relu.forward(conv.forward(frame, false), false);
  std::printf("conv3x3(2->8) + ReLU feature map: %.1f%% zeros\n",
              feature_map.zero_fraction() * 100.0);

  Table compress({"storage", "bytes", "vs dense"});
  const double dense_bytes = static_cast<double>(feature_map.numel()) * 1.0;
  const double nz_bytes = hw::compressed_bytes(
      feature_map.numel(), feature_map.zero_fraction(), 1.0);
  compress.add_row({"dense int8 map", Table::eng(dense_bytes), "1.00x"});
  compress.add_row({"non-zero list (Fig 2 'compression')",
                    Table::eng(nz_bytes),
                    Table::num(dense_bytes / nz_bytes, 2) + "x smaller"});
  compress.print();
}

void gnn_panel(const events::EventStream& stream) {
  std::printf("\n-- Fig 2 right (GNN): graphs from events --\n");
  Table table({"radius", "nodes", "edges", "mean degree", "graph bytes",
               "vs dense frame bytes"});
  const double frame_bytes =
      2.0 * static_cast<double>(stream.width * stream.height) * 4.0;
  for (const float radius : {2.0f, 3.0f, 5.0f}) {
    gnn::GraphBuildConfig config;
    config.radius = radius;
    config.max_nodes = 512;
    const auto graph = gnn::build_graph(stream, config);
    table.add_row(
        {Table::num(radius, 1), std::to_string(graph.node_count()),
         std::to_string(graph.edge_count()),
         Table::num(graph.mean_degree(), 2),
         Table::eng(static_cast<double>(graph.storage_bytes())),
         Table::num(static_cast<double>(graph.storage_bytes()) / frame_bytes,
                    2) +
             "x"});
  }
  table.print();
  std::printf("edges carry (dx, dy, dt) offsets: relative event timing is "
              "available to every conv layer.\n");
  // The graph's byte cost is resolution-independent (it scales with event
  // count), the frame's is not: project to the Gen4 sensor.
  gnn::GraphBuildConfig config;
  const auto graph = gnn::build_graph(stream, config);
  const double vga_frame_bytes = 2.0 * 1280.0 * 720.0 * 4.0;
  std::printf("at Gen4 resolution (1280x720) the same scene's dense frame "
              "costs %s vs a ~%s graph: %.0fx in the graph's favour — the "
              "sparsity advantage appears at scale.\n",
              Table::eng(vga_frame_bytes).c_str(),
              Table::eng(static_cast<double>(graph.storage_bytes())).c_str(),
              vga_frame_bytes / static_cast<double>(graph.storage_bytes()));
}

}  // namespace

int main() {
  std::printf("== FIG 2: SNN / CNN / GNN pipeline anatomy ==\n\n");
  events::ShapeDatasetConfig dataset_config;
  events::ShapeDataset dataset(dataset_config);
  const auto sample = dataset.make_sample(0);

  snn_panel();
  cnn_panel(sample.stream);
  gnn_panel(sample.stream);
  return 0;
}
