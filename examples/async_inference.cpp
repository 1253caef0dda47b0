// Asynchronous, event-driven inference — the §IV perspective in action.
//
//   $ ./examples/async_inference
//
// A shape sweeps into an initially quiet scene. Every incoming event is
// inserted into the evolving spatiotemporal graph by the O(1) incremental
// builder, the affected node's features are computed asynchronously
// (causal / "hemispherical" updates), and the running class decision is
// re-read — so the system's belief sharpens event by event, with no frame
// period or timestep in the loop. The same stream is also fed to the CNN
// session to contrast when each paradigm's first decision becomes available.
#include <cstdio>

#include "cnn/cnn_pipeline.hpp"
#include "common/table.hpp"
#include "events/dataset.hpp"
#include "gnn/async_update.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "gnn/incremental.hpp"

using namespace evd;

int main() {
  events::ShapeDatasetConfig dataset_config;
  dataset_config.num_classes = 4;
  events::ShapeDataset dataset(dataset_config);
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(40, 4, train, test);
  // Deployment-matched training: the streaming scenario below serves
  // shapes sweeping IN from off-screen, so the training set must contain
  // such trajectories too (free-roaming samples alone are a distribution
  // mismatch — a partially visible entering shape looks like a bar).
  for (int label = 0; label < dataset_config.num_classes; ++label) {
    for (int k = 0; k < 10; ++k) {
      const auto onset_sample = events::make_onset_stream(
          dataset_config, label, 20000 + k * 2500, 100000,
          500 + static_cast<std::uint64_t>(label * 16 + k));
      train.push_back({onset_sample.stream, label});
    }
  }

  std::printf("training GNN and CNN pipelines...\n");
  gnn::GnnPipeline gnn_pipeline{gnn::GnnPipelineConfig{}};
  core::TrainOptions gnn_options{30, 2e-3f, 1, false};
  gnn_pipeline.train(train, gnn_options);
  cnn::CnnPipeline cnn_pipeline{cnn::CnnPipelineConfig{}};
  core::TrainOptions cnn_options{35, 2e-3f, 1, false};
  cnn_pipeline.train(train, cnn_options);

  // Stimulus-onset stream: (near) silent until the shape enters at 30 ms.
  const int true_label = 0;  // circle
  const auto onset = events::make_onset_stream(dataset_config, true_label,
                                               30000, 100000, 99);
  std::printf("\nstimulus: %s entering at t = %lld us (%lld events total)\n\n",
              events::shape_kind_name(
                  static_cast<events::ShapeKind>(true_label)),
              (long long)onset.onset_us, (long long)onset.stream.size());

  // --- GNN: per-event asynchronous inference, narrated. ---
  auto gnn_session = gnn_pipeline.open_session(32, 32);
  auto cnn_session = cnn_pipeline.open_session(32, 32);
  for (const auto& e : onset.stream.events) {
    gnn_session->feed(e);
    cnn_session->feed(e);
  }
  gnn_session->advance_to(100000);
  cnn_session->advance_to(100000);

  std::vector<core::Decision> gnn_decisions, cnn_decisions;
  gnn_session->drain(gnn_decisions);
  cnn_session->drain(cnn_decisions);

  std::printf("-- GNN belief evolution (every ~40th decision) --\n");
  Table table({"t [us]", "since onset [us]", "predicted", "confidence"});
  for (size_t i = 0; i < gnn_decisions.size();
       i += std::max<size_t>(gnn_decisions.size() / 12, 1)) {
    const auto& d = gnn_decisions[i];
    table.add_row({std::to_string(d.t),
                   std::to_string(d.t - onset.onset_us),
                   events::shape_kind_name(
                       static_cast<events::ShapeKind>(d.label)),
                   Table::num(d.confidence, 3)});
  }
  table.print();

  auto first_after_onset = [&](const std::vector<core::Decision>& decisions,
                               bool require_correct) {
    for (const auto& d : decisions) {
      if (d.t <= onset.onset_us || d.label < 0) continue;
      if (!require_correct || d.label == true_label) {
        return static_cast<double>(d.t - onset.onset_us);
      }
    }
    return -1.0;  // never
  };
  std::printf("\nfirst decision / first correct decision after onset "
              "(-1 = never):\n");
  std::printf("  GNN (per event)   : %+.0f us / %+.0f us\n",
              first_after_onset(gnn_decisions, false),
              first_after_onset(gnn_decisions, true));
  std::printf("  CNN (20ms frames) : %+.0f us / %+.0f us\n",
              first_after_onset(cnn_decisions, false),
              first_after_onset(cnn_decisions, true));

  // --- Cost of asynchrony: per-event update work vs full recompute. ---
  std::printf("\n-- async update cost (AEGNN [70] / HUGNet [72] mechanism) --\n");
  gnn::IncrementalConfig inc_config;
  gnn::IncrementalGraphBuilder builder(32, 32, inc_config);
  gnn::AsyncEventGnn async(gnn_pipeline.model(), /*bidirectional=*/false);
  std::int64_t async_macs = 0;
  Index inserted = 0;
  for (const auto& e : onset.stream.events) {
    const auto result = builder.insert(e);
    async_macs +=
        async.insert(builder.node(result.node_id), result.neighbors).macs;
    ++inserted;
  }
  std::printf("events inserted            : %lld\n", (long long)inserted);
  std::printf("async MACs per event       : %s\n",
              Table::eng(static_cast<double>(async_macs) /
                         static_cast<double>(inserted))
                  .c_str());
  std::printf("full recompute would cost  : %s MACs per event at the final "
              "graph size\n",
              Table::eng(static_cast<double>(async.full_recompute_macs()))
                  .c_str());
  std::printf("=> %.0fx saving from asynchronous updates.\n",
              static_cast<double>(async.full_recompute_macs()) /
                  (static_cast<double>(async_macs) /
                   static_cast<double>(inserted)));
  return 0;
}
