// Reproduces CLAIM-LAT (§V): "CNNs largely lack this potential for
// data-driven computation that puts a lower bound on how fast they can
// respond to changes in their input data", while SNNs and event-graphs are
// event-driven.
//
// Workload: a quiet sensor; a shape sweeps into view at a known onset time.
// We measure, per pipeline, the delay from onset to (a) the first decision
// incorporating post-onset data and (b) the first *correct* decision —
// sweeping the CNN frame period and the SNN timestep to show that each
// clocked paradigm's latency floor is its period, whereas the GNN reacts
// per event.
#include <cmath>
#include <cstdio>

#include "cnn/cnn_pipeline.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "events/dataset.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "snn/snn_pipeline.hpp"

using namespace evd;

namespace {

struct LatencyResult {
  double first_us = 0.0;
  double first_correct_us = 0.0;
};

LatencyResult measure_latency(core::EventPipeline& pipeline,
                              const events::ShapeDatasetConfig& dataset,
                              Index trials) {
  Percentiles first, correct;
  for (Index trial = 0; trial < trials; ++trial) {
    const int label = static_cast<int>(trial % dataset.num_classes);
    // Jitter the onset across trials so it samples the clocked pipelines'
    // periods uniformly instead of aliasing with their grids.
    const TimeUs onset_us = 30000 + trial * 3777;
    const auto onset = events::make_onset_stream(
        dataset, label, onset_us, 100000,
        1000 + static_cast<std::uint64_t>(trial));
    auto session = pipeline.open_session(dataset.width, dataset.height);
    for (const auto& e : onset.stream.events) session->feed(e);
    session->advance_to(100000);

    std::vector<core::Decision> decisions;
    session->drain(decisions);
    double first_us = NAN, correct_us = NAN;
    for (const auto& d : decisions) {
      if (d.t <= onset.onset_us || d.label < 0) continue;
      if (std::isnan(first_us)) {
        first_us = static_cast<double>(d.t - onset.onset_us);
      }
      if (std::isnan(correct_us) && d.label == label) {
        correct_us = static_cast<double>(d.t - onset.onset_us);
        break;
      }
    }
    first.add(std::isnan(first_us) ? 70000.0 : first_us);
    correct.add(std::isnan(correct_us) ? 70000.0 : correct_us);
  }
  return {first.mean(), correct.mean()};
}

}  // namespace

int main() {
  std::printf("== CLAIM-LAT: stimulus-onset reaction latency ==\n\n");

  events::ShapeDatasetConfig dataset;
  dataset.num_classes = 4;
  events::ShapeDataset generator(dataset);
  std::vector<events::LabelledSample> train, test;
  generator.make_split(40, 5, train, test);

  // epochs/lr <= 0: each pipeline trains with its own default recipe.
  core::TrainOptions options{0, 0.0f, 1, false};

  std::printf("training the three pipelines once...\n");
  Table table({"pipeline", "cadence", "first decision [ms]",
               "first correct [ms]"});

  // CNN at several frame periods.
  for (const TimeUs period : {10000, 20000, 50000}) {
    cnn::CnnPipelineConfig config;
    config.frame_period_us = period;
    cnn::CnnPipeline pipeline(config);
    pipeline.train(train, options);
    const auto latency = measure_latency(pipeline, dataset, 8);
    table.add_row({"CNN", "frame " + Table::num(period / 1000.0, 0) + " ms",
                   Table::num(latency.first_us / 1000.0, 2),
                   Table::num(latency.first_correct_us / 1000.0, 2)});
  }

  // SNN at several timesteps.
  for (const TimeUs timestep : {2000, 5000}) {
    snn::SnnPipelineConfig config;
    config.timestep_us = timestep;
    snn::SnnPipeline pipeline(config);
    pipeline.train(train, options);
    const auto latency = measure_latency(pipeline, dataset, 8);
    table.add_row({"SNN", "step " + Table::num(timestep / 1000.0, 0) + " ms",
                   Table::num(latency.first_us / 1000.0, 2),
                   Table::num(latency.first_correct_us / 1000.0, 2)});
  }

  // GNN: per-event.
  {
    gnn::GnnPipelineConfig config;
    gnn::GnnPipeline pipeline(config);
    pipeline.train(train, options);
    const auto latency = measure_latency(pipeline, dataset, 8);
    table.add_row({"GNN", "per event",
                   Table::num(latency.first_us / 1000.0, 2),
                   Table::num(latency.first_correct_us / 1000.0, 2)});
  }

  table.print();
  std::printf(
      "\npaper (§V): the frame period lower-bounds the CNN's reaction — its\n"
      "first-decision latency tracks the period (~period/2 expected delay +\n"
      "queueing to the boundary), the SNN's tracks its (finer) timestep, and\n"
      "the event-graph reacts with the first post-onset events themselves.\n"
      "First-correct latencies additionally include evidence accumulation,\n"
      "which is why they exceed the floors for every paradigm.\n");
  return 0;
}
