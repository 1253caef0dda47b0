// Reproduces CLAIM-SPARSE (§III-B): CNNs on event data are themselves
// sparse — rectified feature maps are mostly zero [50], pruning [51] and
// quantization [52] zero/shrink the weights — and sparsity-aware hardware
// converts that into savings, with structured sparsity [65] the
// memory-friendly variant.
//
// Experiments:
//   1. ReLU feature-map sparsity per layer on real event frames;
//   2. magnitude vs structured pruning sweep: accuracy + zero-skip energy;
//   3. weight-quantization sweep (post-training + QAT);
//   4. dense systolic vs zero-skipping accelerator on the same workload.
#include <cstdio>

#include "cnn/cnn_pipeline.hpp"
#include "cnn/dense_model.hpp"
#include "common/table.hpp"
#include "events/dataset.hpp"
#include "hw/systolic.hpp"
#include "hw/zero_skip.hpp"
#include "nn/activations.hpp"
#include "nn/pruning.hpp"
#include "nn/quantization.hpp"

using namespace evd;

namespace {

struct Workbench {
  events::ShapeDatasetConfig dataset_config;
  std::vector<events::LabelledSample> train, test;
  std::vector<nn::Tensor> train_frames, test_frames;
  std::vector<Index> train_labels, test_labels;

  Workbench() {
    dataset_config.num_classes = 4;
    events::ShapeDataset dataset(dataset_config);
    dataset.make_split(40, 10, train, test);
    cnn::FrameOptions options;
    for (const auto& s : train) {
      train_frames.push_back(cnn::build_frame(
          s.stream.events, 32, 32, s.stream.events.front().t,
          s.stream.events.back().t + 1, options));
      train_labels.push_back(s.label);
    }
    for (const auto& s : test) {
      test_frames.push_back(cnn::build_frame(
          s.stream.events, 32, 32, s.stream.events.front().t,
          s.stream.events.back().t + 1, options));
      test_labels.push_back(s.label);
    }
  }

  nn::Sequential trained_model(Index epochs = 25) {
    Rng rng(1);
    auto model = cnn::make_event_cnn(cnn::CnnModelConfig{}, rng);
    cnn::FitOptions options;
    options.epochs = epochs;
    options.lr = 2e-3f;
    cnn::fit_classifier(model, train_frames, train_labels, options);
    return model;
  }

  double accuracy(nn::Sequential& model) {
    return cnn::evaluate_classifier(model, test_frames, test_labels);
  }

  nn::OpCounter workload(nn::Sequential& model) {
    nn::OpCounter counter;
    nn::ScopedCounter scope(counter);
    for (const auto& frame : test_frames) {
      (void)model.forward(frame, false);
    }
    return counter;
  }
};

void activation_sparsity(Workbench& bench, nn::Sequential& model) {
  std::printf("-- activation sparsity per ReLU layer ([50]) --\n");
  // Forward a frame layer by layer and read each ReLU output's sparsity.
  Table table({"layer", "output sparsity"});
  table.add_row({"input frame",
                 Table::num(bench.test_frames[0].zero_fraction(), 3)});
  nn::Tensor x = bench.test_frames[0];
  for (Index i = 0; i < model.size(); ++i) {
    x = model.layer(i).forward(x, false);
    if (dynamic_cast<nn::ReLU*>(&model.layer(i)) != nullptr) {
      table.add_row({"ReLU after layer " + std::to_string(i - 1),
                     Table::num(x.zero_fraction(), 3)});
    }
  }
  table.print();
}

void pruning_sweep(Workbench& bench) {
  std::printf("\n-- pruning sweep ([51] magnitude, [65] structured) --\n");
  Table table({"method", "fraction", "weight sparsity", "test accuracy",
               "zero-skip energy [uJ]"});
  {
    auto model = bench.trained_model();
    const auto counter = bench.workload(model);
    const auto report = hw::run_zero_skip(counter, hw::ZeroSkipConfig{});
    table.add_row({"unpruned", "0.0", "0.000",
                   Table::num(bench.accuracy(model), 3),
                   Table::num(report.energy.total_uj(), 2)});
  }
  for (const bool structured : {false, true}) {
    for (const double fraction : {0.3, 0.5, 0.7, 0.9}) {
      auto model = bench.trained_model();
      nn::PruneMask mask(model.params());
      if (structured) {
        mask.prune_structured_rows(fraction);
      } else {
        mask.prune_magnitude(fraction);
      }
      const double accuracy = bench.accuracy(model);
      const auto counter = bench.workload(model);
      const auto report = hw::run_zero_skip(counter, hw::ZeroSkipConfig{});
      table.add_row({structured ? "structured rows" : "magnitude",
                     Table::num(fraction, 1),
                     Table::num(nn::weight_sparsity(model.params()), 3),
                     Table::num(accuracy, 3),
                     Table::num(report.energy.total_uj(), 2)});
    }
  }
  table.print();
}

void quantization_sweep(Workbench& bench) {
  std::printf("\n-- weight quantization sweep ([52], STE [39]) --\n");
  Table table({"bits", "post-training acc", "QAT-finetuned acc"});
  auto baseline = bench.trained_model();
  const double fp_accuracy = bench.accuracy(baseline);
  table.add_row({"fp32", Table::num(fp_accuracy, 3), "-"});
  for (const int bits : {8, 4, 3, 2}) {
    auto model = bench.trained_model();
    nn::quantize_params(model.params(), bits);
    const double ptq = bench.accuracy(model);

    // QAT fine-tune for a few epochs with the straight-through estimator.
    auto qat_model = bench.trained_model();
    nn::QatTrainer qat(qat_model.params(), bits);
    nn::Adam optimizer(qat_model.params(), 5e-4f);
    for (int epoch = 0; epoch < 5; ++epoch) {
      for (size_t i = 0; i < bench.train_frames.size(); ++i) {
        qat.quantize_for_forward();
        const auto [loss, hit] = nn::train_step(
            qat_model, bench.train_frames[i], bench.train_labels[i]);
        (void)loss;
        (void)hit;
        qat.restore_latent();
        optimizer.step();
      }
    }
    qat.quantize_for_forward();  // deploy quantized
    const double qat_accuracy = bench.accuracy(qat_model);
    table.add_row({std::to_string(bits), Table::num(ptq, 3),
                   Table::num(qat_accuracy, 3)});
  }
  table.print();
}

void accelerator_faceoff(Workbench& bench) {
  std::printf("\n-- dense systolic vs zero-skipping accelerator (§III-B) --\n");
  auto model = bench.trained_model();
  const auto counter = bench.workload(model);
  const double sparsity =
      static_cast<double>(counter.zero_skippable_mults) /
      static_cast<double>(counter.macs());
  std::printf("workload: %s MACs, %.1f%% with a zero activation operand\n",
              Table::eng(static_cast<double>(counter.macs())).c_str(),
              sparsity * 100.0);

  const auto systolic = hw::run_systolic(counter, hw::SystolicConfig{});
  hw::ZeroSkipConfig zs_config;
  zs_config.lanes = 16 * 16;
  const auto zero_skip = hw::run_zero_skip(counter, zs_config);
  Table table({"accelerator", "executed MACs", "latency [us]",
               "energy [uJ]"});
  table.add_row({"systolic array (TPU-like [60])",
                 Table::eng(static_cast<double>(systolic.effective_macs)),
                 Table::num(systolic.latency_us, 1),
                 Table::num(systolic.energy.total_uj(), 2)});
  table.add_row({"zero-skipping (NullHop-like [62])",
                 Table::eng(static_cast<double>(zero_skip.effective_macs)),
                 Table::num(zero_skip.latency_us, 1),
                 Table::num(zero_skip.energy.total_uj(), 2)});
  table.print();
  std::printf("zero-skipping converts the %.0f%% activation sparsity into "
              "%.1fx energy and %.1fx latency savings on this workload.\n",
              sparsity * 100.0,
              systolic.energy.total_pj() / zero_skip.energy.total_pj(),
              systolic.latency_us / zero_skip.latency_us);
}

}  // namespace

int main() {
  std::printf("== CLAIM-SPARSE: CNN sparsity and sparsity-aware hardware ==\n\n");
  Workbench bench;
  auto model = bench.trained_model();
  std::printf("baseline test accuracy: %.3f\n\n", bench.accuracy(model));
  activation_sparsity(bench, model);
  pruning_sweep(bench);
  quantization_sweep(bench);
  accelerator_faceoff(bench);
  return 0;
}
