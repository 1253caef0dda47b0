// Golden snapshots (label: golden) of the rendered outputs behind the two
// headline benches:
//  * bench_table1_comparison — the ComparisonHarness measurement + rating
//    tables (here at the tiny deterministic scale the integration test also
//    uses, through the identical code path);
//  * bench_sparsity — ReLU activation-sparsity table and the dense-systolic
//    vs zero-skipping accelerator faceoff.
// Any change to counters, cost models, metrics or the table formatter shows
// up as a diff against tests/golden/*.txt; refresh intended changes with
// EVD_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>

#include "check/golden.hpp"
#include "cnn/cnn_pipeline.hpp"
#include "cnn/dense_model.hpp"
#include "cnn/representation.hpp"
#include "common/table.hpp"
#include "core/comparison.hpp"
#include "events/dataset.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "hw/systolic.hpp"
#include "hw/zero_skip.hpp"
#include "nn/activations.hpp"
#include "nn/counters.hpp"
#include "snn/snn_pipeline.hpp"

namespace evd::check {
namespace {

// ---- the golden text machinery itself -------------------------------------

TEST(GoldenDiffTest, IdenticalTextMatches) {
  EXPECT_FALSE(golden_diff_text("a 1.23 b\nrow 4.5k\n", "a 1.23 b\nrow 4.5k\n")
                   .has_value());
}

TEST(GoldenDiffTest, LastDigitWobbleIsTolerated) {
  EXPECT_FALSE(golden_diff_text("acc 0.812", "acc 0.813").has_value());
  EXPECT_FALSE(golden_diff_text("macs 1.2M", "macs 1.3M").has_value());
  EXPECT_FALSE(golden_diff_text("share 85.0%", "share 85.1%").has_value());
}

TEST(GoldenDiffTest, RealNumericDriftFails) {
  EXPECT_TRUE(golden_diff_text("acc 0.812", "acc 0.912").has_value());
  EXPECT_TRUE(golden_diff_text("macs 1.2M", "macs 2.4M").has_value());
  EXPECT_TRUE(golden_diff_text("lat 10.0", "lat 10.0k").has_value());
}

TEST(GoldenDiffTest, TextAndShapeChangesFail) {
  EXPECT_TRUE(golden_diff_text("systolic 1.0", "zeroskip 1.0").has_value());
  EXPECT_TRUE(golden_diff_text("one line", "one line\nextra").has_value());
  EXPECT_TRUE(golden_diff_text("a b c", "a b").has_value());
  EXPECT_TRUE(golden_diff_text("85.0%", "85.0").has_value());
}

TEST(GoldenDiffTest, ReportsTheFirstDifferingLine) {
  const auto diff = golden_diff_text("same\nwas 1.0\n", "same\nwas 9.0\n");
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("line 2"), std::string::npos) << *diff;
}

// Restores an environment variable to its pre-test value on destruction, so
// this test does not clobber an externally requested EVD_UPDATE_GOLDEN=1 run.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* value = std::getenv(name)) saved_ = value;
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(GoldenFileTest, UpdateWriteCompareRoundTrip) {
  namespace fs = std::filesystem;
  const ScopedEnv saved_dir("EVD_GOLDEN_DIR");
  const ScopedEnv saved_update("EVD_UPDATE_GOLDEN");
  const fs::path dir = fs::temp_directory_path() / "evd_golden_roundtrip";
  fs::create_directories(dir);
  ::setenv("EVD_GOLDEN_DIR", dir.c_str(), 1);

  ::setenv("EVD_UPDATE_GOLDEN", "1", 1);
  EXPECT_FALSE(golden_compare("roundtrip", "value 1.50\n").has_value());
  ::unsetenv("EVD_UPDATE_GOLDEN");

  EXPECT_FALSE(golden_compare("roundtrip", "value 1.50\n").has_value());
  EXPECT_FALSE(golden_compare("roundtrip", "value 1.51\n").has_value());
  const auto drift = golden_compare("roundtrip", "value 3.00\n");
  ASSERT_TRUE(drift.has_value());
  EXPECT_NE(drift->find("EVD_UPDATE_GOLDEN"), std::string::npos) << *drift;

  const auto missing = golden_compare("never_written", "x\n");
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->find("missing"), std::string::npos) << *missing;

  fs::remove_all(dir);
}

// ---- bench_table1_comparison ----------------------------------------------

core::ComparisonConfig tiny_comparison_config() {
  core::ComparisonConfig config;
  config.classification.dataset.width = 16;
  config.classification.dataset.height = 16;
  config.classification.dataset.num_classes = 2;
  config.classification.dataset.duration_us = 30000;
  config.classification.dataset.min_radius = 3.0;
  config.classification.dataset.max_radius = 5.0;
  config.classification.train_per_class = 6;
  config.classification.test_per_class = 3;
  config.classification.training.epochs = 4;
  config.classification.training.lr = 3e-3f;
  config.streaming.onset_us = 10000;
  config.streaming.duration_us = 30000;
  config.streaming.trials = 2;
  config.probe_samples = 2;
  return config;
}

TEST(GoldenBenchTest, Table1ComparisonTables) {
  cnn::CnnPipeline cnn_pipeline(
      cnn::CnnPipelineConfig{16, 16, 2, 4, {}, 10000, 7});
  snn::SnnPipelineConfig snn_config;
  snn_config.width = 16;
  snn_config.height = 16;
  snn_config.num_classes = 2;
  snn_config.hidden = 24;
  snn_config.encoder.steps = 10;
  snn_config.encoder.spatial_factor = 2;
  snn_config.augment_shifts = 1;
  snn_config.timestep_us = 3000;
  snn::SnnPipeline snn_pipeline(snn_config);
  gnn::GnnPipelineConfig gnn_config;
  gnn_config.width = 16;
  gnn_config.height = 16;
  gnn_config.num_classes = 2;
  gnn_config.model.hidden = 8;
  gnn_config.model.layers = 2;
  gnn_config.graph.max_nodes = 96;
  gnn::GnnPipeline gnn_pipeline(gnn_config);

  core::ComparisonHarness harness(tiny_comparison_config());
  harness.add(&snn_pipeline);
  harness.add(&cnn_pipeline);
  harness.add(&gnn_pipeline);
  const core::ComparisonResult result = harness.run();

  std::ostringstream os;
  os << "-- raw measurements --\n"
     << result.measurement_table().to_string() << "\n-- derived grades --\n"
     << result.rating_table().to_string();
  const auto diff = golden_compare("table1_comparison", os.str());
  EXPECT_FALSE(diff.has_value()) << *diff;
}

// ---- bench_sparsity --------------------------------------------------------

TEST(GoldenBenchTest, SparsityAndAcceleratorFaceoff) {
  // Reduced-scale walk through the bench's code path: tiny dataset, short
  // training, then the same sparsity readout and accelerator comparison.
  events::ShapeDatasetConfig dataset_config;
  dataset_config.width = 16;
  dataset_config.height = 16;
  dataset_config.num_classes = 2;
  dataset_config.duration_us = 30000;
  dataset_config.min_radius = 3.0;
  dataset_config.max_radius = 5.0;
  events::ShapeDataset dataset(dataset_config);
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(8, 4, train, test);

  cnn::FrameOptions frame_options;
  std::vector<nn::Tensor> train_frames, test_frames;
  std::vector<Index> train_labels, test_labels;
  for (const auto& s : train) {
    train_frames.push_back(cnn::build_frame(s.stream.events, 16, 16, 0,
                                            dataset_config.duration_us,
                                            frame_options));
    train_labels.push_back(s.label);
  }
  for (const auto& s : test) {
    test_frames.push_back(cnn::build_frame(s.stream.events, 16, 16, 0,
                                           dataset_config.duration_us,
                                           frame_options));
    test_labels.push_back(s.label);
  }

  cnn::CnnModelConfig model_config;
  model_config.height = 16;
  model_config.width = 16;
  model_config.num_classes = 2;
  Rng rng(1);
  auto model = cnn::make_event_cnn(model_config, rng);
  cnn::FitOptions fit_options;
  fit_options.epochs = 3;
  fit_options.lr = 2e-3f;
  cnn::fit_classifier(model, train_frames, train_labels, fit_options);

  std::ostringstream os;

  Table sparsity_table({"layer", "output sparsity"});
  sparsity_table.add_row(
      {"input frame", Table::num(test_frames[0].zero_fraction(), 3)});
  nn::Tensor x = test_frames[0];
  for (Index i = 0; i < model.size(); ++i) {
    x = model.layer(i).forward(x, false);
    if (dynamic_cast<nn::ReLU*>(&model.layer(i)) != nullptr) {
      sparsity_table.add_row({"ReLU after layer " + std::to_string(i - 1),
                              Table::num(x.zero_fraction(), 3)});
    }
  }
  os << "-- activation sparsity --\n" << sparsity_table.to_string();

  nn::OpCounter counter;
  {
    nn::ScopedCounter scope(counter);
    for (const auto& frame : test_frames) (void)model.forward(frame, false);
  }
  const auto systolic = hw::run_systolic(counter, hw::SystolicConfig{});
  hw::ZeroSkipConfig zs_config;
  zs_config.lanes = 16 * 16;
  const auto zero_skip = hw::run_zero_skip(counter, zs_config);
  Table faceoff({"accelerator", "executed MACs", "latency [us]",
                 "energy [uJ]"});
  faceoff.add_row({"systolic array",
                   Table::eng(static_cast<double>(systolic.effective_macs)),
                   Table::num(systolic.latency_us, 1),
                   Table::num(systolic.energy.total_uj(), 2)});
  faceoff.add_row({"zero-skipping",
                   Table::eng(static_cast<double>(zero_skip.effective_macs)),
                   Table::num(zero_skip.latency_us, 1),
                   Table::num(zero_skip.energy.total_uj(), 2)});
  os << "\n-- dense systolic vs zero-skipping --\n" << faceoff.to_string();

  const auto diff = golden_compare("sparsity", os.str());
  EXPECT_FALSE(diff.has_value()) << *diff;
}

}  // namespace
}  // namespace evd::check
