// Self-test of the differential harness: inject a fault into one side of
// each oracle pair and verify that (a) the harness catches it and (b) the
// greedy shrinker reduces the counterexample to a structurally minimal
// input. An oracle suite that cannot detect a seeded bug is decorative —
// this file is the proof the detection machinery works.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "check/oracles.hpp"
#include "fault/injector.hpp"
#include "gnn/graph_builder.hpp"
#include "gnn/incremental.hpp"
#include "gnn/kdtree.hpp"
#include "hw/zero_skip.hpp"

namespace evd::check {
namespace {

Index non_zeros(const nn::Tensor& t) {
  Index n = 0;
  for (Index i = 0; i < t.numel(); ++i) n += t[i] != 0.0f ? 1 : 0;
  return n;
}

// ---- conv2d: perturb one direct-path output element -----------------------

TEST(FaultInjectionTest, PerturbedConvOutputIsCaughtAndShrunkToZeroInput) {
  auto faulty = [](const ConvCase& c) -> std::optional<std::string> {
    nn::Conv2dConfig direct_config = c.config;
    direct_config.algo = nn::ConvAlgo::Direct;
    nn::Conv2dConfig gemm_config = c.config;
    gemm_config.algo = nn::ConvAlgo::Gemm;
    Rng direct_rng(c.weight_seed);
    Rng gemm_rng(c.weight_seed);
    nn::Conv2d direct(direct_config, direct_rng);
    nn::Conv2d gemm(gemm_config, gemm_rng);
    nn::Tensor a = direct.forward(c.input, false);
    const nn::Tensor b = gemm.forward(c.input, false);
    a[0] += 0.5f;  // injected fault
    return diff_floats("faulty direct vs gemm", a.data(), b.data(), a.numel());
  };
  const auto result = forall_typed(conv_case_gen(), faulty, {.cases = 20});
  ASSERT_FALSE(result.report.passed);
  ASSERT_TRUE(result.minimal.has_value());
  // The fault is input-independent, so the minimal counterexample is the
  // all-zero input: the shrinker must strip every non-zero.
  EXPECT_EQ(non_zeros(result.minimal->input), 0)
      << result.report.counterexample;
}

// ---- SNN: halve the threshold on the event-driven side --------------------

TEST(FaultInjectionTest, PerturbedSnnThresholdShrinksToAFewSpikes) {
  auto faulty = [](const SnnLayerCase& c) -> std::optional<std::string> {
    nn::Tensor weight({c.out, c.in});
    std::copy(c.weights.begin(), c.weights.end(), weight.data());
    snn::SpikingLayerSpec spec;
    spec.weight = &weight;
    spec.lif = c.lif;
    snn::SpikingLayerSpec faulty_spec = spec;
    faulty_spec.lif.threshold = c.lif.threshold * 0.5f;  // injected fault
    snn::ExecutionCost clocked_cost, event_cost;
    const snn::SpikeTrain clocked =
        snn::run_clocked(spec, c.input, clocked_cost);
    const snn::SpikeTrain event =
        snn::run_event_driven(faulty_spec, c.input, event_cost);
    if (clocked.steps != event.steps || clocked.active != event.active) {
      return "spike trains differ";
    }
    return std::nullopt;
  };
  const auto result =
      forall_typed(snn_layer_case_gen(), faulty, {.cases = 100});
  ASSERT_FALSE(result.report.passed);
  ASSERT_TRUE(result.minimal.has_value());
  // A single sufficiently-weighted input spike exposes a halved threshold;
  // the shrinker should get close to that.
  EXPECT_LE(result.minimal->input.total_spikes(), 2)
      << result.report.counterexample;
  EXPECT_GT(result.report.shrink_steps, 0);
}

// ---- GNN: shrink the incremental builder's radius -------------------------

TEST(FaultInjectionTest, PerturbedGnnRadiusShrinksToAWitnessPair) {
  auto faulty = [](const GraphCase& c) -> std::optional<std::string> {
    if (c.stream.width <= 0 || c.stream.height <= 0) return std::nullopt;
    gnn::GraphBuildConfig batch_config;
    batch_config.radius = c.radius;
    batch_config.max_neighbors = c.max_neighbors;
    batch_config.max_nodes = std::max<Index>(c.stream.size(), 1);
    gnn::IncrementalConfig inc_config;
    inc_config.radius = c.radius * 0.5f;  // injected fault
    inc_config.max_neighbors = c.max_neighbors;
    inc_config.cell_capacity = 1024;
    const gnn::EventGraph batch = gnn::build_graph(c.stream, batch_config);
    const gnn::EventGraph incremental = gnn::build_graph_incremental(
        c.stream, inc_config, batch_config.max_nodes);
    if (batch.edge_count() != incremental.edge_count()) {
      return "edge counts differ";
    }
    return std::nullopt;
  };
  const auto result = forall_typed(graph_case_gen(), faulty, {.cases = 100});
  ASSERT_FALSE(result.report.passed);
  ASSERT_TRUE(result.minimal.has_value());
  // Minimal witness: two events whose distance lies between r/2 and r.
  EXPECT_EQ(result.minimal->stream.size(), 2)
      << result.report.counterexample;
  EXPECT_GT(result.report.shrink_steps, 0);
}

// ---- hw: double the utilization in the systolic mirror --------------------

TEST(FaultInjectionTest, PerturbedSystolicMirrorShrinksToOneMac) {
  auto faulty = [](const HwCase& c) -> std::optional<std::string> {
    const hw::AcceleratorReport report =
        hw::run_systolic(c.workload, c.systolic);
    const double macs = static_cast<double>(c.workload.macs());
    const double latency =
        macs /
        (static_cast<double>(c.systolic.rows * c.systolic.cols) *
         c.systolic.utilization * 2.0) /  // injected fault
        c.systolic.frequency_mhz;
    return diff_scalar("faulty systolic latency", report.latency_us, latency,
                       1e-12);
  };
  const auto result =
      forall_typed(hw_case_gen(), faulty, {.cases = 20, .max_shrink_steps = 20000});
  ASSERT_FALSE(result.report.passed);
  ASSERT_TRUE(result.minimal.has_value());
  const nn::OpCounter& w = result.minimal->workload;
  // Latency only depends on MACs: everything else shrinks to zero and the
  // MAC count shrinks to the smallest value that still has a latency.
  EXPECT_EQ(w.macs(), 1) << result.report.counterexample;
  EXPECT_EQ(w.comparisons, 0);
  EXPECT_EQ(w.param_bytes_read, 0);
  EXPECT_EQ(w.state_bytes_rw, 0);
}

// ---- hw: halve the skip efficiency in the zero-skip mirror ----------------

TEST(FaultInjectionTest, PerturbedZeroSkipMirrorIsCaughtAndShrunk) {
  auto faulty = [](const HwCase& c) -> std::optional<std::string> {
    if (c.zero_skip.skip_efficiency == 0.0) return std::nullopt;
    const hw::AcceleratorReport report =
        hw::run_zero_skip(c.workload, c.zero_skip);
    const std::int64_t macs = c.workload.macs();
    const std::int64_t skipped =
        std::min(c.workload.zero_skippable_mults, macs);
    const double slots =
        static_cast<double>(macs - skipped) +
        (1.0 - c.zero_skip.skip_efficiency * 0.5) *  // injected fault
            static_cast<double>(skipped);
    const double latency = slots / static_cast<double>(c.zero_skip.lanes) /
                           c.zero_skip.frequency_mhz;
    return diff_scalar("faulty zero-skip latency", report.latency_us, latency,
                       1e-12);
  };
  const auto result =
      forall_typed(hw_case_gen(), faulty, {.cases = 50, .max_shrink_steps = 20000});
  ASSERT_FALSE(result.report.passed);
  ASSERT_TRUE(result.minimal.has_value());
  const nn::OpCounter& w = result.minimal->workload;
  // The fault only shows when skipped MACs exist.
  EXPECT_GE(std::min(w.zero_skippable_mults, w.macs()), 1)
      << result.report.counterexample;
  EXPECT_GT(result.report.shrink_steps, 0);
}

// ---- serving plane: a session that throws on every op ---------------------

// Break the serving plane itself: every op pumped for session 0 throws, and
// with no checkpoint the session quarantines. The registered multiplex,
// plan and shard oracles must each catch the lost decisions and shrink the
// schedule to the one session that carries the fault (on the shard manager,
// session 0 of each shard's inner manager).
TEST(FaultInjectionTest, BrokenServingPlaneIsCaughtAndShrunkToOneSession) {
  register_builtin_oracles();
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = 0;
  plan.max_fires = 0;  // unlimited
  fault::ScopedInjection injection("runtime.pump.op_fault", plan);
  for (const char* name :
       {"runtime.multiplex_vs_sequential.gnn", "sched.plan_vs_sequential.gnn",
        "shard.sharded_vs_sequential.gnn"}) {
    const Oracle* oracle = registry().find(name);
    ASSERT_NE(oracle, nullptr) << name;
    const CheckResult result = oracle->run({.cases = 20});
    EXPECT_FALSE(result.passed) << name;
    EXPECT_EQ(result.counterexample.rfind("1 sessions ", 0), 0u)
        << name << ": " << result.summary();
    EXPECT_NE(result.message.find("session 0"), std::string::npos)
        << name << ": " << result.summary();
  }
}

}  // namespace
}  // namespace evd::check
