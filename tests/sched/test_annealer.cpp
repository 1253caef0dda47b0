// Annealer property suite (ISSUE satellite): determinism across pool
// sizes, structural validity of everything it emits, and the monotone
// best-so-far trajectory.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "sched/annealer.hpp"

namespace evd::sched {
namespace {

core::StageInfo stage(const char* name, std::int64_t macs,
                      std::int64_t boundary_bytes, double duty) {
  core::StageInfo s;
  s.name = name;
  s.per_op.mults = s.per_op.adds = macs;
  s.per_op.act_bytes_written = boundary_bytes;
  s.duty = duty;
  return s;
}

/// A deliberately lopsided mixed population: heavy CNNs, cheap SNNs, a
/// mid-weight GNN — enough asymmetry that balancing and burst choices
/// matter.
std::vector<SessionProfile> mixed_profiles() {
  SessionProfile cnn;
  cnn.paradigm = "cnn";
  cnn.queued_ops = 96;
  cnn.stages = {stage("cnn.accumulate", 2, 16, 1.0),
                stage("cnn.representation_build", 256, 8192, 1.0 / 32),
                stage("cnn.conv_forward", 40000, 0, 1.0 / 32)};
  SessionProfile snn;
  snn.paradigm = "snn";
  snn.queued_ops = 32;
  snn.stages = {stage("snn.encode", 2, 8, 1.0),
                stage("snn.step", 4096, 64, 1.0 / 64),
                stage("snn.readout", 2, 8, 1.0 / 64)};
  SessionProfile gnn;
  gnn.paradigm = "gnn";
  gnn.queued_ops = 48;
  gnn.stages = {stage("gnn.graph_update", 64, 128, 0.5),
                stage("gnn.message_pass", 4608, 32, 0.5),
                stage("gnn.readout", 32, 0, 0.5)};
  return {cnn, cnn, snn, snn, snn, gnn};
}

AnnealerConfig search_config(std::uint64_t seed) {
  AnnealerConfig config;
  config.seed = seed;
  config.iterations = 400;
  config.region_count = 4;
  config.burst_cap = 8;
  return config;
}

TEST(Annealer, SameSeedSamePlanAtAnyThreadCount) {
  const auto profiles = mixed_profiles();
  CostModels models;
  // Pin the modeled host so the search itself is what's under test: with
  // host_workers = 0 the cost model deliberately resolves the live pool
  // size, which would (correctly) steer the two legs to different plans.
  models.host_workers = 4;
  const auto run = [&](Index threads) {
    const Index previous = par::thread_count();
    par::set_thread_count(threads);
    const AnnealResult result =
        anneal_plan(profiles, models, search_config(7));
    par::set_thread_count(previous);
    return result;
  };
  const AnnealResult serial = run(1);
  const AnnealResult pooled = run(4);
  EXPECT_TRUE(serial.plan == pooled.plan);
  EXPECT_EQ(serial.plan.fingerprint(), pooled.plan.fingerprint());
  EXPECT_EQ(serial.trajectory, pooled.trajectory);
  EXPECT_EQ(serial.accepted, pooled.accepted);
  EXPECT_EQ(serial.proposed, pooled.proposed);
}

TEST(Annealer, EveryChosenPlanValidatesAcrossSeeds) {
  const auto profiles = mixed_profiles();
  const CostModels models;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AnnealResult result =
        anneal_plan(profiles, models, search_config(seed));
    std::string why;
    EXPECT_TRUE(result.plan.validate(&why))
        << "seed " << seed << ": " << why << "\n" << result.plan.describe();
    EXPECT_EQ(result.plan.session_count,
              static_cast<Index>(profiles.size()));
    EXPECT_LE(static_cast<Index>(result.plan.regions.size()),
              search_config(seed).region_count);
    EXPECT_EQ(result.plan.seed, seed);
  }
}

TEST(Annealer, TrajectoryIsMonotoneNonIncreasing) {
  const auto profiles = mixed_profiles();
  const CostModels models;
  for (std::uint64_t seed : {3u, 11u, 29u}) {
    const AnnealResult result =
        anneal_plan(profiles, models, search_config(seed));
    ASSERT_FALSE(result.trajectory.empty()) << "seed " << seed;
    for (size_t i = 1; i < result.trajectory.size(); ++i) {
      EXPECT_LE(result.trajectory[i], result.trajectory[i - 1])
          << "seed " << seed << " at accepted move " << i;
    }
    EXPECT_EQ(result.trajectory.back(), result.plan.modeled_cost_us);
  }
}

TEST(Annealer, NeverWorseThanTheRoundRobinStart) {
  const auto profiles = mixed_profiles();
  const CostModels models;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const AnnealResult result =
        anneal_plan(profiles, models, search_config(seed));
    EXPECT_LE(result.plan.modeled_cost_us, result.initial_cost_us)
        << "seed " << seed;
    EXPECT_GT(result.plan.modeled_cost_us, 0.0);
    EXPECT_GE(result.accepted, 0);
    EXPECT_LE(result.accepted, result.proposed);
  }
}

TEST(Annealer, FindsTheImbalanceARoundRobinDealIgnores) {
  // Heavy sessions at even ids: the s % W deal stacks both heavies into the
  // same region at region_count 2; any sane search separates them.
  SessionProfile heavy;
  heavy.paradigm = "cnn";
  heavy.queued_ops = 64;
  heavy.stages = {stage("conv", 200000, 0, 1.0)};
  SessionProfile light;
  light.paradigm = "snn";
  light.queued_ops = 64;
  light.stages = {stage("step", 64, 0, 1.0)};
  const std::vector<SessionProfile> profiles = {heavy, light, heavy, light};
  const CostModels models;
  AnnealerConfig config = search_config(5);
  config.region_count = 2;
  const AnnealResult result = anneal_plan(profiles, models, config);
  EXPECT_LT(result.plan.modeled_cost_us, result.initial_cost_us)
      << result.plan.describe();
}

TEST(Annealer, PlacementsCoverEachParadigmOnce) {
  const auto profiles = mixed_profiles();
  const CostModels models;
  const AnnealResult result = anneal_plan(profiles, models, search_config(2));
  ASSERT_EQ(result.plan.placements.size(), 3u);
  std::vector<std::string> paradigms;
  for (const auto& p : result.plan.placements) {
    paradigms.push_back(p.paradigm);
    EXPECT_TRUE(route::path_valid_for(p.path, p.paradigm))
        << p.paradigm << " routed to " << route::path_name(p.path);
  }
  EXPECT_EQ(paradigms, (std::vector<std::string>{"cnn", "snn", "gnn"}));
}

}  // namespace
}  // namespace evd::sched
