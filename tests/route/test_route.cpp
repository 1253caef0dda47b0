// evd::route unit suite: the path registry (enumeration, byte codec,
// paradigm scoping, proved-gating), the thread-local ScopedConvAlgo
// override, the SessionBase routing contract, and route application
// through SessionManager plans (set_plan / clear_plan / plan bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "nn/conv2d.hpp"
#include "route/route.hpp"
#include "runtime/session_manager.hpp"
#include "sched/plan.hpp"

namespace evd::route {
namespace {

/// Minimal routable session with a chosen paradigm label.
class ParadigmSession final : public runtime::SessionBase {
 public:
  explicit ParadigmSession(const char* paradigm)
      : SessionBase(runtime::SessionBaseConfig{.decision_retain = 64,
                                               .paradigm = paradigm}) {}

 private:
  void on_event(const events::Event&) override {}
  void on_advance(TimeUs t) override {
    core::Decision d;
    d.t = t;
    emit(d);
  }
};

/// A plan routing cnn -> sparse and snn -> event-driven.
sched::Plan routed_plan(Index sessions) {
  sched::Plan plan = sched::Plan::round_robin(sessions, 1, 2);
  plan.placements = {{"cnn", PathId::CnnSparse},
                     {"snn", PathId::SnnEventDriven}};
  return plan;
}

TEST(Route, RegistryEnumeratesEveryParadigmsVariants) {
  auto& reg = PathRegistry::instance();
  EXPECT_EQ(reg.paths().size(), 3u);
  EXPECT_EQ(reg.paths_for("cnn").size(), 1u);
  EXPECT_EQ(reg.paths_for("snn").size(), 1u);
  EXPECT_EQ(reg.paths_for("gnn").size(), 1u);
  EXPECT_TRUE(reg.paths_for("tpu").empty());
  for (const ExecutionPath& p : reg.paths()) {
    EXPECT_STREQ(p.paradigm, path_paradigm(p.id));
    EXPECT_EQ(reg.find(p.id), &p);
  }
  // Default is not a variant: it names "whatever the paradigm hard-codes".
  EXPECT_EQ(reg.find(PathId::Default), nullptr);
}

TEST(Route, PathNamesAreStable) {
  EXPECT_STREQ(path_name(PathId::Default), "default");
  EXPECT_STREQ(path_name(PathId::CnnSparse), "cnn.sparse");
  EXPECT_STREQ(path_name(PathId::SnnEventDriven), "snn.event_driven");
  EXPECT_STREQ(path_name(PathId::GnnBatch), "gnn.batch");
  EXPECT_STREQ(path_name(static_cast<PathId>(200)), "unknown");
}

TEST(Route, PathByteCodecRoundTripsAndRejectsUnknownValues) {
  for (PathId id : {PathId::Default, PathId::CnnSparse, PathId::SnnEventDriven,
                    PathId::GnnBatch}) {
    const auto decoded = path_from_byte(static_cast<std::uint8_t>(id));
    ASSERT_TRUE(decoded.has_value()) << path_name(id);
    EXPECT_EQ(*decoded, id);
  }
  // 1, 2, 8 and 16 named the default-aliasing paths, which are gone.
  for (std::uint8_t raw :
       {std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{4}, std::uint8_t{5},
        std::uint8_t{7}, std::uint8_t{8}, std::uint8_t{10}, std::uint8_t{16},
        std::uint8_t{18}, std::uint8_t{255}}) {
    EXPECT_FALSE(path_from_byte(raw).has_value()) << static_cast<int>(raw);
  }
}

TEST(Route, PathValidityIsParadigmScoped) {
  // Default is installable on anything, even an empty paradigm label.
  EXPECT_TRUE(path_valid_for(PathId::Default, "cnn"));
  EXPECT_TRUE(path_valid_for(PathId::Default, ""));
  EXPECT_TRUE(path_valid_for(PathId::CnnSparse, "cnn"));
  EXPECT_FALSE(path_valid_for(PathId::CnnSparse, "snn"));
  EXPECT_FALSE(path_valid_for(PathId::CnnSparse, ""));
  EXPECT_TRUE(path_valid_for(PathId::GnnBatch, "gnn"));
  EXPECT_FALSE(path_valid_for(PathId::GnnBatch, "cnn"));
}

TEST(Route, RoutableIsDefaultPlusProvedOwnVariantsOnly) {
  // Proving is process-global and sticky (the oracle suite may have marked
  // variants before this test), so assert set structure, not a fixed set.
  auto& reg = PathRegistry::instance();
  for (const char* paradigm : {"cnn", "snn", "gnn"}) {
    const std::vector<PathId> routable = reg.routable(paradigm);
    ASSERT_FALSE(routable.empty());
    EXPECT_EQ(routable.front(), PathId::Default);
    for (size_t i = 1; i < routable.size(); ++i) {
      EXPECT_TRUE(reg.proved(routable[i])) << path_name(routable[i]);
      EXPECT_STREQ(path_paradigm(routable[i]), paradigm);
    }
    // Every proved variant of the paradigm must appear.
    for (const ExecutionPath& p : reg.paths_for(paradigm)) {
      if (reg.proved(p.id)) {
        EXPECT_NE(std::find(routable.begin(), routable.end(), p.id),
                  routable.end())
            << path_name(p.id);
      }
    }
  }
  // Unknown paradigms can only run their hard-coded behavior.
  EXPECT_EQ(reg.routable("tpu"), std::vector<PathId>{PathId::Default});
}

TEST(Route, MarkProvedIgnoresDefaultAndUnknownIds) {
  auto& reg = PathRegistry::instance();
  reg.mark_proved(PathId::Default);          // no slot to set
  reg.mark_proved(static_cast<PathId>(5));   // not a registered variant
  reg.mark_proved(static_cast<PathId>(200)); // out of slot range
  reg.mark_proved(PathId::CnnDirect);        // named, never registered
  EXPECT_TRUE(reg.proved(PathId::Default));
  EXPECT_FALSE(reg.proved(static_cast<PathId>(5)));
  EXPECT_FALSE(reg.proved(static_cast<PathId>(200)));
  EXPECT_FALSE(reg.proved(PathId::CnnDirect));
}

TEST(Route, ScopedConvAlgoNestsAndRestoresThreadLocally) {
  EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Auto);
  {
    const nn::ScopedConvAlgo outer(nn::ConvAlgo::Gemm);
    EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Gemm);
    {
      const nn::ScopedConvAlgo inner(nn::ConvAlgo::Sparse);
      EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Sparse);
    }
    EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Gemm);
  }
  EXPECT_EQ(nn::thread_conv_algo(), nn::ConvAlgo::Auto);
}

TEST(Route, SessionAcceptsOwnParadigmPathsAndDeclinesOthers) {
  ParadigmSession cnn("cnn");
  EXPECT_EQ(cnn.paradigm(), "cnn");
  EXPECT_EQ(cnn.execution_path(), PathId::Default);
  EXPECT_TRUE(cnn.set_execution_path(PathId::CnnSparse));
  EXPECT_EQ(cnn.execution_path(), PathId::CnnSparse);
  // A foreign path is declined without disturbing the installed one.
  EXPECT_FALSE(cnn.set_execution_path(PathId::SnnEventDriven));
  EXPECT_EQ(cnn.execution_path(), PathId::CnnSparse);
  EXPECT_TRUE(cnn.set_execution_path(PathId::Default));
  EXPECT_EQ(cnn.execution_path(), PathId::Default);
}

TEST(Route, SetPlanRoutesSessionsByParadigmAndClearPlanResets) {
  runtime::SessionManager manager;
  std::vector<runtime::SessionId> ids;
  ids.push_back(manager.add(std::make_unique<ParadigmSession>("cnn")));
  ids.push_back(manager.add(std::make_unique<ParadigmSession>("snn")));
  ids.push_back(manager.add(std::make_unique<ParadigmSession>("cnn")));
  manager.set_plan(routed_plan(3));
  EXPECT_EQ(manager.session(ids[0]).execution_path(), PathId::CnnSparse);
  EXPECT_EQ(manager.session(ids[1]).execution_path(), PathId::SnnEventDriven);
  EXPECT_EQ(manager.session(ids[2]).execution_path(), PathId::CnnSparse);
  manager.clear_plan();
  for (const auto id : ids) {
    EXPECT_EQ(manager.session(id).execution_path(), PathId::Default);
  }
}

TEST(Route, RejectedPlanLeavesInstalledRoutesUntouched) {
  runtime::SessionManager manager;
  const auto id = manager.add(std::make_unique<ParadigmSession>("cnn"));
  manager.add(std::make_unique<ParadigmSession>("snn"));
  manager.set_plan(routed_plan(2));
  const std::vector<std::uint8_t> bytes = manager.plan_bytes();

  sched::Plan broken = routed_plan(2);
  broken.regions[0].sessions[0] = 9;  // structurally invalid
  EXPECT_THROW(manager.set_plan(broken), Error);
  // Atomicity: validation failed before any route was applied.
  EXPECT_EQ(manager.session(id).execution_path(), PathId::CnnSparse);
  EXPECT_EQ(manager.plan_bytes(), bytes);
  EXPECT_TRUE(manager.plan() == routed_plan(2));
}

TEST(Route, PlanBytesCarryRoutesIntoARestoredManager) {
  runtime::SessionManager source;
  source.add(std::make_unique<ParadigmSession>("cnn"));
  source.add(std::make_unique<ParadigmSession>("snn"));
  source.set_plan(routed_plan(2));

  runtime::SessionManager restored;
  const auto cnn_id =
      restored.add(std::make_unique<ParadigmSession>("cnn"));
  const auto snn_id =
      restored.add(std::make_unique<ParadigmSession>("snn"));
  restored.install_plan_bytes(source.plan_bytes());
  EXPECT_EQ(restored.session(cnn_id).execution_path(), PathId::CnnSparse);
  EXPECT_EQ(restored.session(snn_id).execution_path(), PathId::SnnEventDriven);
  EXPECT_EQ(restored.plan().placements[0].path, PathId::CnnSparse);
}

}  // namespace
}  // namespace evd::route
