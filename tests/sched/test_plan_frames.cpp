// Negative decoding suite for serialized plan frames (ISSUE satellite):
// truncated, bit-flipped and version-skewed plan_bytes must surface as
// typed CheckpointCorrupt / CheckpointMismatch errors — never as UB, a
// silent mis-decode, or a half-installed plan — and a failed
// install_plan_bytes must leave the manager's plan, bytes and session
// routes exactly as they were.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "route/route.hpp"
#include "runtime/session_manager.hpp"
#include "sched/plan.hpp"

namespace evd::sched {
namespace {

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

/// A plan with everything a frame can carry: regions, a burst, and
/// placements with their execution paths.
Plan full_plan(route::PathId cnn_path = route::PathId::CnnSparse) {
  Plan plan = Plan::round_robin(3, 2, 4);
  plan.regions[0].sessions = {2, 0};
  plan.placements = {{"cnn", cnn_path}, {"gnn", route::PathId::GnnBatch}};
  return plan;
}

std::vector<std::uint8_t> full_plan_bytes(
    route::PathId cnn_path = route::PathId::CnnSparse) {
  std::vector<std::uint8_t> bytes;
  full_plan(cnn_path).serialize(bytes);
  return bytes;
}

ErrorCode decode_error(std::span<const std::uint8_t> bytes) {
  try {
    (void)Plan::deserialize(bytes);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "decode unexpectedly succeeded";
  return ErrorCode::InvalidArgument;
}

TEST(PlanFrames, EveryTruncationRaisesCheckpointCorrupt) {
  const std::vector<std::uint8_t> bytes = full_plan_bytes();
  ASSERT_GT(bytes.size(), 16u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(decode_error({bytes.data(), len}), ErrorCode::CheckpointCorrupt)
        << "prefix of " << len << " bytes";
  }
}

TEST(PlanFrames, TrailingGarbageRaisesCheckpointCorrupt) {
  std::vector<std::uint8_t> bytes = full_plan_bytes();
  bytes.push_back(0xAB);
  EXPECT_EQ(decode_error(bytes), ErrorCode::CheckpointCorrupt);
}

TEST(PlanFrames, FlippedMagicRaisesCheckpointMismatch) {
  std::vector<std::uint8_t> bytes = full_plan_bytes();
  bytes[0] ^= 0x01;
  EXPECT_EQ(decode_error(bytes), ErrorCode::CheckpointMismatch);
}

TEST(PlanFrames, VersionSkewRaisesCheckpointMismatch) {
  // The format is strict v4-only: a v1 frame (pre-routing, no path byte),
  // a v2 frame (hw model + fusion groups per placement), a v3 frame (seed
  // and per-entry bursts) and a from-the-future v5 frame are all refused
  // up front.
  for (std::uint32_t version : {0u, 1u, 2u, 3u, 5u, 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> bytes = full_plan_bytes();
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    EXPECT_EQ(decode_error(bytes), ErrorCode::CheckpointMismatch)
        << "version " << version;
  }
}

TEST(PlanFrames, OversizedBurstRaisesCheckpointCorrupt) {
  // A well-framed plan whose burst would overflow `burst * coarsen_factor`
  // in the pump: refused at decode and at install, never pumped.
  Plan plan = full_plan();
  plan.burst = Index{1} << 62;
  std::vector<std::uint8_t> bytes;
  plan.serialize(bytes);
  EXPECT_EQ(decode_error(bytes), ErrorCode::CheckpointCorrupt);

  runtime::SessionManager manager;
  for (const char* paradigm : {"cnn", "snn", "gnn"}) {
    manager.add(std::make_unique<ParadigmSession>(paradigm));
  }
  try {
    manager.set_plan(plan);
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }
  EXPECT_FALSE(manager.has_plan());
}

TEST(PlanFrames, UnknownPathByteRaisesCheckpointCorrupt) {
  // Locate the cnn placement's path byte without hard-coding the layout:
  // two frames differing only in that field differ in exactly one byte.
  const std::vector<std::uint8_t> sparse =
      full_plan_bytes(route::PathId::CnnSparse);
  const std::vector<std::uint8_t> dflt =
      full_plan_bytes(route::PathId::Default);
  ASSERT_EQ(sparse.size(), dflt.size());
  size_t path_at = sparse.size();
  size_t differing = 0;
  for (size_t i = 0; i < sparse.size(); ++i) {
    if (sparse[i] != dflt[i]) {
      path_at = i;
      ++differing;
    }
  }
  ASSERT_EQ(differing, 1u);
  std::vector<std::uint8_t> bytes = sparse;
  // 0x05 is a reserved gap in the PathId space; 1, 2, 8 and 16 named the
  // default-aliasing paths, which are no longer registered.
  for (const int raw : {0x01, 0x02, 0x05, 0x08, 0x10, 0xFE}) {
    bytes[path_at] = static_cast<std::uint8_t>(raw);
    EXPECT_EQ(decode_error(bytes), ErrorCode::CheckpointCorrupt) << raw;
  }
}

TEST(PlanFrames, DuplicatePlacementRaisesCheckpointCorrupt) {
  // Two placements for one paradigm: consumers would silently use the
  // first, so two frames executing the same plan would fingerprint apart.
  Plan plan = full_plan();
  plan.placements.push_back({"cnn", route::PathId::Default});
  std::vector<std::uint8_t> bytes;
  plan.serialize(bytes);
  EXPECT_EQ(decode_error(bytes), ErrorCode::CheckpointCorrupt);

  runtime::SessionManager manager;
  for (const char* paradigm : {"cnn", "snn", "gnn"}) {
    manager.add(std::make_unique<ParadigmSession>(paradigm));
  }
  try {
    manager.set_plan(plan);
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }
  EXPECT_FALSE(manager.has_plan());
}

TEST(PlanFrames, EverySingleBitFlipDecodesTypedOrValid) {
  // Exhaustive robustness sweep: no single-bit corruption may crash the
  // decoder or hand back an invalid plan — each flip either decodes to a
  // plan that passes validate() (flips in cost/burst payloads can be
  // legitimate values) or raises a typed checkpoint error.
  const std::vector<std::uint8_t> bytes = full_plan_bytes();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        const Plan plan = Plan::deserialize(mutated);
        std::string why;
        EXPECT_TRUE(plan.validate(&why))
            << "byte " << i << " bit " << bit << ": " << why;
      } catch (const Error& e) {
        EXPECT_TRUE(e.code() == ErrorCode::CheckpointCorrupt ||
                    e.code() == ErrorCode::CheckpointMismatch)
            << "byte " << i << " bit " << bit << ": "
            << error_code_name(e.code());
      }
    }
  }
}

TEST(PlanFrames, FailedInstallLeavesManagerAndRoutesUntouched) {
  runtime::SessionManager manager;
  const auto cnn_id = manager.add(std::make_unique<ParadigmSession>("cnn"));
  manager.add(std::make_unique<ParadigmSession>("snn"));
  const auto gnn_id = manager.add(std::make_unique<ParadigmSession>("gnn"));
  manager.set_plan(full_plan());
  const std::vector<std::uint8_t> installed = manager.plan_bytes();
  const std::uint64_t fingerprint = manager.plan().fingerprint();

  const auto expect_untouched = [&] {
    EXPECT_TRUE(manager.has_plan());
    EXPECT_EQ(manager.plan_bytes(), installed);
    EXPECT_EQ(manager.plan().fingerprint(), fingerprint);
    EXPECT_EQ(manager.session(cnn_id).execution_path(),
              route::PathId::CnnSparse);
    EXPECT_EQ(manager.session(gnn_id).execution_path(),
              route::PathId::GnnBatch);
  };
  expect_untouched();

  // Corrupt frame: decode fails before the manager looks at the plan.
  std::vector<std::uint8_t> corrupt = installed;
  corrupt.resize(corrupt.size() / 2);
  EXPECT_THROW(manager.install_plan_bytes(corrupt), Error);
  expect_untouched();

  // Version-skewed frame.
  std::vector<std::uint8_t> skewed = installed;
  skewed[4] ^= 0x02;
  EXPECT_THROW(manager.install_plan_bytes(skewed), Error);
  expect_untouched();

  // Well-formed frame for the wrong population size.
  std::vector<std::uint8_t> wrong_count;
  Plan::round_robin(5, 2, 2).serialize(wrong_count);
  try {
    manager.install_plan_bytes(wrong_count);
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }
  expect_untouched();
}

}  // namespace
}  // namespace evd::sched
