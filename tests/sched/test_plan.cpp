// Plan structure: validation, round-robin baseline construction,
// checkpoint-framed serialization and fingerprints.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "sched/plan.hpp"

namespace evd::sched {
namespace {

/// A small hand-built plan exercising every field: uneven regions, a
/// non-default burst, a routed placement.
Plan sample_plan() {
  Plan plan;
  plan.session_count = 5;
  plan.burst = 4;
  plan.regions.resize(2);
  plan.regions[0].sessions = {0, 3, 4};
  plan.regions[1].sessions = {1, 2};
  ParadigmPlacement cnn;
  cnn.paradigm = "cnn";
  cnn.path = route::PathId::CnnSparse;
  plan.placements.push_back(cnn);
  plan.modeled_cost_us = 12.5;
  return plan;
}

TEST(Plan, RoundRobinMatchesTheLegacyDealing) {
  const Plan plan = Plan::round_robin(/*session_count=*/5, /*region_count=*/2,
                                      /*burst=*/3);
  ASSERT_TRUE(plan.validate());
  ASSERT_EQ(plan.regions.size(), 2u);
  // session s -> region s % W, in id order — the grain-1 parallel_for deal.
  EXPECT_EQ(plan.regions[0].sessions, (std::vector<Index>{0, 2, 4}));
  EXPECT_EQ(plan.regions[1].sessions, (std::vector<Index>{1, 3}));
  EXPECT_EQ(plan.burst, 3);
}

TEST(Plan, RoundRobinClampsRegionCountToSessions) {
  const Plan plan = Plan::round_robin(2, 8, 1);
  EXPECT_TRUE(plan.validate());
  EXPECT_EQ(plan.regions.size(), 2u);  // no empty regions allowed
  // The burst clamps into the range validate() accepts.
  EXPECT_EQ(Plan::round_robin(2, 1, 0).burst, 1);
  EXPECT_EQ(Plan::round_robin(2, 1, kMaxPlanBurst * 4).burst, kMaxPlanBurst);
}

TEST(Plan, ValidateRequiresEachSessionExactlyOnce) {
  Plan plan = sample_plan();
  std::string why;
  EXPECT_TRUE(plan.validate(&why)) << why;

  Plan missing = plan;
  missing.regions[1].sessions.pop_back();  // session 2 now unscheduled
  EXPECT_FALSE(missing.validate(&why));
  EXPECT_NE(why.find("session 2"), std::string::npos);

  Plan doubled = plan;
  doubled.regions[0].sessions.push_back(1);  // session 1 twice
  EXPECT_FALSE(doubled.validate(&why));

  Plan out_of_range = plan;
  out_of_range.regions[0].sessions[0] = 9;
  EXPECT_FALSE(out_of_range.validate(&why));
}

TEST(Plan, ValidateBoundsBurstsAndForbidsEmptyRegions) {
  Plan plan = sample_plan();
  plan.burst = kMaxPlanBurst + 1;
  std::string why;
  EXPECT_FALSE(plan.validate(&why));
  EXPECT_NE(why.find("burst"), std::string::npos);

  plan.burst = kMaxPlanBurst;
  EXPECT_TRUE(plan.validate(&why)) << why;

  Plan zero_burst = sample_plan();
  zero_burst.burst = 0;
  EXPECT_FALSE(zero_burst.validate());

  Plan empty_region = sample_plan();
  empty_region.regions.push_back({});
  EXPECT_FALSE(empty_region.validate(&why));
  EXPECT_NE(why.find("empty"), std::string::npos);
}

TEST(Plan, SerializeRoundTripsEveryField) {
  const Plan plan = sample_plan();
  std::vector<std::uint8_t> bytes;
  plan.serialize(bytes);
  ASSERT_FALSE(bytes.empty());

  const Plan back = Plan::deserialize(bytes);
  EXPECT_TRUE(back == plan);
  EXPECT_EQ(back.modeled_cost_us, plan.modeled_cost_us);
  EXPECT_EQ(back.fingerprint(), plan.fingerprint());
}

TEST(Plan, DeserializeRejectsGarbageAndTruncation) {
  const Plan plan = sample_plan();
  std::vector<std::uint8_t> bytes;
  plan.serialize(bytes);

  std::vector<std::uint8_t> truncated(bytes.begin(),
                                      bytes.begin() + bytes.size() / 2);
  EXPECT_THROW(Plan::deserialize(truncated), Error);

  std::vector<std::uint8_t> wrong_magic = bytes;
  wrong_magic[0] ^= 0xFF;
  try {
    Plan::deserialize(wrong_magic);
    FAIL() << "expected CheckpointMismatch";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointMismatch);
  }

  EXPECT_THROW(Plan::deserialize({}), Error);
}

TEST(Plan, DeserializeRevalidatesTheDecodedPlan) {
  // Serialize a structurally broken plan (session scheduled twice) and
  // check the decoder refuses it — corruption cannot smuggle in an invalid
  // schedule just because the framing is intact.
  Plan broken = sample_plan();
  broken.regions[0].sessions[0] = 1;  // session 1 twice, 0 never
  std::vector<std::uint8_t> bytes;
  broken.serialize(bytes);
  try {
    Plan::deserialize(bytes);
    FAIL() << "expected CheckpointCorrupt";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt);
  }
}

TEST(Plan, FingerprintTracksEveryDecision) {
  const Plan a = sample_plan();
  EXPECT_EQ(a.fingerprint(), sample_plan().fingerprint());

  Plan b = sample_plan();
  b.burst = 1;
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  b = sample_plan();
  b.regions[0].sessions = {3, 0, 4};  // same partition, other visit order
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  b = sample_plan();
  b.placements[0].path = route::PathId::Default;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Plan, DescribeNamesRegionsBurstsAndPlacements) {
  const std::string text = sample_plan().describe();
  EXPECT_NE(text.find("sessions=5"), std::string::npos);
  EXPECT_NE(text.find("burst=4"), std::string::npos);
  EXPECT_NE(text.find("r0: s0 s3 s4"), std::string::npos);
  EXPECT_NE(text.find("cnn -> cnn.sparse"), std::string::npos);
}

}  // namespace
}  // namespace evd::sched
