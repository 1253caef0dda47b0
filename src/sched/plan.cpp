#include "sched/plan.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fault/checkpoint.hpp"

namespace evd::sched {
namespace {

constexpr std::uint32_t kPlanMagic = 0x53434845u;  // "SCHE"
// v4: a region is a list of session ids and one burst covers every visit —
// v3's annealer seed and per-entry bursts are gone. Reads are strict
// v4-only: re-planning is cheaper than a migration path nothing would
// exercise.
constexpr std::uint32_t kPlanVersion = 4;
constexpr std::size_t kPlanMaxBytes = 1u << 20;

}  // namespace

bool Plan::validate(std::string* why) const {
  const auto fail = [why](std::string msg) {
    if (why) *why = std::move(msg);
    return false;
  };
  if (session_count < 0) return fail("negative session_count");
  if (burst < 1 || burst > kMaxPlanBurst) {
    return fail("burst " + std::to_string(burst) + " outside [1, " +
                std::to_string(kMaxPlanBurst) + "]");
  }
  if (session_count > 0 && regions.empty()) {
    return fail("sessions exist but no regions");
  }
  std::vector<Index> seen(static_cast<size_t>(session_count), 0);
  for (size_t r = 0; r < regions.size(); ++r) {
    const PlanRegion& region = regions[r];
    if (region.sessions.empty()) {
      return fail("region " + std::to_string(r) + " is empty");
    }
    for (const Index session : region.sessions) {
      if (session < 0 || session >= session_count) {
        return fail("session " + std::to_string(session) +
                    " out of range [0, " + std::to_string(session_count) + ")");
      }
      ++seen[static_cast<size_t>(session)];
    }
  }
  for (Index s = 0; s < session_count; ++s) {
    if (seen[static_cast<size_t>(s)] != 1) {
      return fail("session " + std::to_string(s) + " scheduled " +
                  std::to_string(seen[static_cast<size_t>(s)]) +
                  " times (want exactly 1)");
    }
  }
  for (size_t i = 0; i < placements.size(); ++i) {
    const ParadigmPlacement& p = placements[i];
    if (p.paradigm.empty()) return fail("placement with empty paradigm");
    if (p.path != route::PathId::Default &&
        !route::path_valid_for(p.path, p.paradigm)) {
      return fail("placement '" + p.paradigm + "' routes to path '" +
                  route::path_name(p.path) + "' owned by another paradigm");
    }
    // Consumers take the first placement of a paradigm, so a second one
    // would be dead bytes that still change the fingerprint.
    for (size_t j = 0; j < i; ++j) {
      if (placements[j].paradigm == p.paradigm) {
        return fail("paradigm '" + p.paradigm + "' placed twice");
      }
    }
  }
  return true;
}

std::uint64_t Plan::fingerprint() const {
  std::vector<std::uint8_t> bytes;
  serialize(bytes);
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64-bit offset basis
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string Plan::describe() const {
  std::string s = "plan{sessions=" + std::to_string(session_count) +
                  " regions=" + std::to_string(regions.size()) +
                  " burst=" + std::to_string(burst) +
                  " cost_us=" + std::to_string(modeled_cost_us) + "\n";
  for (size_t r = 0; r < regions.size(); ++r) {
    s += "  r" + std::to_string(r) + ":";
    for (const Index session : regions[r].sessions) {
      s += " s" + std::to_string(session);
    }
    s += "\n";
  }
  for (const ParadigmPlacement& p : placements) {
    s += "  " + p.paradigm + " -> " + route::path_name(p.path) + "\n";
  }
  s += "}";
  return s;
}

void Plan::serialize(std::vector<std::uint8_t>& out) const {
  fault::CheckpointWriter w(out, kPlanMaxBytes);
  w.u32(kPlanMagic);
  w.u32(kPlanVersion);
  w.i64(session_count);
  w.i64(burst);
  w.f64(modeled_cost_us);
  w.i64(static_cast<std::int64_t>(regions.size()));
  for (const PlanRegion& region : regions) {
    w.pod_vector(region.sessions);
  }
  w.i64(static_cast<std::int64_t>(placements.size()));
  for (const ParadigmPlacement& p : placements) {
    w.str(p.paradigm);
    w.u8(static_cast<std::uint8_t>(p.path));
  }
}

Plan Plan::deserialize(std::span<const std::uint8_t> bytes) {
  fault::CheckpointReader r(bytes);
  if (r.u32() != kPlanMagic) {
    throw Error(ErrorCode::CheckpointMismatch,
                "Plan::deserialize: bad magic (not a serialized plan)");
  }
  if (const auto version = r.u32(); version != kPlanVersion) {
    throw Error(ErrorCode::CheckpointMismatch,
                "Plan::deserialize: unsupported version " +
                    std::to_string(version));
  }
  Plan plan;
  plan.session_count = r.i64();
  // Bound before anything sizes off it: validate() allocates a seen-count
  // per session, so a corrupt count must die here as a typed error, not as
  // a multi-terabyte allocation. A 1 MiB frame cannot describe more
  // sessions than it has session-id bytes.
  fault::expect_valid(plan.session_count >= 0 &&
                          plan.session_count <=
                              static_cast<Index>(kPlanMaxBytes / sizeof(Index)),
                      "Plan::deserialize: implausible session count");
  plan.burst = r.i64();
  plan.modeled_cost_us = r.f64();
  const std::int64_t nregions = r.i64();
  fault::expect_valid(nregions >= 0 && nregions <= plan.session_count,
                      "Plan::deserialize: implausible region count");
  plan.regions.resize(static_cast<size_t>(nregions));
  for (PlanRegion& region : plan.regions) {
    r.pod_vector(region.sessions);
  }
  const std::int64_t nplacements = r.i64();
  fault::expect_valid(nplacements >= 0 && nplacements <= 64,
                      "Plan::deserialize: implausible placement count");
  plan.placements.resize(static_cast<size_t>(nplacements));
  for (ParadigmPlacement& p : plan.placements) {
    p.paradigm = r.str();
    const std::uint8_t path_byte = r.u8();
    const auto path = route::path_from_byte(path_byte);
    if (!path) {
      throw Error(ErrorCode::CheckpointCorrupt,
                  "Plan::deserialize: unknown execution path " +
                      std::to_string(path_byte));
    }
    p.path = *path;
  }
  r.expect_end();
  if (std::string why; !plan.validate(&why)) {
    throw Error(ErrorCode::CheckpointCorrupt,
                "Plan::deserialize: decoded plan invalid: " + why);
  }
  return plan;
}

Plan Plan::round_robin(Index session_count, Index region_count, Index burst) {
  Plan plan;
  plan.session_count = session_count;
  plan.burst = std::clamp<Index>(burst, 1, kMaxPlanBurst);
  if (session_count <= 0) return plan;
  if (region_count < 1) region_count = 1;
  if (region_count > session_count) region_count = session_count;
  plan.regions.resize(static_cast<size_t>(region_count));
  // session s -> region s % W in id order: with W workers the grain-1
  // region loop hands worker w sessions w, w+W, ...
  for (Index s = 0; s < session_count; ++s) {
    plan.regions[static_cast<size_t>(s % region_count)].sessions.push_back(s);
  }
  return plan;
}

bool operator==(const Plan& a, const Plan& b) {
  if (a.session_count != b.session_count || a.burst != b.burst ||
      a.regions.size() != b.regions.size() ||
      a.placements.size() != b.placements.size()) {
    return false;
  }
  for (size_t r = 0; r < a.regions.size(); ++r) {
    if (a.regions[r].sessions != b.regions[r].sessions) return false;
  }
  for (size_t p = 0; p < a.placements.size(); ++p) {
    const auto& pa = a.placements[p];
    const auto& pb = b.placements[p];
    if (pa.paradigm != pb.paradigm || pa.path != pb.path) {
      return false;
    }
  }
  return true;
}

}  // namespace evd::sched
