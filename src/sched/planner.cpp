#include "sched/planner.hpp"

#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "route/route.hpp"

namespace evd::sched {
namespace {

constexpr size_t kCacheCap = 64;  ///< Distinct populations kept.

void fnv_bytes(std::uint64_t& h, const void* data, size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
}

void fnv_i64(std::uint64_t& h, std::int64_t v) { fnv_bytes(h, &v, sizeof(v)); }

}  // namespace

std::uint64_t profiles_key(std::span<const SessionProfile> profiles,
                           const AnnealerConfig& config) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const SessionProfile& profile : profiles) {
    fnv_bytes(h, profile.paradigm.data(), profile.paradigm.size());
    fnv_i64(h, profile.queued_ops);
    fnv_bytes(h, &profile.activity, sizeof(profile.activity));
    for (const core::StageInfo& stage : profile.stages) {
      fnv_bytes(h, stage.name.data(), stage.name.size());
      fnv_bytes(h, &stage.per_op, sizeof(stage.per_op));
      fnv_bytes(h, &stage.duty, sizeof(stage.duty));
    }
  }
  fnv_bytes(h, &config.seed, sizeof(config.seed));
  fnv_i64(h, config.iterations);
  fnv_bytes(h, &config.initial_temperature, sizeof(config.initial_temperature));
  fnv_bytes(h, &config.cooling, sizeof(config.cooling));
  fnv_i64(h, config.region_count);
  fnv_i64(h, config.burst_cap);
  fnv_i64(h, config.restarts);
  // Axes outside the profiles that still change the annealed plan: the
  // host parallelism the default CostModels resolves (satellite of the
  // worker-aware makespan) and the set of proved execution paths the path
  // move may draw from (grows as route.* oracles register).
  fnv_i64(h, par::thread_count());
  for (const route::ExecutionPath& path :
       route::PathRegistry::instance().paths()) {
    fnv_i64(h, static_cast<std::int64_t>(path.id));
    fnv_i64(h, route::PathRegistry::instance().proved(path.id) ? 1 : 0);
  }
  return h;
}

SessionProfile profile_for(const core::EventPipeline& pipeline,
                           const std::string& paradigm, Index queued_ops,
                           double activity) {
  SessionProfile profile;
  profile.paradigm = paradigm;
  profile.stages = pipeline.stream_stages();
  profile.queued_ops = queued_ops < 1 ? 1 : queued_ops;
  profile.activity = activity;
  return profile;
}

Planner& Planner::instance() {
  static Planner planner;
  return planner;
}

Planner::Planner() = default;

Plan Planner::plan_for(std::span<const SessionProfile> profiles,
                       const AnnealerConfig& config) {
  static obs::Counter hits = obs::counter("evd_sched_plan_cache_hits_total");
  static obs::Counter built = obs::counter("evd_sched_plans_built_total");
  static obs::Gauge cost = obs::gauge("evd_sched_plan_cost_us");
  const std::uint64_t key = profiles_key(profiles, config);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = cache_.find(key); it != cache_.end()) {
      hits.add(1);
      return it->second;
    }
  }
  const AnnealResult result = anneal_plan(profiles, CostModels{}, config);
  built.add(1);
  cost.set(result.plan.modeled_cost_us);
  std::lock_guard<std::mutex> lock(mutex_);
  if (cache_.size() >= kCacheCap) cache_.clear();  // crude but bounded
  cache_.emplace(key, result.plan);
  return result.plan;
}

void Planner::clear_cache() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
}

Index Planner::cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<Index>(cache_.size());
}

}  // namespace evd::sched
