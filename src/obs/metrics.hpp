// Low-overhead metrics registry (`evd::obs`).
//
// Three instrument kinds, one registry:
//
//   Counter    monotone int64 totals (ops processed, drops, evictions);
//   Gauge      last-write-wins double (pool size, active sessions);
//   Histogram  log2-bucketed int64 value distribution (latencies in µs),
//              with count/sum and approximate quantiles at snapshot time.
//
// Hot-path discipline — the whole point of the design:
//
//   * Counter/Histogram writes go to a per-thread shard: a flat array of
//     relaxed atomics indexed by metric id. Only the owning thread ever
//     writes its shard, so increments are single-writer relaxed ops (plain
//     load/add/store on x86) with no contention, no locks, no allocation
//     after the shard's first growth on that thread.
//   * snapshot() merges shards by integer summation. Integer addition is
//     associative and commutative, so the merged totals are identical for
//     any thread count and any interleaving — enabling metrics can never
//     perturb `evd::par`'s bitwise-reproducibility guarantee (instrument
//     writes never feed back into computation; merge order cannot matter).
//   * The EVD_OBS=off kill-switch short-circuits every record call to one
//     predictable branch on a process-global flag.
//
// Threads that exit fold their shard into a retained "retired" accumulator,
// so totals survive worker churn. Metric names are stable registration keys:
// registering the same name twice returns the same instrument.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace evd::obs {

/// Number of log2 buckets a histogram keeps. Bucket b counts values v with
/// bit_width(v) == b, i.e. bucket 0 holds v <= 0, bucket b >= 1 holds
/// [2^(b-1), 2^b). 44 buckets cover ~2.7 hours in microseconds.
inline constexpr Index kHistogramBuckets = 44;

namespace detail {
/// Backs enabled(); defined in metrics.cpp.
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Process-wide enable flag. Initialised once from EVD_OBS (default on,
/// "EVD_OBS=off" disables); set_enabled() overrides it at runtime (benches
/// measure both sides, tests pin it). Inline, so a disabled instrument costs
/// one relaxed load and a branch at the call site.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

namespace detail {

/// Cell storage for one thread. Single-writer: only the owning thread
/// stores; snapshot() loads concurrently (hence relaxed atomics).
struct ThreadShard {
  std::atomic<std::int64_t>* cells = nullptr;
  Index size = 0;
};

/// The calling thread's shard, grown (and registered on first use) so that
/// at least `needed` cells exist. Slow path — called only when the inline
/// fast path finds the shard missing or too small.
ThreadShard& grow_shard(Index needed);

ThreadShard*& shard_slot() noexcept;

/// Fast path: cells array of the calling thread, sized for `needed`.
inline std::atomic<std::int64_t>* cells_for(Index needed) {
  ThreadShard* shard = shard_slot();
  if (shard == nullptr || shard->size < needed) {
    shard = &grow_shard(needed);
  }
  return shard->cells;
}

inline void bump(Index cell, std::int64_t by) {
  std::atomic<std::int64_t>* cells = cells_for(cell + 1);
  cells[cell].store(cells[cell].load(std::memory_order_relaxed) + by,
                    std::memory_order_relaxed);
}

}  // namespace detail

/// Monotone counter handle. Copyable, trivially destructible; a
/// default-constructed handle is inert (records nothing).
class Counter {
 public:
  Counter() = default;
  void add(std::int64_t n = 1) const {
    if (cell_ < 0 || !enabled()) return;
    detail::bump(cell_, n);
  }
  bool valid() const noexcept { return cell_ >= 0; }

 private:
  friend class MetricsRegistry;
  explicit Counter(Index cell) : cell_(cell) {}
  Index cell_ = -1;
};

/// Last-write-wins gauge. Not sharded (a per-thread "last write" has no
/// meaningful merge); writes go straight to a registry-owned atomic.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const;
  bool valid() const noexcept { return slot_ >= 0; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(Index slot) : slot_(slot) {}
  Index slot_ = -1;
};

/// Log2-bucketed histogram handle. record() clamps negatives to bucket 0.
class Histogram {
 public:
  Histogram() = default;
  void record(std::int64_t value) const {
    if (cell_ < 0 || !enabled()) return;
    std::atomic<std::int64_t>* cells =
        detail::cells_for(cell_ + kHistogramBuckets + 2);
    const Index bucket = bucket_of(value);
    const auto bump = [&](Index c, std::int64_t by) {
      cells[c].store(cells[c].load(std::memory_order_relaxed) + by,
                     std::memory_order_relaxed);
    };
    bump(cell_ + bucket, 1);
    bump(cell_ + kHistogramBuckets, 1);                       // count
    bump(cell_ + kHistogramBuckets + 1, value > 0 ? value : 0);  // sum
  }
  bool valid() const noexcept { return cell_ >= 0; }

  static Index bucket_of(std::int64_t value) noexcept;
  /// Exclusive upper bound of bucket b (2^b; bucket 0 covers v <= 0 and
  /// reports bound 1).
  static std::int64_t bucket_bound(Index b) noexcept;

 private:
  friend class MetricsRegistry;
  explicit Histogram(Index cell) : cell_(cell) {}
  Index cell_ = -1;
};

struct HistogramSnapshot {
  std::vector<std::int64_t> buckets;  ///< kHistogramBuckets entries.
  std::int64_t count = 0;
  std::int64_t sum = 0;

  /// Approximate quantile (q in [0, 1]) by linear interpolation inside the
  /// covering log2 bucket; 0 when empty.
  double quantile(double q) const;
  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

/// Point-in-time merged view, sorted by name within each kind — byte-stable
/// for a given set of recorded values regardless of thread count.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Add externally held totals (a serving manager's exported ledger)
  /// under `name`: summed into the series when present, inserted in name
  /// order otherwise, so a sorted snapshot stays sorted.
  void add_counter(const std::string& name, std::int64_t value);
  void add_gauge(const std::string& name, double value);

  /// nullptr when absent.
  const std::int64_t* counter(const std::string& name) const;
  const double* gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;
};

/// A named snapshot contributor (e.g. the evd::par pool collector): called
/// during snapshot() to append externally-held totals.
using Collector = void (*)(MetricsSnapshot&);

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Instrument factories. Names follow Prometheus conventions with an
  /// optional {label="value"} suffix (the exporters understand it), e.g.
  /// "evd_feed_to_decision_us{shard=\"3\"}". Re-registering a name of the
  /// same kind returns a handle to the same instrument; a kind clash throws.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Register a snapshot contributor once per (name, fn) pair.
  void add_collector(const std::string& name, Collector fn);

  /// Merge all shards + retired totals + collectors into one view.
  MetricsSnapshot snapshot() const;

  /// Zero every cell (live shards, retired totals, gauges). Tests and the
  /// overhead bench use this between phases; live Counter handles stay valid.
  void reset();

 private:
  MetricsRegistry() = default;
};

/// Convenience forwarding to the process registry.
inline Counter counter(const std::string& name) {
  return MetricsRegistry::instance().counter(name);
}
inline Gauge gauge(const std::string& name) {
  return MetricsRegistry::instance().gauge(name);
}
inline Histogram histogram(const std::string& name) {
  return MetricsRegistry::instance().histogram(name);
}
inline MetricsSnapshot snapshot() {
  return MetricsRegistry::instance().snapshot();
}

}  // namespace evd::obs
