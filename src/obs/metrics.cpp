#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/env.hpp"

namespace evd::obs {

std::atomic<bool> detail::g_enabled{env_flag("EVD_OBS", true)};

namespace {

enum class Kind { Counter, Gauge, Histogram };

struct Def {
  std::string name;
  Kind kind;
  Index slot;  ///< Shard cell offset (counter/histogram) or gauge index.
};

/// Shard bookkeeping shared between the registry and thread exit hooks.
struct Core {
  mutable std::mutex mutex;
  std::vector<Def> defs;
  Index total_cells = 0;                ///< Shard cells allocated so far.
  std::vector<detail::ThreadShard*> shards;
  std::vector<std::int64_t> retired;    ///< Folded cells of exited threads.
  std::deque<std::atomic<std::int64_t>> gauges;  ///< Bit-cast doubles.
};

Core& core() {
  // Leaked on purpose: exiting threads fold into `retired` during static
  // destruction; a destructed registry would be a use-after-free trap.
  static Core* c = new Core();
  return *c;
}

/// Owns one thread's shard storage; the destructor (thread exit) retires the
/// totals into the core so they keep counting toward snapshots.
struct ShardOwner {
  detail::ThreadShard shard;
  std::unique_ptr<std::atomic<std::int64_t>[]> storage;

  ~ShardOwner() {
    Core& c = core();
    std::lock_guard<std::mutex> lock(c.mutex);
    if (c.retired.size() < static_cast<size_t>(shard.size)) {
      c.retired.resize(static_cast<size_t>(shard.size), 0);
    }
    for (Index i = 0; i < shard.size; ++i) {
      c.retired[static_cast<size_t>(i)] +=
          shard.cells[i].load(std::memory_order_relaxed);
    }
    c.shards.erase(std::remove(c.shards.begin(), c.shards.end(), &shard),
                   c.shards.end());
    detail::shard_slot() = nullptr;
  }
};

const Def* find_def(const Core& c, const std::string& name) {
  for (const auto& def : c.defs) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

Index register_sharded(const std::string& name, Kind kind, Index cells) {
  Core& c = core();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (const Def* def = find_def(c, name)) {
    if (def->kind != kind) {
      throw std::invalid_argument("obs: metric '" + name +
                                  "' already registered with another kind");
    }
    return def->slot;
  }
  const Index slot = c.total_cells;
  c.total_cells += cells;
  c.defs.push_back({name, kind, slot});
  return slot;
}

double gauge_value(const std::atomic<std::int64_t>& slot) {
  return std::bit_cast<double>(slot.load(std::memory_order_relaxed));
}

struct CollectorEntry {
  std::string name;
  Collector fn;
};

std::vector<CollectorEntry>& collectors() {
  static std::vector<CollectorEntry>* v = new std::vector<CollectorEntry>();
  return *v;
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace detail {

ThreadShard*& shard_slot() noexcept {
  thread_local ThreadShard* slot = nullptr;
  return slot;
}

ThreadShard& grow_shard(Index needed) {
  // One ShardOwner per thread; its destructor retires the cells at exit.
  thread_local ShardOwner owner;
  Core& c = core();
  std::lock_guard<std::mutex> lock(c.mutex);
  // Size to the full registry so steady-state recording never regrows, and
  // over-allocate headroom so instruments registered later (per-session
  // histograms) usually fit without another growth.
  Index size = c.total_cells > needed ? c.total_cells : needed;
  size += 256;
  auto storage = std::make_unique<std::atomic<std::int64_t>[]>(
      static_cast<size_t>(size));
  for (Index i = 0; i < size; ++i) {
    storage[i].store(i < owner.shard.size
                         ? owner.shard.cells[i].load(std::memory_order_relaxed)
                         : 0,
                     std::memory_order_relaxed);
  }
  const bool fresh = owner.shard.cells == nullptr;
  // Publish the new cells before the old storage dies: snapshot() holds the
  // same mutex, so no concurrent reader can see the stale pointer.
  owner.shard.cells = storage.get();
  owner.shard.size = size;
  owner.storage = std::move(storage);
  if (fresh) c.shards.push_back(&owner.shard);
  shard_slot() = &owner.shard;
  return owner.shard;
}

}  // namespace detail

Index Histogram::bucket_of(std::int64_t value) noexcept {
  if (value <= 0) return 0;
  const Index width = static_cast<Index>(
      std::bit_width(static_cast<std::uint64_t>(value)));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

std::int64_t Histogram::bucket_bound(Index b) noexcept {
  if (b <= 0) return 1;
  if (b >= 62) return std::int64_t{1} << 62;
  return std::int64_t{1} << b;
}

double HistogramSnapshot::quantile(double q) const {
  if (count <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  std::int64_t cumulative = 0;
  for (Index b = 0; b < static_cast<Index>(buckets.size()); ++b) {
    const std::int64_t in_bucket = buckets[static_cast<size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      const double lo =
          b == 0 ? 0.0 : static_cast<double>(Histogram::bucket_bound(b - 1));
      const double hi = static_cast<double>(Histogram::bucket_bound(b));
      const double within =
          (rank - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * within;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(Histogram::bucket_bound(
      static_cast<Index>(buckets.size()) - 1));
}

namespace {

template <typename V>
void add_sorted(std::vector<std::pair<std::string, V>>& series,
                const std::string& name, V value) {
  auto it = std::lower_bound(
      series.begin(), series.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  if (it != series.end() && it->first == name) {
    it->second += value;
  } else {
    series.emplace(it, name, value);
  }
}

}  // namespace

void MetricsSnapshot::add_counter(const std::string& name,
                                  std::int64_t value) {
  add_sorted(counters, name, value);
}

void MetricsSnapshot::add_gauge(const std::string& name, double value) {
  add_sorted(gauges, name, value);
}

const std::int64_t* MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const double* MetricsSnapshot::gauge(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter MetricsRegistry::counter(const std::string& name) {
  return Counter(register_sharded(name, Kind::Counter, 1));
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  return Histogram(
      register_sharded(name, Kind::Histogram, kHistogramBuckets + 2));
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  Core& c = core();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (const Def* def = find_def(c, name)) {
    if (def->kind != Kind::Gauge) {
      throw std::invalid_argument("obs: metric '" + name +
                                  "' already registered with another kind");
    }
    return Gauge(def->slot);
  }
  const Index slot = static_cast<Index>(c.gauges.size());
  c.gauges.emplace_back(std::bit_cast<std::int64_t>(0.0));
  c.defs.push_back({name, Kind::Gauge, slot});
  return Gauge(slot);
}

void Gauge::set(double v) const {
  if (slot_ < 0 || !enabled()) return;
  Core& c = core();
  // Gauge slots are stable (deque) — no lock needed for the store itself.
  c.gauges[static_cast<size_t>(slot_)].store(std::bit_cast<std::int64_t>(v),
                                             std::memory_order_relaxed);
}

void MetricsRegistry::add_collector(const std::string& name, Collector fn) {
  Core& c = core();
  std::lock_guard<std::mutex> lock(c.mutex);
  for (const auto& entry : collectors()) {
    if (entry.name == name) return;
  }
  collectors().push_back({name, fn});
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  Core& c = core();
  std::vector<CollectorEntry> to_run;
  {
    std::lock_guard<std::mutex> lock(c.mutex);
    // Merge: retired totals plus every live shard, cell by cell. Integer
    // sums — identical for any thread count or merge order.
    std::vector<std::int64_t> cells(static_cast<size_t>(c.total_cells), 0);
    for (size_t i = 0; i < c.retired.size() && i < cells.size(); ++i) {
      cells[i] += c.retired[i];
    }
    for (const detail::ThreadShard* shard : c.shards) {
      const Index n = shard->size < c.total_cells ? shard->size : c.total_cells;
      for (Index i = 0; i < n; ++i) {
        cells[static_cast<size_t>(i)] +=
            shard->cells[i].load(std::memory_order_relaxed);
      }
    }
    for (const Def& def : c.defs) {
      switch (def.kind) {
        case Kind::Counter:
          out.counters.emplace_back(def.name,
                                    cells[static_cast<size_t>(def.slot)]);
          break;
        case Kind::Gauge:
          out.gauges.emplace_back(
              def.name, gauge_value(c.gauges[static_cast<size_t>(def.slot)]));
          break;
        case Kind::Histogram: {
          HistogramSnapshot h;
          h.buckets.assign(cells.begin() + def.slot,
                           cells.begin() + def.slot + kHistogramBuckets);
          h.count = cells[static_cast<size_t>(def.slot + kHistogramBuckets)];
          h.sum = cells[static_cast<size_t>(def.slot + kHistogramBuckets + 1)];
          out.histograms.emplace_back(def.name, std::move(h));
          break;
        }
      }
    }
    to_run = collectors();
  }
  // Collectors run outside the lock (they may touch other subsystems).
  for (const auto& entry : to_run) entry.fn(out);
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

void MetricsRegistry::reset() {
  Core& c = core();
  std::lock_guard<std::mutex> lock(c.mutex);
  std::fill(c.retired.begin(), c.retired.end(), 0);
  for (detail::ThreadShard* shard : c.shards) {
    for (Index i = 0; i < shard->size; ++i) {
      shard->cells[i].store(0, std::memory_order_relaxed);
    }
  }
  for (auto& gauge : c.gauges) {
    gauge.store(std::bit_cast<std::int64_t>(0.0), std::memory_order_relaxed);
  }
}

}  // namespace evd::obs
