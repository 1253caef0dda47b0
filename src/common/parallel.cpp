#include "common/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/env.hpp"

namespace evd::par {
namespace {

thread_local bool t_in_region = false;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII flag so nested regions (from workers or the caller's own chunk)
/// serialise instead of re-entering the pool.
struct RegionGuard {
  RegionGuard() : previous(t_in_region) { t_in_region = true; }
  ~RegionGuard() { t_in_region = previous; }
  bool previous;
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  Index size() {
    std::lock_guard<std::mutex> top(job_mutex_);
    return configured_;
  }

  void resize(Index n) {
    if (n < 1) n = 1;
    std::lock_guard<std::mutex> top(job_mutex_);
    if (n == configured_) return;
    stop_workers();
    configured_ = n;
    start_workers();
  }

  /// Execute worker_fn(w) for w in [0, nworkers): the caller runs w = 0,
  /// pool threads run the rest. worker_fn must not throw. Top-level calls
  /// from distinct threads serialise on job_mutex_.
  void run(Index nworkers, const detail::ChunkFn& worker_fn) {
    std::lock_guard<std::mutex> top(job_mutex_);
    const std::int64_t busy_before =
        busy_ns_.load(std::memory_order_relaxed);
    const std::int64_t t0 = mono_ns();
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      job_ = &worker_fn;
      job_workers_ = nworkers - 1;  // pool threads participating
      active_ = nworkers - 1;
      ++epoch_;
    }
    cv_work_.notify_all();
    {
      RegionGuard guard;
      const std::int64_t c0 = mono_ns();
      worker_fn(0);
      busy_ns_.fetch_add(mono_ns() - c0, std::memory_order_relaxed);
    }
    {
      std::unique_lock<std::mutex> lk(state_mutex_);
      cv_done_.wait(lk, [&] { return active_ == 0; });
      job_ = nullptr;
    }
    // Utilisation ledger: workers have all published their busy time before
    // the final --active_ (both sequenced under state_mutex_), so the delta
    // is complete. Idle = participant wall-clock not spent in worker_fn.
    const std::int64_t wall = mono_ns() - t0;
    const std::int64_t busy_delta =
        busy_ns_.load(std::memory_order_relaxed) - busy_before;
    const std::int64_t idle = wall * nworkers - busy_delta;
    regions_.fetch_add(1, std::memory_order_relaxed);
    region_wall_ns_.fetch_add(wall, std::memory_order_relaxed);
    if (idle > 0) idle_ns_.fetch_add(idle, std::memory_order_relaxed);
  }

  PoolStats stats() {
    PoolStats s;
    s.regions = regions_.load(std::memory_order_relaxed);
    s.region_wall_ns = region_wall_ns_.load(std::memory_order_relaxed);
    s.worker_busy_ns = busy_ns_.load(std::memory_order_relaxed);
    s.worker_idle_ns = idle_ns_.load(std::memory_order_relaxed);
    return s;
  }

  void reset_stats() {
    regions_.store(0, std::memory_order_relaxed);
    region_wall_ns_.store(0, std::memory_order_relaxed);
    busy_ns_.store(0, std::memory_order_relaxed);
    idle_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  Pool() {
    Index n = parse_thread_count(
        std::getenv("EVD_THREADS"),
        static_cast<Index>(std::thread::hardware_concurrency()));
    configured_ = n < 1 ? 1 : n;
    start_workers();
  }

  ~Pool() { stop_workers(); }

  void start_workers() {
    threads_.reserve(static_cast<size_t>(configured_ - 1));
    for (Index id = 0; id + 1 < configured_; ++id) {
      threads_.emplace_back([this, id] { worker_loop(id); });
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lk(state_mutex_);
      shutdown_ = true;
      ++epoch_;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
    std::lock_guard<std::mutex> lk(state_mutex_);
    shutdown_ = false;
  }

  void worker_loop(Index id) {
    std::uint64_t seen = 0;
    for (;;) {
      const detail::ChunkFn* job = nullptr;
      bool participate = false;
      {
        std::unique_lock<std::mutex> lk(state_mutex_);
        cv_work_.wait(lk, [&] { return shutdown_ || epoch_ != seen; });
        if (shutdown_) return;
        seen = epoch_;
        job = job_;
        participate = job != nullptr && id < job_workers_;
      }
      if (!participate) continue;
      {
        RegionGuard guard;
        const std::int64_t c0 = mono_ns();
        (*job)(id + 1);
        busy_ns_.fetch_add(mono_ns() - c0, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lk(state_mutex_);
      if (--active_ == 0) cv_done_.notify_one();
    }
  }

  std::mutex job_mutex_;  ///< One job in flight at a time.
  std::mutex state_mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
  const detail::ChunkFn* job_ = nullptr;
  Index configured_ = 1;
  Index job_workers_ = 0;
  Index active_ = 0;
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;
  // Utilisation accounting (see PoolStats). Relaxed atomics: totals only.
  std::atomic<std::int64_t> regions_{0};
  std::atomic<std::int64_t> region_wall_ns_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> idle_ns_{0};
};

}  // namespace

Index parse_thread_count(const char* value, Index fallback) {
  // The actual parse lives in env_count (common/env.hpp) so EVD_SHARDS can
  // share the exact reject/warn/clamp behaviour instead of duplicating it.
  constexpr Index kMaxThreads = 512;
  return env_count("EVD_THREADS", value, fallback, kMaxThreads,
                   "hardware concurrency");
}

Index thread_count() { return Pool::instance().size(); }

void set_thread_count(Index n) { Pool::instance().resize(n); }

PoolStats pool_stats() { return Pool::instance().stats(); }

void reset_pool_stats() { Pool::instance().reset_stats(); }

bool in_parallel_region() noexcept { return t_in_region; }

namespace detail {

void for_each_chunk(Index nchunks, ChunkFn chunk_fn) {
  if (nchunks <= 0) return;
  if (nchunks == 1 || t_in_region) {
    for (Index c = 0; c < nchunks; ++c) chunk_fn(c);
    return;
  }
  Pool& pool = Pool::instance();
  const Index pool_size = pool.size();
  if (pool_size <= 1) {
    for (Index c = 0; c < nchunks; ++c) chunk_fn(c);
    return;
  }
  const Index workers = pool_size < nchunks ? pool_size : nchunks;
  // Static assignment: worker w owns chunks w, w+W, w+2W, ... Chunk
  // boundaries never depend on the worker count, so outputs do not either.
  auto worker = [&](Index w) {
    for (Index c = w; c < nchunks; c += workers) chunk_fn(c);
  };
  pool.run(workers, worker);
}

}  // namespace detail
}  // namespace evd::par
