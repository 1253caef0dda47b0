// Deterministic parallel execution layer (`evd::par`).
//
// A lazily-initialised global thread pool drives chunked `parallel_for` /
// `parallel_reduce` primitives over Index ranges. The pool size comes from
// the EVD_THREADS environment variable (default: hardware_concurrency) and
// can be changed at runtime with set_thread_count() — benches sweep it.
//
// Determinism contract: results are bitwise identical for ANY thread count.
//   * Chunk boundaries depend only on (range, grain) — never on the number
//     of threads — so every floating-point accumulation inside a chunk sees
//     the same operand order regardless of who executes it.
//   * Chunks are assigned statically (worker w runs chunks w, w+W, ...), so
//     there is no scheduling-dependent work order to leak into results.
//   * parallel_reduce stores one partial per chunk and combines them on the
//     calling thread in ascending chunk order.
//
// Nesting: a parallel_for issued from inside a worker (or from the caller's
// own chunk) executes serially inline — no deadlock, same results. Worker
// exceptions are captured per chunk and the lowest-index one is rethrown on
// the calling thread after the region completes.
//
// A region that does not throw allocates nothing: the pool runs the chunk
// loop through a non-owning ChunkFn, the error slot is one exception_ptr,
// and a reduce over at most kInlinePartials chunks keeps its partials on
// the stack. The serving pump runs one region per round on this path.
#pragma once

#include <array>
#include <exception>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace evd::par {

/// Configured pool size (threads that may execute chunks, caller included).
Index thread_count();

/// Resize the pool (joins idle workers, spawns anew). Clamped to >= 1.
/// Must not be called from inside a parallel region.
void set_thread_count(Index n);

/// True while the current thread is executing a chunk of a parallel region
/// (nested regions run serially inline).
bool in_parallel_region() noexcept;

/// Parse an EVD_THREADS-style value; returns `fallback` for unset/invalid.
/// Zero, negative, or non-numeric values are rejected with a logged warning
/// (an unset/empty variable falls back silently). Exposed for tests; the
/// pool calls it once at first use.
Index parse_thread_count(const char* value, Index fallback);

/// Cumulative pool utilisation accounting, totals since process start (or
/// the last reset_pool_stats()). Maintained by the pool itself — a handful
/// of clock reads per parallel region, negligible next to region dispatch —
/// and surfaced as counters through the evd::obs registry (obs::init()).
struct PoolStats {
  std::int64_t regions = 0;         ///< Parallel regions run on the pool.
  std::int64_t region_wall_ns = 0;  ///< Caller-observed wall time in regions.
  std::int64_t worker_busy_ns = 0;  ///< Sum of per-worker execution time.
  std::int64_t worker_idle_ns = 0;  ///< Participant wall minus busy, summed.
};

PoolStats pool_stats();
void reset_pool_stats();

/// Number of chunks a range [begin, end) splits into at the given grain.
inline Index chunk_count(Index begin, Index end, Index grain) noexcept {
  if (end <= begin) return 0;
  if (grain < 1) grain = 1;
  return (end - begin + grain - 1) / grain;
}

namespace detail {
/// Non-owning reference to a `void(Index)` callable that outlives the call:
/// what the pool runs. Unlike std::function it never allocates.
class ChunkFn {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cv_t<F>, ChunkFn>>>
  ChunkFn(F& fn) noexcept  // implicit: call sites pass the lambda itself
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Index i) { (*static_cast<F*>(obj))(i); }) {}

  void operator()(Index i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, Index);
};

/// Run chunk_fn(c) for c in [0, nchunks) across the pool. chunk_fn must not
/// throw (template wrappers below capture exceptions per chunk).
void for_each_chunk(Index nchunks, ChunkFn chunk_fn);
}  // namespace detail

/// Chunked loop: fn(chunk_begin, chunk_end) over disjoint sub-ranges of
/// [begin, end), each at most `grain` long. Chunk boundaries are a pure
/// function of (begin, end, grain).
template <typename Fn>
void parallel_for(Index begin, Index end, Index grain, Fn&& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const Index nchunks = chunk_count(begin, end, grain);
  if (nchunks == 1) {
    // A single chunk runs on the caller and throws directly; it skips the
    // dispatch, which costs as much as a small loop body.
    fn(begin, end);
    return;
  }
  // Only a throwing chunk touches these: it keeps its exception when its
  // index is the lowest seen so far.
  std::mutex error_mutex;
  Index error_chunk = nchunks;
  std::exception_ptr error;
  auto chunk = [&](Index c) {
    const Index b = begin + c * grain;
    const Index e = b + grain < end ? b + grain : end;
    try {
      fn(b, e);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (c < error_chunk) {
        error_chunk = c;
        error = std::current_exception();
      }
    }
  };
  detail::for_each_chunk(nchunks, chunk);
  if (error) std::rethrow_exception(error);
}

/// Like parallel_for, but fn also receives the chunk index:
/// fn(chunk, chunk_begin, chunk_end). Use it to scatter into per-chunk
/// buffers that are merged in chunk order afterwards.
template <typename Fn>
void parallel_for_chunks(Index begin, Index end, Index grain, Fn&& fn) {
  parallel_for(begin, end, grain,
               [&, begin, grain](Index b, Index e) {
                 fn((b - begin) / grain, b, e);
               });
}

/// Chunk count up to which parallel_reduce keeps small trivially copyable
/// partials on the stack instead of the heap.
inline constexpr Index kInlinePartials = 64;

/// Chunked reduction: partials[c] = map(chunk_begin, chunk_end) computed in
/// parallel, then folded with combine(acc, partial) in ascending chunk order
/// on the calling thread — bitwise identical for any thread count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(Index begin, Index end, Index grain, T identity, Map&& map,
                  Combine&& combine) {
  if (end <= begin) return identity;
  if (grain < 1) grain = 1;
  const Index nchunks = chunk_count(begin, end, grain);
  const auto reduce_into = [&](T* partials) {
    parallel_for_chunks(begin, end, grain, [&](Index c, Index b, Index e) {
      partials[c] = map(b, e);
    });
    T acc = std::move(identity);
    for (Index c = 0; c < nchunks; ++c) {
      acc = combine(std::move(acc), std::move(partials[c]));
    }
    return acc;
  };
  if constexpr (std::is_trivially_copyable_v<T> &&
                std::is_default_constructible_v<T> && sizeof(T) <= 16) {
    if (nchunks <= kInlinePartials) {
      std::array<T, kInlinePartials> partials;
      return reduce_into(partials.data());
    }
  }
  std::vector<T> partials(static_cast<size_t>(nchunks), identity);
  return reduce_into(partials.data());
}

}  // namespace evd::par
