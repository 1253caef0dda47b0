// Steady-state allocation audit for the streaming sessions.
//
// This TU replaces the global allocation functions with counting versions
// (which is why it builds into its own test binary, evd_alloc_tests): the
// zero-allocation claim in src/runtime/session_base.hpp is enforced here,
// not just documented. Scope of the claim, per paradigm:
//   * GNN  — the ENTIRE per-event path (graph insert, incremental inference,
//            softmax, decision emit, and the graph-recycle restart) is
//            allocation-free after session construction, and construction
//            itself makes a fixed number of allocations at any node cap;
//   * CNN  — per-event ingest is allocation-free, and so is a frame close
//            (frame build, the dense forward, softmax and emit) from the
//            first close after open, once the calling thread's conv scratch
//            is warm;
//   * SNN  — per-event binning is allocation-free; net().step() at a
//            timestep boundary may allocate (bounded by the step clock).
// The serving plane is held to the same bar: with admission on, submit()
// and a steady-state pump() round allocate nothing, and a managed slot
// costs its queue's first block plus a fixed slack, with a noise gate only
// under admission. A session's queue and decision sink each grow once, to
// their configured bound, and never again. The over-aligned overloads are
// replaced too, so alignas(64) storage (MpscRing cells) is counted like any
// other block.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "cnn/cnn_pipeline.hpp"
#include "fault/admission.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "route/route.hpp"
#include "runtime/decision_sink.hpp"
#include "runtime/session_manager.hpp"
#include "snn/snn_pipeline.hpp"

namespace {
std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::int64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace evd::runtime {
namespace {

events::Event event_at(Index i, TimeUs t) {
  events::Event e;
  e.x = static_cast<std::int16_t>(i % 16);
  e.y = static_cast<std::int16_t>((i / 16) % 16);
  e.polarity = (i % 2 == 0) ? Polarity::On : Polarity::Off;
  e.t = t;
  return e;
}

template <typename Fn>
std::int64_t allocations_during(Fn&& fn) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

template <typename Fn>
std::int64_t bytes_during(Fn&& fn) {
  const std::int64_t before = g_bytes.load(std::memory_order_relaxed);
  fn();
  return g_bytes.load(std::memory_order_relaxed) - before;
}

/// The light GNN tenant servebench's tenant_zipf serves by the thousand.
gnn::GnnPipelineConfig tenant_config() {
  gnn::GnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 1;
  config.stream_max_nodes = 64;
  config.decision_retain = 32;
  return config;
}

fault::AdmissionConfig admission_on() {
  fault::AdmissionConfig admission;
  admission.enabled = true;
  return admission;
}

TEST(ZeroAlloc, GnnFullPerEventPathIsAllocationFree) {
  gnn::GnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 1;     // insert (and classify on) every event
  config.stream_max_nodes = 64; // recycle happens inside the measured window
  config.decision_retain = 32;  // sink compaction happens inside it too
  gnn::GnnPipeline pipeline(config);
  auto session = pipeline.open_session(16, 16);

  // Warm-up: cross a recycle boundary once so any first-touch growth
  // (e.g. layer scratch sized on first recompute) is behind us.
  TimeUs t = 0;
  for (Index i = 0; i < 200; ++i) session->feed(event_at(i, t += 100));

  const std::int64_t allocs = allocations_during([&] {
    for (Index i = 0; i < 300; ++i) session->feed(event_at(i * 3, t += 100));
  });
  EXPECT_EQ(allocs, 0) << "GNN steady-state feed() must not touch the heap";
  EXPECT_EQ(session->stats().decisions_emitted, 500);
}

TEST(ZeroAlloc, GnnSessionOpenCostIsIndependentOfTheNodeCap) {
  // A session's graph store is a fixed set of arrays sized by the node cap,
  // not a few heap blocks per node: opening one costs the same number of
  // allocations at any cap.
  auto allocations_per_open = [](Index max_nodes) {
    gnn::GnnPipelineConfig config;
    config.width = 16;
    config.height = 16;
    config.num_classes = 2;
    config.model.hidden = 8;
    config.model.layers = 2;
    config.stream_stride = 4;
    config.stream_max_nodes = max_nodes;
    config.decision_retain = 256;
    gnn::GnnPipeline pipeline(config);
    (void)pipeline.open_session(16, 16);  // first open freezes the model
    return allocations_during([&] { (void)pipeline.open_session(16, 16); });
  };
  EXPECT_EQ(allocations_per_open(64), allocations_per_open(4096));
}

TEST(ZeroAlloc, FreshGnnSessionsFirstFeedIsAllocationFree) {
  // A first session warms what the thread and the pipeline keep (span
  // sites, the frozen model). A session's inference scratch is sized at
  // open, so a fresh session's first feed, its first inference, allocates
  // nothing.
  gnn::GnnPipeline pipeline(tenant_config());
  TimeUs t = 0;
  {
    auto warm = pipeline.open_session(16, 16);
    for (Index i = 0; i < 8; ++i) warm->feed(event_at(i, t += 100));
  }
  auto session = pipeline.open_session(16, 16);
  EXPECT_EQ(allocations_during([&] { session->feed(event_at(0, t += 100)); }),
            0);
  EXPECT_EQ(session->stats().decisions_emitted, 1);
}

TEST(ZeroAlloc, CnnIntraFrameFeedIsAllocationFree) {
  cnn::CnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.base_filters = 2;
  config.frame_period_us = 1000000;  // the window never closes mid-test
  cnn::CnnPipeline pipeline(config);
  auto session = pipeline.open_session(16, 16);

  session->feed(event_at(0, 10));  // touch the path once

  TimeUs t = 10;
  const std::int64_t allocs = allocations_during([&] {
    for (Index i = 0; i < 500; ++i) session->feed(event_at(i, t += 100));
    session->advance_to(t + 100);  // below the frame boundary: ingest only
  });
  EXPECT_EQ(allocs, 0) << "CNN event ingest must not touch the heap";
  EXPECT_EQ(session->stats().events_fed, 501);
}

TEST(ZeroAlloc, CnnFrameCloseIsAllocationFree) {
  // The servebench CNN geometry. A session sizes its activations at open,
  // so its very first close allocates nothing once this thread's conv
  // scratch (per thread, grown to the largest layer the thread has run) is
  // warm — here from an earlier session's closes on the same path.
  cnn::CnnPipelineConfig config;
  config.width = 32;
  config.height = 32;
  config.num_classes = 2;
  config.base_filters = 4;
  config.frame_period_us = 1000;
  cnn::CnnPipeline pipeline(config);
  constexpr Index kFrames = 4;
  const auto feed_frames = [&](core::StreamSession& session) {
    for (Index f = 0; f < kFrames; ++f) {
      const TimeUs start = f * config.frame_period_us;
      for (Index i = 0; i < 37 * f + 1; ++i) {
        session.feed(event_at(i * 5, start + i));
      }
      session.advance_to(start + config.frame_period_us);
    }
  };
  for (const route::PathId path :
       {route::PathId::Default, route::PathId::CnnSparse}) {
    {
      auto warm = pipeline.open_session(32, 32);
      ASSERT_TRUE(warm->set_execution_path(path));
      feed_frames(*warm);
    }
    auto session = pipeline.open_session(32, 32);
    ASSERT_TRUE(session->set_execution_path(path));
    const std::int64_t allocs =
        allocations_during([&] { feed_frames(*session); });
    EXPECT_EQ(allocs, 0) << "CNN frame close must not touch the heap (path "
                         << static_cast<int>(path) << ")";
    EXPECT_EQ(session->stats().decisions_emitted, kFrames);
  }
}

TEST(ZeroAlloc, SnnIntraStepFeedIsAllocationFree) {
  snn::SnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 1000000;  // no step boundary inside the test
  snn::SnnPipeline pipeline(config);
  auto session = pipeline.open_session(16, 16);

  session->feed(event_at(0, 10));

  TimeUs t = 10;
  const std::int64_t allocs = allocations_during([&] {
    for (Index i = 0; i < 500; ++i) session->feed(event_at(i, t += 100));
  });
  EXPECT_EQ(allocs, 0) << "SNN event binning must not touch the heap";
}

TEST(ZeroAlloc, AdmissionSubmitAndSteadyStatePumpAreAllocationFree) {
  gnn::GnnPipeline pipeline(tenant_config());
  SessionManager manager;
  ManagedSessionConfig config;
  config.queue_capacity = 512;
  // One slot gets its gate from set_admission, the other from add().
  const SessionId before = manager.add(pipeline.open_session(16, 16), config);
  manager.set_admission(admission_on());
  const SessionId after = manager.add(pipeline.open_session(16, 16), config);

  TimeUs t = 0;
  Index i = 0;
  const auto submit_round = [&] {
    for (Index k = 0; k < 64; ++k, ++i) {
      manager.submit(before, event_at(i, t += 100));
      manager.submit(after, event_at(i * 3, t));
    }
  };
  // Warm-up: cross a graph recycle and let every pool worker touch its
  // obs shards once.
  for (int round = 0; round < 4; ++round) {
    submit_round();
    manager.pump_all();
  }
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(allocations_during(submit_round), 0)
        << "submit() with admission on must not touch the heap";
    Index ops = 0;
    EXPECT_EQ(allocations_during([&] { ops = manager.pump(); }), 0)
        << "a steady-state pump() round must not touch the heap";
    EXPECT_EQ(ops, 128);  // both backlogs fit in one burst
  }
  const SessionManager::AggregateStats stats = manager.stats();
  EXPECT_EQ(stats.totals.events_fed, 8 * 128);
  EXPECT_EQ(stats.totals.events_dropped, 0);
}

TEST(ZeroAlloc, ManagedSlotIsItsQueueWithAGateOnlyUnderAdmission) {
  gnn::GnnPipeline pipeline(tenant_config());
  (void)pipeline.open_session(16, 16);  // first open freezes the model
  constexpr Index kQueue = 512;
  // The Slot itself and the id vector's growth; far below one gate.
  constexpr std::int64_t kSlotSlack = 1024;
  ManagedSessionConfig config;
  config.queue_capacity = kQueue;
  const auto bytes_per_add = [&](bool admission) {
    SessionManager manager;
    if (admission) manager.set_admission(admission_on());
    manager.add(pipeline.open_session(16, 16), config);
    auto session = pipeline.open_session(16, 16);
    return bytes_during([&] { manager.add(std::move(session), config); });
  };
  const std::int64_t off = bytes_per_add(false);
  const std::int64_t on = bytes_per_add(true);
  // The queue's first block, not its kQueue-op bound: the ring grows only
  // when a push finds that block full.
  const auto first_block_bytes =
      static_cast<std::int64_t>(kFirstBlock * sizeof(StreamOp));
  EXPECT_GE(off, first_block_bytes);
  EXPECT_LE(off, first_block_bytes + kSlotSlack)
      << "no gate with admission off";
  EXPECT_EQ(on - off, static_cast<std::int64_t>(sizeof(fault::NoiseGate)))
      << "admission on adds exactly one gate per slot";

  // Enabling on a live manager makes one gate per slot; a disable keeps
  // them, so re-enabling makes none.
  SessionManager manager;
  manager.add(pipeline.open_session(16, 16), config);
  manager.add(pipeline.open_session(16, 16), config);
  EXPECT_EQ(bytes_during([&] { manager.set_admission(admission_on()); }),
            static_cast<std::int64_t>(2 * sizeof(fault::NoiseGate)));
  EXPECT_EQ(allocations_during([&] {
              manager.set_admission(fault::AdmissionConfig{});
              manager.set_admission(admission_on());
            }),
            0);
}

TEST(ZeroAlloc, QueueAndSinkEachGrowOnceThenNeverAgain) {
  // retain 32: the sink's bound is 64 decisions, and stride 1 decides on
  // every event, so one undrained pump fills the sink's first block.
  gnn::GnnPipeline pipeline(tenant_config());
  constexpr Index kQueue = 512;
  constexpr Index kSinkBound = 64;
  ManagedSessionConfig config;
  config.queue_capacity = kQueue;
  TimeUs t = 0;
  Index i = 0;
  std::vector<core::Decision> out;
  out.reserve(1024);
  SessionManager manager;
  manager.add(pipeline.open_session(16, 16), config);
  const auto submit = [&](Index ops) {
    for (Index k = 0; k < ops; ++k, ++i) {
      manager.submit(0, event_at(i, t += 100));
    }
  };
  const auto drain = [&] {
    manager.drain(0, out);
    out.clear();
  };
  // The manager's first pump builds its default plan, which is neither the
  // queue nor the sink.
  submit(8);
  manager.pump_all();
  drain();

  // Inside both first blocks: nothing grows.
  EXPECT_EQ(allocations_during([&] { submit(8); }), 0);
  EXPECT_EQ(allocations_during([&] { manager.pump_all(); }), 0);
  EXPECT_EQ(allocations_during([&] { drain(); }), 0);

  // The 17th queued op replaces the queue's first block with its bound.
  std::int64_t bytes = 0;
  EXPECT_EQ(allocations_during([&] {
              bytes = bytes_during([&] { submit(100); });
            }),
            1);
  EXPECT_EQ(bytes, static_cast<std::int64_t>(kQueue * sizeof(StreamOp)));
  // The 17th undrained decision replaces the sink's first block with its
  // bound; compaction at the bound then works inside it.
  EXPECT_EQ(allocations_during([&] {
              bytes = bytes_during([&] { manager.pump_all(); });
            }),
            1);
  EXPECT_EQ(bytes,
            static_cast<std::int64_t>(kSinkBound * sizeof(core::Decision)));
  EXPECT_EQ(allocations_during([&] { drain(); }), 0);

  // A long stream after that: the queue fills to its bound and overflows,
  // the sink compacts, and nothing allocates.
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(allocations_during([&] { submit(kQueue + 88); }), 0)
        << "submit() after the growth step must not touch the heap";
    EXPECT_EQ(allocations_during([&] { manager.pump_all(); }), 0)
        << "pump() and emit() after the growth step must not touch the heap";
    EXPECT_EQ(allocations_during([&] { drain(); }), 0)
        << "drain() keeps the sink's storage";
  }
  const SessionManager::AggregateStats stats = manager.stats();
  EXPECT_EQ(stats.totals.events_fed, 116 + 8 * kQueue);
  EXPECT_EQ(stats.totals.events_dropped, 8 * 88);
  EXPECT_GT(stats.totals.decisions_dropped, 0);
}

/// A sink frame written by hand: `buffered` decisions, all undrained.
std::vector<std::uint8_t> sink_frame(Index retain, Index buffered) {
  const std::vector<core::Decision> buffer(static_cast<size_t>(buffered));
  std::vector<std::uint8_t> bytes;
  fault::CheckpointWriter w(bytes, std::size_t{1} << 24);
  w.i64(retain);
  w.padded_span(std::span<const core::Decision>(buffer),
                &core::Decision::label, &core::Decision::confidence);
  w.i64(buffered);  // total
  w.i64(0);         // dropped
  w.i64(0);         // handed
  return bytes;
}

TEST(ZeroAlloc, OversizedSinkFrameIsRefusedBeforeItsBufferIsAllocated) {
  constexpr Index kRetain = 1024;
  const std::vector<std::uint8_t> frame = sink_frame(kRetain, 2 * kRetain + 1);
  DecisionSink sink(kRetain);
  ErrorCode code = ErrorCode::InvalidArgument;
  const std::int64_t bytes = bytes_during([&] {
    try {
      fault::CheckpointReader r(frame);
      sink.load(r);
    } catch (const Error& e) {
      code = e.code();
    }
  });
  EXPECT_EQ(code, ErrorCode::CheckpointCorrupt);
  // The refusal's message may allocate; the 2049 decisions it names do not.
  EXPECT_LT(bytes, static_cast<std::int64_t>(sizeof(core::Decision)) * 64);
  EXPECT_EQ(sink.total(), 0);
}

TEST(ZeroAlloc, LoadedSinkTakesTheGrowthStepOnce) {
  constexpr Index kRetain = 32;
  constexpr Index kLoaded = kFirstBlock + 4;
  const std::vector<std::uint8_t> frame = sink_frame(kRetain, kLoaded);
  DecisionSink sink(kRetain);
  std::int64_t bytes = 0;
  // The decoded scratch buffer, then the 2*retain bound — not a block
  // sized to the loaded count, which a later emit would outgrow.
  EXPECT_EQ(allocations_during([&] {
              bytes = bytes_during([&] {
                fault::CheckpointReader r(frame);
                sink.load(r);
              });
            }),
            2);
  EXPECT_EQ(bytes, static_cast<std::int64_t>(
                       (kLoaded + 2 * kRetain) * sizeof(core::Decision)));
  EXPECT_EQ(allocations_during([&] {
              for (Index k = 0; k < 4 * kRetain; ++k) sink.emit({});
            }),
            0);
  EXPECT_EQ(sink.total(), kLoaded + 4 * kRetain);
}

}  // namespace
}  // namespace evd::runtime
