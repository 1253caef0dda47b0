// Tracer: span recording, nesting depth, multi-thread collection, ring
// overflow accounting, and the disabled fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "obs/trace.hpp"
#include "runtime/session_manager.hpp"
#include "sched/plan.hpp"

namespace evd::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().clear();
    previous_ = enabled();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(previous_);
    Tracer::instance().clear();
  }
  bool previous_ = true;
};

int count_named(const std::vector<TraceEvent>& spans, const char* name) {
  return static_cast<int>(
      std::count_if(spans.begin(), spans.end(), [&](const TraceEvent& e) {
        return std::string_view(e.name) == name;
      }));
}

TEST_F(TraceTest, RecordsCompletedSpans) {
  { Span span("test.outer"); }
  { Span span("test.outer"); }
  const auto spans = Tracer::instance().collect();
  EXPECT_EQ(count_named(spans, "test.outer"), 2);
  for (const auto& e : spans) {
    EXPECT_GE(e.dur_ns, 0);
    EXPECT_GE(e.ts_ns, 0);
  }
}

TEST_F(TraceTest, NestingDepthIsRecorded) {
  {
    Span outer("test.outer");
    Span inner("test.inner");
  }
  const auto spans = Tracer::instance().collect();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: outer opened first at depth 0, inner at depth 1.
  EXPECT_EQ(std::string_view(spans[0].name), "test.outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(std::string_view(spans[1].name), "test.inner");
  EXPECT_EQ(spans[1].depth, 1u);
  // The inner span is contained in the outer one.
  EXPECT_LE(spans[0].ts_ns, spans[1].ts_ns);
  EXPECT_GE(spans[0].ts_ns + spans[0].dur_ns, spans[1].ts_ns + spans[1].dur_ns);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  { Span span("test.disabled"); }
  set_enabled(true);
  EXPECT_EQ(count_named(Tracer::instance().collect(), "test.disabled"), 0);
}

TEST_F(TraceTest, ThreadsGetDistinctIdsAndAllSpansAreCollected) {
  { Span span("test.multi"); }
  std::thread a([] { Span span("test.multi"); });
  std::thread b([] { Span span("test.multi"); });
  a.join();
  b.join();
  const auto spans = Tracer::instance().collect();
  EXPECT_EQ(count_named(spans, "test.multi"), 3);
  std::vector<std::uint32_t> tids;
  for (const auto& e : spans) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
      << "each recording thread must own a distinct dense tid";
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCountsThem) {
  Tracer::instance().set_ring_capacity(16);
  std::thread worker([] {
    for (int i = 0; i < 40; ++i) {
      Span span("test.overflow");
    }
  });
  worker.join();
  // The fresh thread's ring holds the newest 16; 24 were overwritten before
  // any collect() saw them. Query dropped() first — collect() advances the
  // seen high-water mark, after which nothing in the window counts as lost.
  EXPECT_EQ(Tracer::instance().dropped(), 24);
  const auto spans = Tracer::instance().collect();
  EXPECT_EQ(count_named(spans, "test.overflow"), 16);
  EXPECT_EQ(Tracer::instance().dropped(), 0);
  Tracer::instance().set_ring_capacity(8192);
}

TEST_F(TraceTest, RingCapacityRoundsUpToPowerOfTwo) {
  Tracer::instance().set_ring_capacity(10);
  std::thread worker([] {
    for (int i = 0; i < 40; ++i) {
      Span span("test.rounded");
    }
  });
  worker.join();
  // Capacity 10 rounds up to 16: the newest 16 are kept, 24 dropped.
  EXPECT_EQ(Tracer::instance().dropped(), 24);
  EXPECT_EQ(count_named(Tracer::instance().collect(), "test.rounded"), 16);
  Tracer::instance().set_ring_capacity(8192);
}

/// A sampled site in the shape of the runtime's: one `thread_local`
/// countdown per call site.
void sampled_span(const char* name) {
  thread_local SpanSite site;
  Span span(name, site);
}

/// "a3": construction 3 on thread a.
std::string construction_name(char thread, int i) {
  std::string name(1, thread);
  name += std::to_string(i);
  return name;
}

std::vector<std::string> recorded_names(const std::vector<TraceEvent>& spans) {
  std::vector<std::string> names;
  for (const auto& e : spans) names.emplace_back(e.name);
  std::sort(names.begin(), names.end());
  return names;
}

TEST_F(TraceTest, SampledSiteRecordsOneInNPerThread) {
  constexpr int kN = static_cast<int>(kSpanSampleEvery);
  // Names must outlive the tracer's copy: one per construction.
  std::vector<std::string> a_names;
  std::vector<std::string> b_names;
  for (int i = 0; i <= 2 * kN; ++i) {
    a_names.push_back(construction_name('a', i));
  }
  for (int i = 0; i <= kN; ++i) b_names.push_back(construction_name('b', i));
  // Thread b runs while thread a is mid-countdown; with a shared countdown
  // b's first construction would be skipped.
  std::thread a([&] {
    for (int i = 0; i < kN / 2; ++i) sampled_span(a_names[i].c_str());
    std::thread b([&] {
      for (const auto& name : b_names) sampled_span(name.c_str());
    });
    b.join();
    for (int i = kN / 2; i <= 2 * kN; ++i) sampled_span(a_names[i].c_str());
  });
  a.join();
  // Constructions 1, N+1, 2N+1 on each thread (0-based: 0, N, 2N).
  std::vector<std::string> expected = {
      construction_name('a', 0), construction_name('a', kN),
      construction_name('a', 2 * kN), construction_name('b', 0),
      construction_name('b', kN)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(recorded_names(Tracer::instance().collect()), expected);
}

TEST_F(TraceTest, SkippedOuterSpanLeavesInnerAtOuterDepth) {
  SpanSite site;
  {
    Span outer("test.outer_recorded", site);  // first construction: recorded
    Span inner("test.inner_nested");
  }
  {
    Span outer("test.outer_skipped", site);  // second: skipped
    Span inner("test.inner_alone");
  }
  const auto spans = Tracer::instance().collect();
  EXPECT_EQ(count_named(spans, "test.outer_recorded"), 1);
  EXPECT_EQ(count_named(spans, "test.outer_skipped"), 0);
  for (const auto& e : spans) {
    if (std::string_view(e.name) == "test.inner_nested") {
      EXPECT_EQ(e.depth, 1u);
    }
    if (std::string_view(e.name) == "test.inner_alone") {
      EXPECT_EQ(e.depth, 0u);
    }
  }
  EXPECT_EQ(count_named(spans, "test.inner_nested"), 1);
  EXPECT_EQ(count_named(spans, "test.inner_alone"), 1);
  EXPECT_EQ(detail::span_depth(), 0u);
}

TEST_F(TraceTest, DisabledSampledSiteRecordsNothingAndKeepsCountdown) {
  SpanSite site;
  set_enabled(false);
  for (int i = 0; i < 3; ++i) {
    Span span("test.disabled_sampled", site);
  }
  set_enabled(true);
  // The countdown did not move, so this is still the site's first sample.
  { Span span("test.enabled_sampled", site); }
  const auto spans = Tracer::instance().collect();
  EXPECT_EQ(count_named(spans, "test.disabled_sampled"), 0);
  EXPECT_EQ(count_named(spans, "test.enabled_sampled"), 1);
}

TEST_F(TraceTest, PumpSpanNamesOutliveThePlanAndTheManager) {
  // The tracer keeps a span's name pointer until collect(). Serve under a
  // plan, replace it, clear it, destroy the manager, then export: a name
  // owned by a plan or by the manager would be read after it was freed.
  const Index previous_threads = par::thread_count();
  par::set_thread_count(2);
  gnn::GnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 1;
  gnn::GnnPipeline pipeline(config);
  {
    constexpr Index kSessions = 4;
    runtime::SessionManager manager(/*burst=*/8);
    for (Index s = 0; s < kSessions; ++s) {
      manager.add(pipeline.open_session(16, 16));
    }
    // 16 visits per session per serve: enough that the 1-in-16 sampled
    // visit span records on at least one of the two workers.
    TimeUs t = 0;
    const auto serve = [&] {
      for (Index k = 0; k < 128; ++k, t += 100) {
        for (Index s = 0; s < kSessions; ++s) {
          events::Event e;
          e.x = static_cast<std::int16_t>(k % 16);
          e.y = static_cast<std::int16_t>((k * 3 + s) % 16);
          e.polarity = k % 2 == 0 ? Polarity::On : Polarity::Off;
          e.t = t;
          manager.submit(s, e);
        }
      }
      manager.pump_all();
    };
    manager.set_plan(sched::Plan::round_robin(kSessions, 2, 8));
    serve();
    manager.set_plan(sched::Plan::round_robin(kSessions, 1, 8));
    serve();
    manager.clear_plan();
    serve();
  }
  par::set_thread_count(previous_threads);

  const auto spans = Tracer::instance().collect();
  EXPECT_GT(count_named(spans, "sched.region"), 0);
  EXPECT_GT(count_named(spans, "runtime.session_burst"), 0);
  const std::string trace = Tracer::instance().chrome_trace_json();
  EXPECT_NE(trace.find("\"name\":\"sched.region\""), std::string::npos);
}

TEST_F(TraceTest, ClearForgetsRecordedSpans) {
  { Span span("test.cleared"); }
  Tracer::instance().clear();
  EXPECT_EQ(count_named(Tracer::instance().collect(), "test.cleared"), 0);
  EXPECT_EQ(Tracer::instance().dropped(), 0);
}

}  // namespace
}  // namespace evd::obs
