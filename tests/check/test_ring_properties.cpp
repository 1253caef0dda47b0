// Property tests (label: prop) for the runtime's bounded FIFOs. RingBuffer
// and the EventQueue over it start at a small first block and grow once, to
// their configured bound, when a push finds that block full. Random op
// scripts run against a std::deque model, so a growth step that loses,
// reorders or miscounts an op arrives with a shrunk script and a
// reproduction seed. Scripts mix push-heavy and pop-heavy phases: the head
// wraps inside the first block before it grows, and small bounds overflow.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "check/gen.hpp"
#include "check/property.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/ring_buffer.hpp"

namespace evd::check {
namespace {

using runtime::OverflowPolicy;
using runtime::StreamOp;

/// DropFront and Clear are RingBuffer calls; the queue runs them as Pop
/// and DrainToLoss.
enum class RingOp : char {
  Push = 'P',
  Pop = 'O',
  DropFront = 'F',
  Clear = 'C',
  DrainToLoss = 'L'
};

struct RingScript {
  Index capacity = 1;
  OverflowPolicy policy = OverflowPolicy::DropNewest;
  std::vector<RingOp> ops;
};

Gen<RingScript> ring_script_gen() {
  const Gen<Index> capacity = element_of<Index>({1, 15, 16, 17, 512});
  const Gen<OverflowPolicy> policy = element_of<OverflowPolicy>(
      {OverflowPolicy::DropNewest, OverflowPolicy::DropOldest});
  const Gen<double> push_share = element_of<double>({0.3, 0.6, 0.95});
  const Gen<Index> phases = index_in(1, 8);
  const Gen<Index> phase_length = index_in(1, 300);
  Gen<RingScript> gen;
  gen.sample = [=](Rng& rng) {
    RingScript script;
    script.capacity = capacity.sample(rng);
    script.policy = policy.sample(rng);
    for (Index p = phases.sample(rng); p > 0; --p) {
      const double push = push_share.sample(rng);
      for (Index n = phase_length.sample(rng); n > 0; --n) {
        const double u = rng.uniform();
        script.ops.push_back(u < 0.01   ? RingOp::Clear
                             : u < 0.02 ? RingOp::DrainToLoss
                             : u < 0.07 ? RingOp::DropFront
                             : u < 0.07 + 0.93 * push ? RingOp::Push
                                                      : RingOp::Pop);
      }
    }
    return script;
  };
  gen.shrink = [capacity](const RingScript& script) {
    std::vector<RingScript> out;
    const size_t n = script.ops.size();
    if (n > 1) {
      RingScript prefix = script;
      prefix.ops.resize(n / 2);
      out.push_back(std::move(prefix));
      RingScript suffix = script;
      suffix.ops.erase(suffix.ops.begin(),
                       suffix.ops.begin() + static_cast<std::ptrdiff_t>(n / 2));
      out.push_back(std::move(suffix));
    }
    // Single ops from the end first: a failure rarely needs what follows it.
    for (size_t i = n; i-- > 0 && n - i <= 64;) {
      RingScript one = script;
      one.ops.erase(one.ops.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(one));
    }
    for (const Index smaller : capacity.shrink(script.capacity)) {
      RingScript fewer = script;
      fewer.capacity = smaller;
      out.push_back(std::move(fewer));
    }
    return out;
  };
  gen.show = [](const RingScript& script) {
    std::string s = "capacity=" + std::to_string(script.capacity) +
                    (script.policy == OverflowPolicy::DropNewest
                         ? " DropNewest ops="
                         : " DropOldest ops=");
    for (const RingOp op : script.ops) s += static_cast<char>(op);
    return s;
  };
  return gen;
}

StreamOp op_at(TimeUs t) { return StreamOp::advance(t); }

std::string at(size_t step, const std::string& what) {
  return "step " + std::to_string(step) + ": " + what;
}

TEST(RingBufferProperty, MatchesADequeModelAcrossTheGrowthStep) {
  const CheckResult result = forall(
      ring_script_gen(),
      [](const RingScript& script) -> std::optional<std::string> {
        runtime::RingBuffer<StreamOp> ring(script.capacity);
        std::deque<TimeUs> model;
        TimeUs next = 0;
        StreamOp out;
        for (size_t step = 0; step < script.ops.size(); ++step) {
          switch (script.ops[step]) {
            case RingOp::Push: {
              const bool room =
                  static_cast<Index>(model.size()) < script.capacity;
              if (ring.push(op_at(next)) != room) {
                return at(step, "push accepted iff there was room");
              }
              if (room) model.push_back(next);
              ++next;
              break;
            }
            case RingOp::Pop:
              if (ring.pop(out) != !model.empty()) {
                return at(step, "pop succeeded iff non-empty");
              }
              if (!model.empty()) {
                if (out.t != model.front()) return at(step, "FIFO order");
                model.pop_front();
              }
              break;
            case RingOp::DropFront:
              if (ring.drop_front() != !model.empty()) {
                return at(step, "drop_front succeeded iff non-empty");
              }
              if (!model.empty()) model.pop_front();
              break;
            case RingOp::Clear:
            case RingOp::DrainToLoss:
              ring.clear();
              model.clear();
              break;
          }
          if (ring.size() != static_cast<Index>(model.size())) {
            return at(step, "size " + std::to_string(ring.size()) +
                                " vs model " + std::to_string(model.size()));
          }
          if (ring.capacity() != script.capacity) {
            return at(step, "capacity is not the configured bound");
          }
          if (ring.full() !=
              (static_cast<Index>(model.size()) == script.capacity)) {
            return at(step, "full() disagrees with the bound");
          }
          if (!model.empty() && ring.front().t != model.front()) {
            return at(step, "front is not the oldest");
          }
        }
        // Whatever is left comes out oldest first.
        for (const TimeUs t : model) {
          if (!ring.pop(out) || out.t != t) return "final drain order";
        }
        return ring.empty() ? std::nullopt
                            : std::optional<std::string>("ring not empty");
      });
  EXPECT_TRUE(result.passed) << result.summary();
}

TEST(RingBufferProperty, EventQueueKeepsItsLedgerAcrossTheGrowthStep) {
  const CheckResult result = forall(
      ring_script_gen(),
      [](const RingScript& script) -> std::optional<std::string> {
        runtime::EventQueue queue(script.capacity, script.policy);
        std::deque<TimeUs> model;
        runtime::EventQueue::Stats want;
        TimeUs next = 0;
        StreamOp out;
        for (size_t step = 0; step < script.ops.size(); ++step) {
          switch (script.ops[step]) {
            case RingOp::Push: {
              bool clean = true;
              if (static_cast<Index>(model.size()) == script.capacity) {
                clean = false;
                ++want.dropped;
                if (script.policy == OverflowPolicy::DropOldest) {
                  model.pop_front();
                  model.push_back(next);
                  ++want.pushed;
                }
              } else {
                model.push_back(next);
                ++want.pushed;
              }
              if (queue.push(op_at(next)) != clean) {
                return at(step, "push reported a loss wrongly");
              }
              ++next;
              break;
            }
            case RingOp::Pop:
            case RingOp::DropFront:
              if (queue.pop(out) != !model.empty()) {
                return at(step, "pop succeeded iff non-empty");
              }
              if (!model.empty()) {
                if (out.t != model.front()) return at(step, "FIFO order");
                model.pop_front();
                ++want.popped;
              }
              break;
            case RingOp::Clear:
            case RingOp::DrainToLoss: {
              const auto lost = static_cast<Index>(model.size());
              if (queue.drain_to_loss() != lost) {
                return at(step, "drain_to_loss miscounted");
              }
              want.popped += lost;
              model.clear();
              break;
            }
          }
          if (queue.size() != static_cast<Index>(model.size())) {
            return at(step, "size " + std::to_string(queue.size()) +
                                " vs model " + std::to_string(model.size()));
          }
          if (queue.capacity() != script.capacity) {
            return at(step, "capacity is not the configured bound");
          }
          if (!(queue.stats() == want)) {
            return at(step, "ledger pushed/dropped/popped " +
                                std::to_string(queue.stats().pushed) + "/" +
                                std::to_string(queue.stats().dropped) + "/" +
                                std::to_string(queue.stats().popped) +
                                " vs model " + std::to_string(want.pushed) +
                                "/" + std::to_string(want.dropped) + "/" +
                                std::to_string(want.popped));
          }
          if (!queue.ledger_consistent()) {
            return at(step, "conservation law broken");
          }
        }
        for (const TimeUs t : model) {
          if (!queue.pop(out) || out.t != t) return "final drain order";
        }
        return queue.empty() ? std::nullopt
                             : std::optional<std::string>("queue not empty");
      });
  EXPECT_TRUE(result.passed) << result.summary();
}

}  // namespace
}  // namespace evd::check
