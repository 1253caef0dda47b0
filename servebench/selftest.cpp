// Self-tests of the benchmark harness (run.py runs them before every run):
//   * the same seed gives the same tape bytes, another seed another tape;
//   * a percentile is printed with its sample count;
//   * a synthetic stall is charged to every op due while it lasts.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace servebench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void tapes_are_seeded() {
  const std::vector<PoissonSource> sources = {
      {2000.0, 32, 1000}, {5000.0, 8, 0}, {1000.0, 32, 5000}};
  const Layout layout{2, 50000, 50000};
  const auto poisson = [&](std::uint64_t seed) {
    return tape_digest(poisson_tape(seed, sources, layout));
  };
  expect(poisson(1) == poisson(1), "poisson tape: same seed, same bytes");
  expect(poisson(1) != poisson(2), "poisson tape: other seed, other bytes");

  MmppConfig mc;
  mc.tenants = 500;
  mc.mean_rate_eps = 20000.0;
  const auto mmpp = [&](std::uint64_t seed) {
    return tape_digest(mmpp_tape(seed, mc, layout));
  };
  expect(mmpp(7) == mmpp(7), "mmpp tape: same seed, same bytes");
  expect(mmpp(7) != mmpp(8), "mmpp tape: other seed, other bytes");

  const Tape t = poisson_tape(3, sources, layout);
  bool sorted = true;
  for (std::size_t i = 1; i < t.ops.size(); ++i) {
    sorted &= t.ops[i - 1].t <= t.ops[i].t;
  }
  expect(sorted, "tape ops are in stream-time order");
  // Four alternating 50 ms segments that tile the ops and start on time.
  bool tiled = t.segments.size() == 4 && t.segments.back().end == t.ops.size();
  for (std::size_t k = 0; tiled && k < t.segments.size(); ++k) {
    const Segment& s = t.segments[k];
    tiled = s.paced == (k % 2 == 1) &&
            s.t0 == static_cast<TimeUs>(50000 * k) &&
            s.begin == (k == 0 ? 0 : t.segments[k - 1].end) &&
            (s.begin == s.end || t.ops[s.begin].t >= s.t0) &&
            (s.begin == 0 || t.ops[s.begin - 1].t < s.t0);
  }
  expect(tiled, "segments alternate, tile the tape and start at their t0");
  // ~8000 ev/s over 0.2 s of stream.
  const std::int64_t events = t.events(0, t.ops.size());
  expect(events > 1400 && events < 1800,
         "poisson tape density matches its rates (" + std::to_string(events) +
             ")");
}

void percentiles_carry_samples() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(1001 - i));
  expect(percentile(v, 0.99) == 990.0, "nearest-rank p99 of 1..1000 is 990");
  expect(percentile(v, 0.50) == 500.0, "nearest-rank p50 of 1..1000 is 500");
  const std::string line =
      percentile_json("latency_p99_us", 990.0, "us", v.size());
  expect(line.find("\"samples\":1000") != std::string::npos,
         "percentile line carries its sample count: " + line);
  std::vector<double> empty;
  expect(percentile(empty, 0.99) == 0.0, "percentile of nothing is 0");
}

/// A clock that only moves when told to: each now() costs 1 µs and
/// wait_until jumps straight to the deadline.
struct FakeClock {
  std::int64_t t = 0;
  std::int64_t now() {
    t += 1000;
    return t;
  }
  void wait_until(std::int64_t deadline) {
    if (deadline > t) t = deadline;
  }
};

void stalls_are_charged() {
  // One op per ms of stream time for 100 ms; the service call made right
  // after the op due at 20 ms stalls for 30 ms.
  Tape tape;
  for (int k = 0; k < 100; ++k) {
    TapeOp op;
    op.t = 1000 * k;
    tape.ops.push_back(op);
  }
  const Schedule schedule{0, 0};
  FakeClock clock;
  std::vector<double> lag;
  std::vector<std::int64_t> submitted_at;
  bool stalled = false;
  open_loop(
      tape, 0, tape.ops.size(), schedule, clock,
      [&](const TapeOp&) { submitted_at.push_back(clock.t); },
      [&]() -> Index {
        if (!stalled && submitted_at.size() == 21) {
          stalled = true;
          clock.t += 30'000'000;
          return 1;
        }
        return 0;
      },
      lag);
  expect(lag.size() == tape.ops.size(), "every op gets a lateness sample");
  if (lag.size() != tape.ops.size()) return;
  const std::int64_t stall_end = submitted_at[21];
  expect(stall_end >= 50'000'000, "the stall held back the next submission");
  int charged = 0;
  for (std::size_t k = 21; k < tape.ops.size(); ++k) {
    const double due_us = static_cast<double>(tape.ops[k].t);
    if (due_us * 1000.0 >= static_cast<double>(stall_end)) break;
    // Every op that fell due during the stall waited until it ended.
    const double at = static_cast<double>(submitted_at[k]);
    const double expected = (at - due_us * 1000.0) * 1e-3;
    expect(std::abs(lag[k] - expected) < 1e-9 &&
               at >= static_cast<double>(stall_end),
           "op " + std::to_string(k) + " is charged the stall");
    ++charged;
  }
  expect(charged >= 29, "ops due during the stall were found (" +
                            std::to_string(charged) + ")");
  expect(lag[21] > 29000.0, "the first op due in the stall waited ~30 ms");
  expect(lag[10] < 5.0, "ops due before the stall were on time");
  expect(lag.back() < 5.0, "the loop caught up after the stall");
}

}  // namespace

int main() {
  tapes_are_seeded();
  percentiles_carry_samples();
  stalls_are_charged();
  if (failures > 0) {
    std::fprintf(stderr, "servebench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "servebench_selftest: ok\n");
  return 0;
}
