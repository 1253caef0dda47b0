#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/rng.hpp"

namespace servebench {

std::int64_t Tape::events(std::size_t begin, std::size_t end) const {
  std::int64_t n = 0;
  for (std::size_t i = begin; i < end; ++i) n += ops[i].advance ? 0 : 1;
  return n;
}

namespace {

double exponential(evd::Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform());
}

TapeOp random_event(evd::Rng& rng, Index patch, double t,
                    std::int32_t session) {
  TapeOp op;
  op.t = static_cast<std::int32_t>(t);
  op.session = session;
  op.x = static_cast<std::int16_t>(
      rng.uniform_int(static_cast<std::uint64_t>(patch)));
  op.y = static_cast<std::int16_t>(
      rng.uniform_int(static_cast<std::uint64_t>(patch)));
  op.polarity = rng.bernoulli(0.5) ? evd::Polarity::On : evd::Polarity::Off;
  return op;
}

/// Sort the ops and cut them into the layout's segments.
void finish(Tape& tape, const Layout& layout) {
  std::stable_sort(tape.ops.begin(), tape.ops.end(),
                   [](const TapeOp& a, const TapeOp& b) { return a.t < b.t; });
  const auto first_at = [&tape](TimeUs t) {
    return static_cast<std::size_t>(
        std::lower_bound(tape.ops.begin(), tape.ops.end(), t,
                         [](const TapeOp& op, TimeUs u) { return op.t < u; }) -
        tape.ops.begin());
  };
  TimeUs t = 0;
  for (int k = 0; k < layout.cycles; ++k) {
    for (const bool paced : {false, true}) {
      const TimeUs end = t + (paced ? layout.paced_us : layout.saturate_us);
      tape.segments.push_back({first_at(t), first_at(end), t, paced});
      t = end;
    }
  }
}

}  // namespace

Tape poisson_tape(std::uint64_t seed, const std::vector<PoissonSource>& sources,
                  const Layout& layout) {
  const TimeUs end_t = layout.end_t();
  Tape tape;
  evd::Rng root(seed);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const PoissonSource& src = sources[s];
    evd::Rng rng = root.fork();
    const double mean_gap_us = 1e6 / src.rate_eps;
    double t = exponential(rng, mean_gap_us);
    while (t < static_cast<double>(end_t)) {
      tape.ops.push_back(
          random_event(rng, src.patch, t, static_cast<std::int32_t>(s)));
      t += exponential(rng, mean_gap_us);
    }
    if (src.heartbeat_us > 0) {
      for (TimeUs h = src.heartbeat_us; h < end_t; h += src.heartbeat_us) {
        TapeOp op;
        op.t = static_cast<std::int32_t>(h);
        op.session = static_cast<std::int32_t>(s);
        op.advance = true;
        tape.ops.push_back(op);
      }
    }
  }
  finish(tape, layout);
  return tape;
}

Tape mmpp_tape(std::uint64_t seed, const MmppConfig& config,
               const Layout& layout) {
  const TimeUs end_t = layout.end_t();
  Tape tape;
  evd::Rng rng(seed);
  constexpr double kZipfS = 1.1;
  constexpr double kBurstRatio = 4.0;  ///< Burst rate / quiet rate.
  constexpr double tq = 40000.0;       ///< Mean quiet stretch, µs.
  constexpr double tb = 10000.0;       ///< Mean burst, µs.
  std::vector<double> cdf(static_cast<std::size_t>(config.tenants));
  double total = 0.0;
  for (Index s = 0; s < config.tenants; ++s) {
    total += 1.0 / std::pow(static_cast<double>(s) + 1.0, kZipfS);
    cdf[static_cast<std::size_t>(s)] = total;
  }
  // Quiet rate q and burst rate r*q with the long-run mean fixed:
  // mean = q * (Tq + r*Tb) / (Tq + Tb).
  const double quiet_rate =
      config.mean_rate_eps * (tq + tb) / (tq + kBurstRatio * tb);
  bool burst = false;
  double state_end = exponential(rng, tq);
  double t = 0.0;
  for (;;) {
    const double rate = burst ? quiet_rate * kBurstRatio : quiet_rate;
    const double next = t + exponential(rng, 1e6 / rate);
    if (next >= state_end) {
      // Memoryless: restart the arrival clock at the state switch.
      t = state_end;
      burst = !burst;
      state_end = t + exponential(rng, burst ? tb : tq);
      continue;
    }
    t = next;
    if (t >= static_cast<double>(end_t)) break;
    const auto it =
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * total);
    const auto tenant = static_cast<std::int32_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(), config.tenants - 1));
    tape.ops.push_back(random_event(rng, config.geometry, t, tenant));
  }
  finish(tape, layout);
  return tape;
}

std::uint64_t tape_digest(const Tape& tape) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  mix(tape.ops.size());
  for (const Segment& s : tape.segments) {
    mix(s.begin);
    mix(static_cast<std::uint64_t>(s.t0));
    mix(s.paced ? 1 : 0);
  }
  for (const TapeOp& op : tape.ops) {
    mix(static_cast<std::uint64_t>(op.t));
    mix(static_cast<std::uint64_t>(op.session));
    mix(op.advance ? 1 : 0);
    mix(static_cast<std::uint64_t>(op.x));
    mix(static_cast<std::uint64_t>(op.y));
    mix(static_cast<std::uint64_t>(op.polarity));
  }
  return h;
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return values[rank - 1];
}

std::string percentile_json(const std::string& metric, double value,
                            const std::string& unit, std::size_t samples) {
  return "{\"metric\":\"" + metric + "\",\"value\":" + json_number(value) +
         ",\"unit\":\"" + unit + "\",\"samples\":" + std::to_string(samples) +
         "}";
}

double median(std::vector<double> values) {
  return percentile(values, 0.5);
}

const char* span_name(SpanKind kind) {
  static const char* const kNames[] = {
      "bench.setup",         "sched.plan_for",      "runtime.set_plan",
      "serve.submit",        "serve.pump",          "serve.drain",
      "obs.scrape",          "fault.save_state",    "cnn.accumulate",
      "cnn.frame_build",     "cnn.conv",            "cnn.head",
      "snn.encode",          "snn.step",            "snn.readout",
      "gnn.insert",          "gnn.message_pass",    "gnn.readout"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(SpanKind::Count));
  return kNames[static_cast<int>(kind)];
}

double SpanLog::mean_ns(SpanKind kind) const {
  const Total& t = total(kind);
  return t.count > 0 ? static_cast<double>(t.ns) / static_cast<double>(t.count)
                     : 0.0;
}

void SpanLog::merge_totals(const SpanLog& other) {
  for (int k = 0; k < static_cast<int>(SpanKind::Count); ++k) {
    totals_[k].count += other.totals_[k].count;
    totals_[k].ns += other.totals_[k].ns;
  }
}

void SpanLog::write_chrome_events(std::ostream& os, std::int64_t epoch_ns,
                                  bool* first) const {
  char buf[256];
  for (const Event& e : events_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  *first ? "" : ",\n", span_name(e.kind), tid_,
                  static_cast<double>(e.start_ns - epoch_ns) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3);
    os << buf;
    *first = false;
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace servebench
