// The one serving driver. Every serving oracle (runtime.*, sched.*, route.*,
// shard.*) and every serving leg of bench_stream_throughput and
// bench_obs_overhead submits its ops and pumps through serve(); they differ
// only in the tape they hand it and in whether they collect the decision
// streams.
//
// A tape is a list of turns. Each turn is a run of arrivals, submitted back
// to back, followed by the pump the turn ends with:
//   oracles         round_robin(sessions, 1, 5, Pump::Round): one op per
//                   session per turn, one pump() round every 5 turns;
//   bulk bench legs round_robin(sessions, 2048, 1, Pump::All): 2048 ops per
//                   session between pump_all()s;
//   sharding leg    the Zipf/MMPP arrival order, pump_all() every 2048
//                   arrivals.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "check/generators.hpp"
#include "core/pipeline.hpp"
#include "runtime/session_manager.hpp"
#include "shard/shard_manager.hpp"

namespace evd::check {

using Streams = std::vector<std::vector<core::Decision>>;

/// One submit: `op` for the session at index `session` of the driver's ids.
struct Arrival {
  Index session = 0;
  SessionOp op;
};

/// What a turn ends with: nothing, one pump() round, or pump_all().
enum class Pump { None, Round, All };

struct Turn {
  std::vector<Arrival> arrivals;
  Pump pump = Pump::None;
};

using Tape = std::vector<Turn>;

/// Deals per-session op lists round-robin: turn k takes ops
/// [k * ops_per_turn, (k + 1) * ops_per_turn) of every session in index
/// order, and every `pump_every`-th turn ends with `pump`. The last turn is
/// the first one past every list, so it holds no arrivals.
inline Tape round_robin(const std::vector<std::vector<SessionOp>>& sessions,
                        size_t ops_per_turn, size_t pump_every, Pump pump) {
  Tape tape;
  for (size_t cursor = 0;; cursor += ops_per_turn) {
    Turn& turn = tape.emplace_back();
    for (size_t s = 0; s < sessions.size(); ++s) {
      const size_t end = std::min(cursor + ops_per_turn, sessions[s].size());
      for (size_t i = cursor; i < end; ++i) {
        turn.arrivals.push_back({static_cast<Index>(s), sessions[s][i]});
      }
    }
    if (tape.size() % pump_every == 0) turn.pump = pump;
    if (turn.arrivals.empty()) return tape;
  }
}

/// Serves `tape` to `ids` on a runtime::SessionManager or a
/// shard::ShardManager, then pump_all(). `after_turn(k)` runs once turn k
/// (1-based) has been submitted and pumped. With `streams`, every session is
/// drained into it after every pump, as a serving consumer does, so
/// restores, migrations and re-plans land between drains. A shard ring
/// refuses an op only when it is full: the driver pumps and retries, since
/// shedding would be noise in a comparison of complete streams. A
/// SessionManager's refusal (quarantine, admission) stands.
template <typename Manager>
void serve(Manager& manager, const std::vector<runtime::SessionId>& ids,
           const Tape& tape, Streams* streams = nullptr,
           const std::function<void(size_t)>& after_turn = nullptr) {
  if (streams != nullptr) streams->resize(ids.size());
  const auto pump = [&](Pump kind) {
    if (kind == Pump::All) {
      manager.pump_all();
    } else {
      manager.pump();
    }
    if (streams == nullptr) return;
    for (size_t s = 0; s < ids.size(); ++s) {
      manager.drain(ids[s], (*streams)[s]);
    }
  };
  for (size_t k = 0; k < tape.size(); ++k) {
    for (const Arrival& a : tape[k].arrivals) {
      const runtime::SessionId id = ids[static_cast<size_t>(a.session)];
      const auto submit = [&] {
        return a.op.kind == SessionOp::Kind::Feed
                   ? manager.submit(id, a.op.event)
                   : manager.submit_advance(id, a.op.t);
      };
      if constexpr (std::is_same_v<Manager, shard::ShardManager>) {
        while (!submit()) pump(Pump::Round);
      } else {
        submit();
      }
    }
    if (tape[k].pump != Pump::None) pump(tape[k].pump);
    if (after_turn) after_turn(k + 1);
  }
  pump(Pump::All);
}

/// The reference every serving oracle compares against: each session's ops
/// fed directly, one session at a time.
template <typename Pipeline>
Streams serve_sequential(Pipeline& pipeline, const MultiSessionSchedule& c) {
  Streams streams(c.sessions.size());
  for (size_t s = 0; s < c.sessions.size(); ++s) {
    const auto session = pipeline.open_session(c.width, c.height);
    for (const SessionOp& op : c.sessions[s]) {
      if (op.kind == SessionOp::Kind::Feed) {
        session->feed(op.event);
      } else {
        session->advance_to(op.t);
      }
    }
    session->drain(streams[s]);
  }
  return streams;
}

/// Compares the first want.size() streams of `got` with `want`:
/// operator== on core::Decision compares label, timestamp and confidence
/// bit-for-bit (ULP 0).
inline std::optional<std::string> diff_decision_streams(
    const Streams& got, const Streams& want, const char* got_name,
    const char* want_name) {
  for (size_t s = 0; s < want.size(); ++s) {
    if (got[s].size() != want[s].size()) {
      return "session " + std::to_string(s) + ": " +
             std::to_string(got[s].size()) + " decisions " + got_name +
             " vs " + std::to_string(want[s].size()) + " " + want_name;
    }
    for (size_t i = 0; i < got[s].size(); ++i) {
      if (!(got[s][i] == want[s][i])) {
        std::ostringstream os;
        os << "session " << s << " decision " << i << ": " << got_name
           << " {t=" << got[s][i].t << ", label=" << got[s][i].label
           << ", conf=" << got[s][i].confidence << "} vs " << want_name
           << " {t=" << want[s][i].t << ", label=" << want[s][i].label
           << ", conf=" << want[s][i].confidence << "}";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace evd::check
