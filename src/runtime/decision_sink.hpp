// Bounded decision storage for streaming sessions.
//
// A serving process stays up: an SNN session ticking at 1 kHz decides
// ~86 M times a day, so a session keeps only the decisions the consumer
// has not taken yet. drain(out) moves them out and forgets them, so a
// consumer that drains regularly sees every decision exactly once and
// storage stays at O(drain interval), not O(stream length). A sink that is
// never drained holds the newest decisions: at least the last `retain` and
// at most 2*retain, compacted by halves so the amortised per-emit cost
// stays O(1). Decisions compacted away before any drain saw them are
// counted in `dropped()` — silence about data loss is the one thing a
// bounded buffer must not do.
//
// Every decision has a sequence number (its position in the emitted
// stream); those at or below the mark handed + dropped have left the sink
// for good. A restore rolls the session back to a checkpoint and replays,
// re-emitting decisions the consumer may already hold, so load() keeps
// whichever of the live and the checkpointed counts reaches the larger
// mark and emit() discards every re-emitted decision at or below it.
#pragma once

#include <vector>

#include "core/pipeline.hpp"
#include "fault/checkpoint.hpp"

namespace evd::runtime {

class DecisionSink {
 public:
  /// `retain` <= 0 falls back to 1. Storage starts at a first block of
  /// kFirstBlock decisions (ring_buffer.hpp), or 2*retain when that is
  /// smaller, and grows once, to 2*retain, when an emit finds the block
  /// full. It never grows or shrinks again: drain() keeps it.
  explicit DecisionSink(Index retain);

  /// Append a decision; compacts from the front (oldest first) when the
  /// 2*retain bound is reached. Allocates only in the one growth step.
  void emit(const core::Decision& d);

  /// Move all undrained decisions into `out` (appended), oldest first, and
  /// clear them; returns how many were moved.
  Index drain(std::vector<core::Decision>& out);

  /// Total decisions ever emitted.
  std::int64_t total() const noexcept { return total_; }
  /// Decisions compacted away before any drain() took them.
  std::int64_t dropped() const noexcept { return dropped_; }
  Index retain_limit() const noexcept { return retain_; }

  /// Checkpoint retain, the undrained buffer and the counters. Throws
  /// Error(CheckpointUnsupported) while a restored sink is still replaying
  /// decisions the consumer already holds: that state has no valid frame.
  void save(fault::CheckpointWriter& w) const;
  /// Restores a checkpoint taken from a sink with the same retain limit
  /// (Error(CheckpointMismatch) otherwise); inconsistent counts or an
  /// oversized buffer throw Error(CheckpointCorrupt), the latter before
  /// anything is allocated for it. The mark never moves backwards, and
  /// buffered decisions at or below it are discarded. A restored buffer
  /// larger than the first block takes the growth step to 2*retain.
  void load(fault::CheckpointReader& r);

 private:
  Index retain_;
  std::vector<core::Decision> buffer_;  ///< Undrained, oldest first.
  std::int64_t total_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t handed_ = 0;  ///< Decisions drain() has handed out.
};

}  // namespace evd::runtime
