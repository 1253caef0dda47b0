// Execution-path routing: the registry of interchangeable execution
// variants the planner may place a paradigm onto.
//
// The paper's central dichotomy — dense clocked execution vs sparse
// event-driven execution of the same network — is a *routing* question,
// not a model question. Before this layer each pipeline hard-coded its
// answer (Conv2d's shape heuristic, the SNN's chunked clocked stepping,
// the GNN's incremental message pass). evd::route lifts the decision out:
//
//   * An ExecutionPath describes one routable alternative to a paradigm's
//     default hot stage (CNN: sparse conv; SNN: event-driven stepping;
//     GNN: batch message pass). Default is the paradigm's own behavior and
//     is not a registered variant.
//   * The PathRegistry enumerates the variants and tracks which of them
//     are *proved*: a path becomes routable to the planner only once a
//     registered differential oracle (`route.*` in evd::check) pins it
//     decision-stream-identical (ULP 0) to the paradigm's default path.
//     The planner only ever picks Default or a proved path, so a plan
//     can change how work executes but never what it computes.
//   * Sessions store a PathId (installed by SessionManager::set_plan from
//     the plan's placements) and consult it at their hot-stage dispatch
//     point. PathId::Default runs the pre-refactor hard-coded behavior.
//
// The library sits at the leaf of the link graph (depends only on
// evd_common) so both the runtime (which applies routes) and the planning
// stack (which chooses among them) can link it without cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace evd::route {

/// Always true: every dispatch site honours the installed path. Kept so
/// callers written against the former on/off switch still compile.
constexpr bool enabled() noexcept { return true; }

/// Stable identifiers for the routable execution variants. The numeric
/// values are serialized inside plan bytes (sched::ParadigmPlacement), so
/// they must never be renumbered; gaps leave room for new variants per
/// paradigm family.
enum class PathId : std::uint8_t {
  Default = 0,  ///< The paradigm's built-in behavior (pre-refactor path).
  // Not registered (path_from_byte rejects them); servebench still names them.
  CnnDirect = 1,
  CnnGemm = 2,
  CnnSparse = 3,       ///< Zero-skipping sparse conv over the event frame.
  SnnEventDriven = 9,  ///< Single spike-driven full-layer kernel call.
  GnnBatch = 17,       ///< Full-graph sweep message pass per event.
};

/// How the cost model prices a path relative to the paradigm's declared
/// (default-path) StageInfo counters — the modeled side of the paper's
/// dense-vs-event-driven dichotomy.
enum class CostShape : std::uint8_t {
  AsDeclared,      ///< The declared counters already describe this path.
  ActivityScaled,  ///< Compute/param traffic scale with input activity.
  FullSweep,       ///< Re-touches the whole state per op (dense sweep).
};

/// One routable execution variant of a paradigm's hot stage.
struct ExecutionPath {
  PathId id = PathId::Default;
  const char* paradigm = "";  ///< "cnn" / "snn" / "gnn".
  const char* name = "";      ///< e.g. "cnn.sparse" (stable, used in docs).
  CostShape cost = CostShape::AsDeclared;
};

/// Short stable name ("default", "cnn.sparse", ...).
const char* path_name(PathId id) noexcept;

/// Owning paradigm ("cnn" / "snn" / "gnn"); empty for Default / unknown.
const char* path_paradigm(PathId id) noexcept;

/// True when `id` may be installed on a session of `paradigm` — Default
/// always, otherwise only the paradigm's own variants.
bool path_valid_for(PathId id, std::string_view paradigm) noexcept;

/// Decode a serialized path byte; nullopt for unknown values (the typed
/// Corrupt error is the caller's to raise — plan decoding owns framing).
std::optional<PathId> path_from_byte(std::uint8_t raw) noexcept;

/// The process-wide path registry: enumeration plus the equivalence gate.
class PathRegistry {
 public:
  static PathRegistry& instance() noexcept;

  /// Every registered variant, all paradigms, registry order.
  std::span<const ExecutionPath> paths() const noexcept;
  /// The variants owned by one paradigm (empty span for unknown labels).
  std::span<const ExecutionPath> paths_for(
      std::string_view paradigm) const noexcept;
  /// Descriptor lookup; nullptr for Default (which is not a variant — it
  /// names "whatever the paradigm hard-codes") and for unknown ids.
  const ExecutionPath* find(PathId id) const noexcept;

  /// Equivalence gate. mark_proved is called when the path's differential
  /// oracle is registered with evd::check (register_builtin_oracles) — the
  /// oracle suite is what keeps the mark honest in CI. Default is always
  /// proved (it *is* the baseline).
  void mark_proved(PathId id) noexcept;
  bool proved(PathId id) const noexcept;

  /// The paths the planner may route `paradigm` onto: Default plus every
  /// proved variant, in registry order. Unproved variants never appear —
  /// the planner cannot choose an unverified execution path.
  std::vector<PathId> routable(std::string_view paradigm) const;

 private:
  PathRegistry() = default;
};

}  // namespace evd::route
