#include "route/route.hpp"

#include <array>
#include <atomic>

namespace evd::route {
namespace {

// Registry order groups each paradigm's variants contiguously so
// paths_for() can hand out subspans of one static table.
constexpr std::array<ExecutionPath, 3> kPaths = {{
    {PathId::CnnSparse, "cnn", "cnn.sparse", CostShape::ActivityScaled},
    {PathId::SnnEventDriven, "snn", "snn.event_driven",
     CostShape::ActivityScaled},
    {PathId::GnnBatch, "gnn", "gnn.batch", CostShape::FullSweep},
}};

constexpr std::size_t kProvedSlots = 32;  // > max PathId value (17).

std::array<std::atomic<bool>, kProvedSlots>& proved_flags() {
  static std::array<std::atomic<bool>, kProvedSlots> flags{};
  return flags;
}

}  // namespace

const char* path_name(PathId id) noexcept {
  if (id == PathId::Default) return "default";
  for (const ExecutionPath& p : kPaths) {
    if (p.id == id) return p.name;
  }
  return "unknown";
}

const char* path_paradigm(PathId id) noexcept {
  for (const ExecutionPath& p : kPaths) {
    if (p.id == id) return p.paradigm;
  }
  return "";
}

bool path_valid_for(PathId id, std::string_view paradigm) noexcept {
  if (id == PathId::Default) return true;
  return paradigm == path_paradigm(id) && paradigm.size() > 0;
}

std::optional<PathId> path_from_byte(std::uint8_t raw) noexcept {
  if (raw == 0) return PathId::Default;
  for (const ExecutionPath& p : kPaths) {
    if (static_cast<std::uint8_t>(p.id) == raw) return p.id;
  }
  return std::nullopt;
}

PathRegistry& PathRegistry::instance() noexcept {
  static PathRegistry registry;
  return registry;
}

std::span<const ExecutionPath> PathRegistry::paths() const noexcept {
  return {kPaths.data(), kPaths.size()};
}

std::span<const ExecutionPath> PathRegistry::paths_for(
    std::string_view paradigm) const noexcept {
  std::size_t begin = kPaths.size();
  std::size_t end = 0;
  for (std::size_t i = 0; i < kPaths.size(); ++i) {
    if (paradigm == kPaths[i].paradigm) {
      if (i < begin) begin = i;
      end = i + 1;
    }
  }
  if (begin >= end) return {};
  return {kPaths.data() + begin, end - begin};
}

const ExecutionPath* PathRegistry::find(PathId id) const noexcept {
  for (const ExecutionPath& p : kPaths) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

void PathRegistry::mark_proved(PathId id) noexcept {
  const auto slot = static_cast<std::size_t>(id);
  if (id == PathId::Default || slot >= kProvedSlots || find(id) == nullptr) {
    return;
  }
  proved_flags()[slot].store(true, std::memory_order_relaxed);
}

bool PathRegistry::proved(PathId id) const noexcept {
  if (id == PathId::Default) return true;
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= kProvedSlots) return false;
  return proved_flags()[slot].load(std::memory_order_relaxed);
}

std::vector<PathId> PathRegistry::routable(std::string_view paradigm) const {
  std::vector<PathId> out;
  out.push_back(PathId::Default);
  for (const ExecutionPath& p : paths_for(paradigm)) {
    if (proved(p.id)) out.push_back(p.id);
  }
  return out;
}

}  // namespace evd::route
