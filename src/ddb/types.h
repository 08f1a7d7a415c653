// Shared types of the Menasce-Muntz distributed-database model (section 6).
#pragma once

#include <compare>
#include <cstdint>
#include <ostream>

#include "common/ids.h"

namespace cmh::ddb {

enum class LockMode : std::uint8_t { kRead, kWrite };

[[nodiscard]] constexpr const char* to_string(LockMode m) {
  return m == LockMode::kRead ? "R" : "W";
}

/// Two lock requests conflict unless both are reads.
[[nodiscard]] constexpr bool conflicts(LockMode a, LockMode b) {
  return a == LockMode::kWrite || b == LockMode::kWrite;
}

/// Tag (j, n) of the n-th probe computation initiated by controller C_j
/// (section 6.5).
struct DdbProbeTag {
  SiteId initiator;
  std::uint64_t sequence{0};

  friend constexpr auto operator<=>(const DdbProbeTag&,
                                    const DdbProbeTag&) = default;

  friend std::ostream& operator<<(std::ostream& os, const DdbProbeTag& t) {
    return os << '(' << t.initiator << ',' << t.sequence << ')';
  }
};

/// Identity of an inter-controller edge ((T_a, S_j), (T_a, S_b)); probes
/// carry it so the receiver can check meaningfulness (section 6.5).
struct InterEdge {
  AgentId from;
  AgentId to;

  friend constexpr auto operator<=>(const InterEdge&,
                                    const InterEdge&) = default;

  friend std::ostream& operator<<(std::ostream& os, const InterEdge& e) {
    return os << e.from << "->" << e.to;
  }
};

}  // namespace cmh::ddb
