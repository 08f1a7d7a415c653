// Strong identifier types shared across the library.
//
// The paper identifies basic-model vertices by a process id, probe
// computations by a tag (initiator, sequence), and DDB processes by a
// (transaction, site) tuple.  We give each of these its own distinct C++
// type so they cannot be mixed up at call sites.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace cmh {

/// Boost-style hash_combine: folds `v` into the running hash `h`.  The
/// std::hash specializations and every mix_state_hash fingerprint use it.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t h,
                                                   std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

// CRTP base for an integer-backed strong id.  Provides ordering, hashing
// support and streaming; arithmetic is deliberately omitted.
template <typename Tag, typename Rep = std::uint32_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    return os << Tag::prefix() << id.value_;
  }

  [[nodiscard]] std::string to_string() const {
    return std::string(Tag::prefix()) + std::to_string(value_);
  }

 private:
  Rep value_{0};
};

struct ProcessIdTag {
  static constexpr const char* prefix() { return "p"; }
};
/// Identity of a basic-model process / wait-for-graph vertex.
using ProcessId = StrongId<ProcessIdTag>;

struct TransactionIdTag {
  static constexpr const char* prefix() { return "T"; }
};
/// Identity of a DDB transaction (the `T_i` of the paper's section 6).
using TransactionId = StrongId<TransactionIdTag>;

struct SiteIdTag {
  static constexpr const char* prefix() { return "S"; }
};
/// Identity of a DDB computer / controller (the `S_j` / `C_j` of section 6).
using SiteId = StrongId<SiteIdTag>;

struct ResourceIdTag {
  static constexpr const char* prefix() { return "r"; }
};
/// Identity of a lockable resource managed by some controller.
using ResourceId = StrongId<ResourceIdTag>;

/// A DDB process is uniquely identified by the tuple (T_i, S_j) -- the
/// representative of transaction T_i running at site S_j (paper section 6.2).
struct AgentId {
  TransactionId transaction;
  SiteId site;

  friend constexpr auto operator<=>(const AgentId&, const AgentId&) = default;

  friend std::ostream& operator<<(std::ostream& os, const AgentId& a) {
    return os << '(' << a.transaction << ',' << a.site << ')';
  }

  [[nodiscard]] std::string to_string() const {
    return "(" + transaction.to_string() + "," + site.to_string() + ")";
  }
};

/// Tag (i, n) of the n-th probe computation initiated by vertex i
/// (paper sections 3.2 and 4.3).  Probes and WFGD bookkeeping carry this tag;
/// a vertex only honours the latest computation per initiator.
struct ProbeTag {
  ProcessId initiator;
  std::uint64_t sequence{0};

  friend constexpr auto operator<=>(const ProbeTag&, const ProbeTag&) = default;

  friend std::ostream& operator<<(std::ostream& os, const ProbeTag& t) {
    return os << '(' << t.initiator << ',' << t.sequence << ')';
  }
};

}  // namespace cmh

namespace std {

template <typename Tag, typename Rep>
struct hash<cmh::StrongId<Tag, Rep>> {
  size_t operator()(cmh::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};

template <>
struct hash<cmh::AgentId> {
  size_t operator()(const cmh::AgentId& a) const noexcept {
    return cmh::hash_combine(std::hash<cmh::TransactionId>{}(a.transaction),
                             std::hash<cmh::SiteId>{}(a.site));
  }
};

template <>
struct hash<cmh::ProbeTag> {
  size_t operator()(const cmh::ProbeTag& t) const noexcept {
    return cmh::hash_combine(std::hash<cmh::ProcessId>{}(t.initiator),
                             std::hash<std::uint64_t>{}(t.sequence));
  }
};

}  // namespace std
