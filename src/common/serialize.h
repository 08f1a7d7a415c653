// Tiny self-describing binary serialization used for all wire messages.
//
// Fixed-width little-endian integers.  Readers return Status on
// truncation/corruption rather than throwing, because a malformed frame from
// a peer is a runtime condition, not a bug.
//
// FieldWriter defines the field layout once (u8/u32/u64/id/agent/probe_tag)
// over two storages:
//   * StackWriter -- fixed-capacity stack buffer for the fixed-size frames
//                    (every message type but the WFGD edge set); zero heap
//                    use.
//   * Writer      -- appends to a caller-owned scratch Bytes, cleared up
//                    front, so an encoder called in a loop with the same
//                    scratch does zero heap allocation once warmed up.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/status.h"

namespace cmh {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view of an encoded frame.  Bytes converts implicitly, so all
/// send/decode surfaces accept either a Bytes or a stack frame.
using BytesView = std::span<const std::uint8_t>;

namespace detail {

inline void store_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace detail

/// The wire field layout, written through `Derived::append(p, n)`.
template <typename Derived>
class FieldWriter {
 public:
  void u8(std::uint8_t v) { self().append(&v, 1); }

  void u32(std::uint32_t v) {
    std::uint8_t b[4];
    detail::store_u32(b, v);
    self().append(b, 4);
  }

  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    detail::store_u64(b, v);
    self().append(b, 8);
  }

  template <typename Tag, typename Rep>
  void id(StrongId<Tag, Rep> v) {
    u32(static_cast<std::uint32_t>(v.value()));
  }

  void agent(const AgentId& a) {
    id(a.transaction);
    id(a.site);
  }

  void probe_tag(const ProbeTag& t) {
    id(t.initiator);
    u64(t.sequence);
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

/// Serializes into a caller-owned scratch buffer, which is cleared up front
/// but keeps its capacity.
class Writer : public FieldWriter<Writer> {
 public:
  explicit Writer(Bytes& scratch) : out_(scratch) { scratch.clear(); }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Pre-sizes the buffer for `n` further bytes (single growth instead of
  /// one per appended field).
  void reserve(std::size_t n) { out_.reserve(out_.size() + n); }

 private:
  friend class FieldWriter<Writer>;

  void append(const std::uint8_t* p, std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    std::memcpy(out_.data() + at, p, n);
  }

  Bytes& out_;
};

/// Fixed-capacity writer backed by a stack array.  Intended for the small
/// fixed-size frames whose maximum wire size is known at compile time;
/// overflowing the capacity is a programmer error (asserted in debug).
template <std::size_t N>
class StackWriter : public FieldWriter<StackWriter<N>> {
 public:
  [[nodiscard]] BytesView view() const { return {buf_.data(), len_}; }
  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::size_t size() const { return len_; }

 private:
  friend class FieldWriter<StackWriter<N>>;

  void append(const std::uint8_t* p, std::size_t n) {
    assert(len_ + n <= N);
    std::memcpy(buf_.data() + len_, p, n);
    len_ += n;
  }

  std::array<std::uint8_t, N> buf_{};
  std::size_t len_{0};
};

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data.data()), size_(data.size()) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

  Status u8(std::uint8_t& v) {
    if (remaining() < 1) return truncated();
    v = data_[pos_++];
    return Status::Ok();
  }

  Status u32(std::uint32_t& v) {
    if (remaining() < 4) return truncated();
    v = detail::load_u32(data_ + pos_);
    pos_ += 4;
    return Status::Ok();
  }

  Status u64(std::uint64_t& v) {
    if (remaining() < 8) return truncated();
    v = detail::load_u64(data_ + pos_);
    pos_ += 8;
    return Status::Ok();
  }

  template <typename Tag, typename Rep>
  Status id(StrongId<Tag, Rep>& v) {
    std::uint32_t raw = 0;
    if (auto st = u32(raw); !st.ok()) return st;
    v = StrongId<Tag, Rep>(static_cast<Rep>(raw));
    return Status::Ok();
  }

  Status agent(AgentId& a) {
    if (auto st = id(a.transaction); !st.ok()) return st;
    return id(a.site);
  }

  Status probe_tag(ProbeTag& t) {
    if (auto st = id(t.initiator); !st.ok()) return st;
    return u64(t.sequence);
  }

  // ---- unchecked fast path ------------------------------------------------
  // Decoders that have verified `remaining() >= frame size` once may read
  // the fixed-size fields without per-field bounds checks.

  [[nodiscard]] std::uint8_t u8_unchecked() {
    assert(remaining() >= 1);
    return data_[pos_++];
  }

  [[nodiscard]] std::uint32_t u32_unchecked() {
    assert(remaining() >= 4);
    const std::uint32_t v = detail::load_u32(data_ + pos_);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64_unchecked() {
    assert(remaining() >= 8);
    const std::uint64_t v = detail::load_u64(data_ + pos_);
    pos_ += 8;
    return v;
  }

  template <typename Id>
  [[nodiscard]] Id id_unchecked() {
    return Id(static_cast<typename Id::rep_type>(u32_unchecked()));
  }

 private:
  static Status truncated() {
    return {StatusCode::kInvalidArgument, "truncated message"};
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

}  // namespace cmh
