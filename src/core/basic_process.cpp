#include "core/basic_process.h"

#include "common/logging.h"

namespace cmh::core {

BasicProcess::BasicProcess(ProcessId id, Sender sender, Options options,
                           TimerFn timers)
    : id_(id),
      sender_(std::move(sender)),
      options_(options),
      timers_(std::move(timers)) {
  if (options_.initiation == InitiationMode::kDelayed && !timers_) {
    throw std::invalid_argument(
        "BasicProcess: kDelayed initiation requires timers");
  }
}

// ---- underlying computation -------------------------------------------------

void BasicProcess::send_request(ProcessId to) {
  if (to == id_) throw ModelViolation("send_request: self request");
  if (out_edges_.contains(to)) {
    throw ModelViolation("send_request: edge already exists (G1)");
  }
  out_edges_.insert(to);
  const std::uint64_t epoch = ++out_edge_epoch_[to];
  ++stats_.requests_sent;
  sender_(to, encode(RequestMsg{}).view());
  CMH_LOG(kDebug, "basic") << id_ << " requests " << to;

  switch (options_.initiation) {
    case InitiationMode::kOnRequest:
      initiate();
      break;
    case InitiationMode::kDelayed:
      // Section 4.3: initiate only if this edge still exists, and has
      // existed *continuously*, T time units from now.  The epoch check
      // rejects delete-then-recreate within the window.
      timers_(options_.initiation_delay, [this, to, epoch] {
        if (out_edges_.contains(to) && out_edge_epoch_[to] == epoch) {
          initiate();
        }
      });
      break;
    case InitiationMode::kManual:
      break;
  }
}

void BasicProcess::send_reply(ProcessId to) {
  if (!in_black_.contains(to)) {
    throw ModelViolation("send_reply: no pending request from " +
                         to.to_string());
  }
  if (blocked()) {
    // G3: only active processes (no outgoing edges) may reply.
    throw ModelViolation("send_reply: process is blocked (G3)");
  }
  in_black_.erase(to);
  ++stats_.replies_sent;
  sender_(to, encode(ReplyMsg{}).view());
  CMH_LOG(kDebug, "basic") << id_ << " replies to " << to;
}

Status BasicProcess::on_message(ProcessId from, BytesView payload) {
  auto decoded = decode(payload);
  if (!decoded.ok()) return decoded.status();
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RequestMsg>) {
          handle_request(from);
        } else if constexpr (std::is_same_v<T, ReplyMsg>) {
          handle_reply(from);
        } else if constexpr (std::is_same_v<T, ProbeMsg>) {
          handle_probe(from, m);
        } else if constexpr (std::is_same_v<T, WfgdMsg>) {
          handle_wfgd(from, m);
        }
      },
      *decoded);
  return Status::Ok();
}

void BasicProcess::handle_request(ProcessId from) {
  // Edge (from, this) blackens on receipt (G2); per P3 we know our incoming
  // black edges.
  in_black_.insert(from);
}

void BasicProcess::handle_reply(ProcessId from) {
  // Edge (this, from) disappears on receipt (G4).
  out_edges_.erase(from);
}

// ---- probe computation (sections 3 and 4) -----------------------------------

std::optional<ProbeTag> BasicProcess::initiate() {
  if (out_edges_.empty()) return std::nullopt;  // active: cannot be on cycle
  const ProbeTag tag{id_, ++next_sequence_};
  // Our own newest computation supersedes older ones (section 4.3).
  computations_[id_] = ComputationState{tag.sequence, false};
  ++stats_.computations_initiated;
  CMH_LOG(kDebug, "probe") << id_ << " initiates computation " << tag;
  send_probes_on_outgoing(tag);  // step A0
  return tag;
}

void BasicProcess::send_probes_on_outgoing(const ProbeTag& tag) {
  // Steps A0/A2: one probe along every outgoing edge.  The set cannot change
  // mid-step because callers are serialized per process.  One stack-encoded
  // frame serves the whole fan-out; no heap allocation on this path.
  const SmallFrame frame = encode(ProbeMsg{tag});
  for (const ProcessId to : out_edges_) {
    ++stats_.probes_sent;
    sender_(to, frame.view());
  }
}

void BasicProcess::handle_probe(ProcessId from, const ProbeMsg& probe) {
  ++stats_.probes_received;

  // Meaningful iff edge (from, this) exists and is black at receipt
  // (section 3.2); locally that is "we hold from's unanswered request" (P3).
  if (!in_black_.contains(from)) return;
  ++stats_.meaningful_probes;

  auto& cs = computations_[probe.tag.initiator];
  if (probe.tag.sequence < cs.sequence) {
    // Section 4.3: stale computation.
    if (options_.ignore_stale_computations) return;
    // Ablation: treat the stale tag as a fresh computation.
    cs = ComputationState{probe.tag.sequence, false};
  } else if (probe.tag.sequence > cs.sequence) {
    cs = ComputationState{probe.tag.sequence, false};
  }

  if (probe.tag.initiator == id_) {
    // Step A1: first meaningful probe of our own computation => black cycle.
    if (cs.engaged) return;
    cs.engaged = true;
    declare_deadlock(probe.tag);
    return;
  }

  // Step A2: forward on first meaningful probe of this computation.
  if (cs.engaged && !options_.forward_every_meaningful_probe) return;
  cs.engaged = true;
  send_probes_on_outgoing(probe.tag);
}

void BasicProcess::declare_deadlock(const ProbeTag& tag) {
  declared_ = true;
  deadlocked_ = true;
  ++stats_.deadlocks_declared;
  CMH_LOG(kInfo, "probe") << id_ << " declares deadlock via " << tag;
  if (on_deadlock_) on_deadlock_(tag);
  if (options_.propagate_wfgd) start_wfgd();
}

// ---- WFGD computation (section 5) -------------------------------------------

void BasicProcess::send_wfgd_set(ProcessId to, const WfgdEdgeSet& edges) {
  ++stats_.wfgd_messages_sent;
  encode_wfgd({edges.begin(), edges.end()}, scratch_);
  sender_(to, scratch_);
}

void BasicProcess::start_wfgd() {
  // The initiator is on a black cycle, hence never replies, hence every
  // incoming black edge (v_j, v_i) is permanently black.  Send {(v_j, v_i)}
  // to each such v_j.
  for (const ProcessId pred : in_black_) {
    const WfgdEdgeSet message{graph::Edge{pred, id_}};
    auto& sent = wfgd_sent_[pred];
    if (sent == message) continue;
    sent = message;
    send_wfgd_set(pred, message);
  }
}

void BasicProcess::handle_wfgd(ProcessId /*from*/, const WfgdMsg& msg) {
  ++stats_.wfgd_messages_received;
  // Receiving M means every edge in M lies on a permanent black path leading
  // from us -- so we are permanently blocked, i.e. deadlocked.
  deadlocked_ = true;
  wfgd_edges_.insert(msg.edges.begin(), msg.edges.end());
  propagate_wfgd();
}

void BasicProcess::propagate_wfgd() {
  for (const ProcessId pred : in_black_) {
    WfgdEdgeSet message = wfgd_edges_;
    message.insert(graph::Edge{pred, id_});
    auto& sent = wfgd_sent_[pred];
    if (sent == message) continue;  // never send the same message twice
    sent = message;
    send_wfgd_set(pred, message);
  }
}

void BasicProcess::mix_state_hash(std::uint64_t& h) const {
  const auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  mix(id_.value());
  for (const ProcessId p : out_edges_) mix(p.value());
  mix(0xE1);  // domain separators between variable-length runs
  for (const ProcessId p : in_black_) mix(p.value());
  mix(0xE2);
  mix(next_sequence_);
  mix(static_cast<std::uint64_t>(declared_) << 1 |
      static_cast<std::uint64_t>(deadlocked_));

  for (const auto& [who, st] : computations_) {
    mix(who.value());
    mix(st.sequence);
    mix(static_cast<std::uint64_t>(st.engaged));
  }
  mix(0xE3);
  for (const graph::Edge& e : wfgd_edges_) {
    mix(e.from.value());
    mix(e.to.value());
  }
  mix(0xE4);
  for (const auto& [pred, edges] : wfgd_sent_) {
    mix(pred.value());
    for (const graph::Edge& e : edges) {
      mix(e.from.value());
      mix(e.to.value());
    }
    mix(0xE5);
  }
}

}  // namespace cmh::core
