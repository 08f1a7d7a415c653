#include "core/or_model.h"

#include <stdexcept>

#include "common/logging.h"

namespace cmh::core {

namespace {
enum WireType : std::uint8_t { kSignal = 1, kQuery = 2, kReply = 3 };
}  // namespace

OrFrame or_encode(const OrMessage& msg) {
  OrFrame f;
  std::visit(
      [&f](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, OrSignalMsg>) {
          f.u8(kSignal);
        } else if constexpr (std::is_same_v<T, OrQueryMsg>) {
          f.u8(kQuery);
          f.probe_tag(m.tag);
        } else if constexpr (std::is_same_v<T, OrReplyMsg>) {
          f.u8(kReply);
          f.probe_tag(m.tag);
        }
      },
      msg);
  return f;
}

Result<OrMessage> or_decode(BytesView payload) {
  Reader r(payload);
  std::uint8_t type = 0;
  if (auto st = r.u8(type); !st.ok()) return st;
  switch (type) {
    case kSignal:
      return OrMessage{OrSignalMsg{}};
    case kQuery: {
      OrQueryMsg m;
      if (auto st = r.probe_tag(m.tag); !st.ok()) return st;
      return OrMessage{m};
    }
    case kReply: {
      OrReplyMsg m;
      if (auto st = r.probe_tag(m.tag); !st.ok()) return st;
      return OrMessage{m};
    }
    default:
      return Status{StatusCode::kInvalidArgument, "unknown OR message type"};
  }
}

OrProcess::OrProcess(ProcessId id, Sender sender, bool initiate_on_block)
    : id_(id),
      sender_(std::move(sender)),
      initiate_on_block_(initiate_on_block) {}

void OrProcess::block_on(const std::set<ProcessId>& dependents) {
  if (blocked()) {
    throw std::logic_error("OrProcess::block_on: already blocked");
  }
  if (dependents.empty()) {
    throw std::invalid_argument("OrProcess::block_on: empty dependent set");
  }
  if (dependents.contains(id_)) {
    throw std::invalid_argument("OrProcess::block_on: waiting on self");
  }
  dependent_set_ = dependents;
  ++wait_epoch_;
  if (initiate_on_block_) initiate();
}

void OrProcess::signal(ProcessId to) {
  if (blocked()) {
    throw std::logic_error("OrProcess::signal: blocked processes cannot act");
  }
  ++stats_.signals_sent;
  sender_(to, or_encode(OrMessage{OrSignalMsg{}}).view());
}

std::optional<ProbeTag> OrProcess::initiate() {
  if (!blocked()) return std::nullopt;
  const ProbeTag tag{id_, ++next_sequence_};
  Engagement e;
  e.sequence = tag.sequence;
  e.engager = id_;
  e.wait_epoch = wait_epoch_;
  engagements_[id_] = e;
  ++stats_.computations_initiated;
  CMH_LOG(kDebug, "or") << id_ << " initiates OR computation " << tag;
  send_wave(tag, engagements_[id_]);
  return tag;
}

void OrProcess::send_wave(const ProbeTag& tag, Engagement& e) {
  e.awaiting = dependent_set_->size();
  // One stack-encoded frame serves the whole wave.
  const OrFrame frame = or_encode(OrMessage{OrQueryMsg{tag}});
  for (const ProcessId to : *dependent_set_) {
    ++stats_.queries_sent;
    sender_(to, frame.view());
  }
}

Status OrProcess::on_message(ProcessId from, BytesView payload) {
  auto decoded = or_decode(payload);
  if (!decoded.ok()) return decoded.status();
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, OrSignalMsg>) {
          handle_signal(from);
        } else if constexpr (std::is_same_v<T, OrQueryMsg>) {
          handle_query(from, m);
        } else if constexpr (std::is_same_v<T, OrReplyMsg>) {
          handle_reply(from, m);
        }
      },
      *decoded);
  return Status::Ok();
}

void OrProcess::handle_signal(ProcessId /*from*/) {
  if (!blocked()) return;  // already released by an earlier signal
  dependent_set_.reset();
  // Any engagement becomes void: we were not continuously blocked.
  ++wait_epoch_;
}

void OrProcess::handle_query(ProcessId from, const OrQueryMsg& msg) {
  ++stats_.queries_received;
  if (!blocked()) return;  // active processes discard queries

  auto it = engagements_.find(msg.tag.initiator);
  if (it != engagements_.end()) {
    Engagement& e = it->second;
    if (msg.tag.sequence < e.sequence) return;  // stale computation
    if (msg.tag.sequence == e.sequence) {
      if (e.wait_epoch != wait_epoch_) {
        // Not continuously blocked since engagement; the old wave is void
        // and re-engaging could certify a dependence that was interrupted.
        return;
      }
      // Later query of an engagement we already serve: reply immediately.
      ++stats_.replies_sent;
      sender_(from, or_encode(OrMessage{OrReplyMsg{msg.tag}}).view());
      return;
    }
  }

  // First query of this computation: engage and propagate the wave.
  Engagement e;
  e.sequence = msg.tag.sequence;
  e.engager = from;
  e.wait_epoch = wait_epoch_;
  engagements_[msg.tag.initiator] = e;
  send_wave(msg.tag, engagements_[msg.tag.initiator]);
}

void OrProcess::handle_reply(ProcessId /*from*/, const OrReplyMsg& msg) {
  ++stats_.replies_received;
  if (!blocked()) return;
  const auto it = engagements_.find(msg.tag.initiator);
  if (it == engagements_.end()) return;
  Engagement& e = it->second;
  if (e.sequence != msg.tag.sequence || e.wait_epoch != wait_epoch_ ||
      e.done || e.awaiting == 0) {
    return;
  }
  if (--e.awaiting == 0) complete_wave(msg.tag, e);
}

void OrProcess::complete_wave(const ProbeTag& tag, Engagement& e) {
  e.done = true;
  if (tag.initiator == id_) {
    // Every process reachable through dependent sets is blocked and has
    // been continuously blocked across the wave: deadlock.
    declared_ = true;
    ++stats_.deadlocks_declared;
    CMH_LOG(kInfo, "or") << id_ << " declares OR-model deadlock via " << tag;
    if (on_deadlock_) on_deadlock_(tag);
    return;
  }
  ++stats_.replies_sent;
  sender_(e.engager, or_encode(OrMessage{OrReplyMsg{tag}}).view());
}

}  // namespace cmh::core
