#include "check/invariant_auditor.h"

#include <algorithm>
#include <sstream>

#include "core/basic_process.h"
#include "core/messages.h"
#include "graph/cycles.h"

namespace cmh::check {

namespace {

[[nodiscard]] std::string set_to_string(const std::vector<ProcessId>& v) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ',';
    os << v[i];
  }
  os << '}';
  return os.str();
}

}  // namespace

std::string Violation::to_string() const {
  std::ostringstream os;
  os << "invariant violation [" << check::to_string(axiom) << "] event#"
     << event_seq << " channel (" << from << "->" << to << ") t=" << at << ": "
     << detail;
  return os.str();
}

std::string format_report(const std::vector<Violation>& vs) {
  std::string out;
  for (const Violation& v : vs) {
    out += v.to_string();
    out += '\n';
  }
  return out;
}

InvariantAuditor::InvariantAuditor(AuditorConfig config) : config_(config) {}

void InvariantAuditor::record(Axiom axiom, ProcessId from, ProcessId to,
                              SimTime at, std::string detail) {
  Violation v{axiom, event_seq_, from, to, at, std::move(detail)};
  violations_.push_back(v);  // retained even in abort mode: report() stays
                             // usable from the catch site
  if (config_.abort_on_violation) throw InvariantViolationError(std::move(v));
}

void InvariantAuditor::on_send(ProcessId from, ProcessId to, BytesView payload,
                               SimTime at) {
  ++event_seq_;
  Channel& ch = channels_[{from, to}];
  ch.in_flight.emplace_back(payload.begin(), payload.end());
  ++ch.sent;

  auto decoded = core::decode(payload);
  if (!decoded.ok()) {
    record(Axiom::kP2, from, to, at,
           "undecodable frame sent: " + decoded.status().to_string());
    return;
  }
  if (std::holds_alternative<core::RequestMsg>(*decoded)) {
    if (const auto st = wfg_.create(from, to); !st.ok()) {
      record(Axiom::kG1, from, to, at,
             "request sent but edge cannot be created: " + st.to_string());
    }
  } else if (std::holds_alternative<core::ReplyMsg>(*decoded)) {
    // A reply from `from` to `to` whitens edge (to, from); the shadow graph
    // enforces both G3 preconditions (edge black, replier active).
    if (const auto st = wfg_.whiten(to, from); !st.ok()) {
      record(Axiom::kG3, from, to, at,
             "reply sent but edge cannot whiten: " + st.to_string());
    }
  } else {
    // Detection traffic (P1): probes ride the sender's outgoing wait-for
    // edges; WFGD sets travel backwards along the sender's incoming black
    // edges.  Neither may touch the graph.
    if (std::holds_alternative<core::ProbeMsg>(*decoded)) {
      if (!wfg_.has_edge(from, to)) {
        record(Axiom::kP1, from, to, at,
               "probe sent along a wait-for edge that does not exist");
      }
    } else if (wfg_.color(to, from) != graph::EdgeColor::kBlack) {
      record(Axiom::kP1, from, to, at,
             "WFGD set sent to a vertex that is not a black predecessor");
    }
  }
}

void InvariantAuditor::on_deliver(ProcessId from, ProcessId to,
                                  BytesView payload, SimTime at) {
  ++event_seq_;
  Channel& ch = channels_[{from, to}];
  if (ch.in_flight.empty()) {
    record(Axiom::kP2, from, to, at,
           "delivered a frame that was never sent on this channel");
  } else {
    const Bytes& head = ch.in_flight.front();
    if (head.size() != payload.size() ||
        !std::equal(head.begin(), head.end(), payload.begin())) {
      record(Axiom::kP2, from, to, at,
             "delivered frame is not the oldest undelivered frame (FIFO "
             "reorder or corruption)");
    }
    ch.in_flight.pop_front();
    ++ch.delivered;
  }

  auto decoded = core::decode(payload);
  if (!decoded.ok()) return;  // already reported at send if it came from us
  if (std::holds_alternative<core::RequestMsg>(*decoded)) {
    if (const auto st = wfg_.blacken(from, to); !st.ok()) {
      record(Axiom::kG2, from, to, at,
             "request delivered but edge cannot blacken: " + st.to_string());
    }
  } else if (std::holds_alternative<core::ReplyMsg>(*decoded)) {
    // Reply from `from` delivered to `to` removes edge (to, from).
    if (const auto st = wfg_.remove(to, from); !st.ok()) {
      record(Axiom::kG4, from, to, at,
             "reply delivered but edge cannot be removed: " + st.to_string());
    }
  }
}

void InvariantAuditor::check_local_view(const core::BasicProcess& process,
                                        SimTime at) {
  const ProcessId p = process.id();
  const auto succ = wfg_.successors(p);
  const auto& waits = process.waits_for();
  if (!std::equal(succ.begin(), succ.end(), waits.begin(), waits.end())) {
    record(Axiom::kP3, p, p, at,
           "local out-edge view " +
               set_to_string({waits.begin(), waits.end()}) +
               " != derived successors " + set_to_string(succ));
    return;
  }
  const auto preds = wfg_.predecessors(p, graph::EdgeColor::kBlack);
  const auto& held = process.held_requests();
  if (!std::equal(preds.begin(), preds.end(), held.begin(), held.end())) {
    record(Axiom::kP3, p, p, at,
           "local black in-edge view " +
               set_to_string({held.begin(), held.end()}) +
               " != derived black predecessors " + set_to_string(preds));
  }
}

void InvariantAuditor::on_declare(ProcessId who, SimTime at) {
  ++event_seq_;
  declared_.insert(who);
  if (!wfg_.on_dark_cycle(who)) {
    record(Axiom::kQRP2, who, who, at,
           "vertex declared deadlock but lies on no dark cycle (false "
           "deadlock)");
  }
}

void InvariantAuditor::finalize(SimTime at) {
  for (const auto& [key, ch] : channels_) {
    if (!ch.in_flight.empty()) {
      record(Axiom::kP4, key.first, key.second, at,
             std::to_string(ch.in_flight.size()) +
                 " frame(s) sent but never delivered (sent=" +
                 std::to_string(ch.sent) +
                 ", delivered=" + std::to_string(ch.delivered) + ")");
    }
  }
  if (!config_.check_qrp1) return;

  // QRP1: no dark cycle may consist solely of vertices that never declared.
  // Restrict the dark subgraph to undeclared vertices and look for any
  // cycle; one found = a deadlock nobody reported.
  std::vector<std::pair<ProcessId, ProcessId>> undeclared;
  for (const graph::Edge& e : wfg_.edges()) {
    if (graph::is_dark(*wfg_.color(e.from, e.to)) &&
        !declared_.contains(e.from) && !declared_.contains(e.to)) {
      undeclared.emplace_back(e.from, e.to);
    }
  }
  const auto missed = graph::vertices_on_cycles(undeclared);
  if (!missed.empty()) {
    record(Axiom::kQRP1, missed.front(), missed.front(), at,
           "dark cycle through " + missed.front().to_string() +
               " contains no declared vertex (missed deadlock)");
  }
}

}  // namespace cmh::check
