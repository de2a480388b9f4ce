#include "src/mig/capture.hpp"

#include <algorithm>

#include "src/mig/test_hooks.hpp"
#include "src/sim/engine.hpp"

namespace dvemig::mig {

std::uint64_t CaptureManager::begin_session() {
  const std::uint64_t id = ++next_session_;
  sessions_.emplace(id, Session{});
  update_hook();
  return id;
}

void CaptureManager::add_spec(std::uint64_t session, CaptureSpec spec) {
  const auto it = sessions_.find(session);
  DVEMIG_EXPECTS(it != sessions_.end());
  SpecState& state = it->second.specs.emplace_back(SpecState{spec, {}, {}});
  const std::size_t pi = proto_index(spec.proto);
  if (!spec.match_remote) {
    wildcard_idx_[pi][spec.local_port].push_back(IndexEntry{session, &state});
    return;
  }
  exact_idx_[pi][spec.exact_key()].push_back(IndexEntry{session, &state});
  if (spec.proto != net::IpProto::tcp) return;
  // Seed the exact spec's dedup set from any same-session wildcard spec on the
  // same port: packets from this peer may already have been captured through
  // the wildcard tier (the iterative strategy installs the listener wildcard
  // before each accepted child's exact spec), and a retransmit arriving after
  // this point will now hit the exact tier instead. Without the seed it would
  // be queued twice — the pre-index session-level dedup set never had tiers.
  const auto wit = wildcard_idx_[pi].find(spec.local_port);
  if (wit == wildcard_idx_[pi].end()) return;
  const std::uint64_t peer =
      static_cast<std::uint64_t>(spec.remote.addr.value) << 16 | spec.remote.port;
  for (const IndexEntry& e : wit->second) {
    if (e.session != session) continue;
    const auto seen = e.state->seen_by_peer.find(peer);
    if (seen != e.state->seen_by_peer.end()) {
      state.seen_seq.insert(seen->second.begin(), seen->second.end());
    }
  }
}

void CaptureManager::drop_from_index(std::uint64_t session, Session& s) {
  for (const SpecState& state : s.specs) {
    const std::size_t pi = proto_index(state.spec.proto);
    if (state.spec.match_remote) {
      const auto it = exact_idx_[pi].find(state.spec.exact_key());
      if (it == exact_idx_[pi].end()) continue;
      std::erase_if(it->second,
                    [&](const IndexEntry& e) { return e.session == session; });
      if (it->second.empty()) exact_idx_[pi].erase(it);
    } else {
      const auto it = wildcard_idx_[pi].find(state.spec.local_port);
      if (it == wildcard_idx_[pi].end()) continue;
      std::erase_if(it->second,
                    [&](const IndexEntry& e) { return e.session == session; });
      if (it->second.empty()) wildcard_idx_[pi].erase(it);
    }
  }
}

std::size_t CaptureManager::finish_session(std::uint64_t session) {
  const auto it = sessions_.find(session);
  DVEMIG_EXPECTS(it != sessions_.end());
  drop_from_index(session, it->second);
  std::vector<net::Packet> queue = std::move(it->second.queue);
  const std::vector<std::int64_t> arrivals = std::move(it->second.arrival_ns);
  sessions_.erase(it);
  update_hook();
  // Reinjection phase (Section V-B): each packet is submitted back to the stack
  // via the okfn() equivalent, in arrival order.
  const std::int64_t now_ns = stack_->engine().now().ns;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    metrics_.packet_delay_us.get().record(static_cast<double>(now_ns - arrivals[i]) /
                                          1e3);
    stack_->reinject(std::move(queue[i]));
  }
  metrics_.reinjected.get().add(queue.size());
  return queue.size();
}

void CaptureManager::abort_session(std::uint64_t session) {
  const auto it = sessions_.find(session);
  if (it != sessions_.end()) {
    drop_from_index(session, it->second);
    sessions_.erase(it);
  }
  update_hook();
}

std::size_t CaptureManager::total_specs() const {
  std::size_t n = 0;
  for (const auto& [id, session] : sessions_) n += session.specs.size();
  return n;
}

std::size_t CaptureManager::queued(std::uint64_t session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second.queue.size();
}

void CaptureManager::for_each_queued(
    const std::function<void(std::uint64_t, const net::Packet&)>& fn) const {
  for (const auto& [id, session] : sessions_) {
    for (const net::Packet& p : session.queue) fn(id, p);
  }
}

void CaptureManager::inject_queued_for_test(std::uint64_t session, net::Packet p) {
  const auto it = sessions_.find(session);
  DVEMIG_EXPECTS(it != sessions_.end());
  it->second.queue.push_back(std::move(p));
  it->second.arrival_ns.push_back(stack_->engine().now().ns);
}

void CaptureManager::update_hook() {
  if (sessions_.empty()) {
    hook_.release();
    return;
  }
  if (hook_.registered()) return;
  hook_ = stack_->netfilter().register_hook(
      stack::Hook::local_in, /*priority=*/0,
      [this](net::Packet& p) { return on_local_in(p); });
}

stack::Verdict CaptureManager::steal(Session& session, const net::Packet& p) {
  total_captured_ += 1;
  metrics_.captured.get().add(1);
  session.queue.push_back(p);
  session.arrival_ns.push_back(stack_->engine().now().ns);
  return stack::Verdict::stolen;
}

stack::Verdict CaptureManager::on_local_in(net::Packet& p) {
  // Exact tier first: an exact spec is strictly more specific than any
  // wildcard on the same port, and both can only coexist within one session
  // (a migrating listener plus its accepted children), where the choice is
  // unobservable — queue and dedup domain are shared.
  const std::size_t pi = proto_index(p.proto);
  const IndexEntry* hit = nullptr;
  bool exact_tier = false;
  if (const auto it = exact_idx_[pi].find(CaptureSpec::exact_key_for(p));
      it != exact_idx_[pi].end() && !it->second.empty()) {
    hit = &it->second.front();
    exact_tier = true;
  }
  if (hit == nullptr) {
    if (const auto it = wildcard_idx_[pi].find(p.dport());
        it != wildcard_idx_[pi].end() && !it->second.empty()) {
      hit = &it->second.front();
    }
  }
  if (hit == nullptr) return stack::Verdict::accept;
  const auto sit = sessions_.find(hit->session);
  DVEMIG_ASSERT(sit != sessions_.end());  // index never outlives its session
  if (p.proto == net::IpProto::tcp &&
      mutation() != ProtocolMutation::skip_capture_dedup) {
    const bool fresh =
        exact_tier
            ? hit->state->seen_seq.insert(p.tcp.seq).second
            : hit->state->seen_by_peer[CaptureSpec::peer_key_for(p)]
                  .insert(p.tcp.seq)
                  .second;
    if (!fresh) {
      total_deduplicated_ += 1;
      metrics_.dedup_hits.get().add(1);
      return stack::Verdict::stolen;  // duplicate stored only once
    }
  }
  return steal(sit->second, p);
}

}  // namespace dvemig::mig
