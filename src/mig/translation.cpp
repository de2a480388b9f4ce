#include "src/mig/translation.hpp"

#include <algorithm>

#include "src/stack/tcp_socket.hpp"

namespace dvemig::mig {

namespace {

void index_add(std::vector<std::uint64_t>& bucket, std::uint64_t id) {
  // Keep ids ascending: a chained-update reinserts an old id, and the oldest
  // rule must stay the bucket's winner.
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), id), id);
}

}  // namespace

void TranslationManager::link_rule(std::uint64_t id, const TranslationRule& rule) {
  index_add(out_index_[keyed(rule.proto, rule.peer_local, rule.mig_old)], id);
  index_add(in_index_[keyed(rule.proto, rule.peer_local,
                            net::Endpoint{rule.mig_new_addr, rule.mig_old.port})],
            id);
  index_add(pair_index_[Key2{pack_ep(rule.peer_local), pack_ep(rule.mig_old)}], id);
}

void TranslationManager::unlink_rule(std::uint64_t id, const TranslationRule& rule) {
  const Key2 keys[3] = {
      keyed(rule.proto, rule.peer_local, rule.mig_old),
      keyed(rule.proto, rule.peer_local,
            net::Endpoint{rule.mig_new_addr, rule.mig_old.port}),
      Key2{pack_ep(rule.peer_local), pack_ep(rule.mig_old)},
  };
  RuleIndex* maps[3] = {&out_index_, &in_index_, &pair_index_};
  for (int i = 0; i < 3; ++i) {
    const auto it = maps[i]->find(keys[i]);
    if (it == maps[i]->end()) continue;
    std::erase(it->second, id);
    if (it->second.empty()) maps[i]->erase(it);
  }
}

std::uint64_t TranslationManager::install(TranslationRule rule, bool fix_dst_cache) {
  // Chained migrations compose: when the connection already has a rule mapping
  // ORIG -> X and the process now moves X -> Y, the peer's socket still emits
  // packets addressed to ORIG, so the rule must become ORIG -> Y (and if Y is
  // ORIG itself — the process returned home — the rule cancels out entirely).
  // The rule to compose with is the one whose *output* address equals the new
  // rule's origin — exactly the LOCAL_IN index key, so the probe is O(1).
  const Key2 chain = keyed(rule.proto, rule.peer_local,
                           net::Endpoint{rule.mig_old.addr, rule.mig_old.port});
  if (const auto bucket = in_index_.find(chain);
      bucket != in_index_.end() && !bucket->second.empty()) {
    const std::uint64_t id = bucket->second.front();
    TranslationRule& existing = rules_.find(id)->second;
    unlink_rule(id, existing);  // the in-index key is about to change
    existing.mig_new_addr = rule.mig_new_addr;
    if (fix_dst_cache) fix_cache(existing);
    if (existing.mig_old.addr == existing.mig_new_addr) {
      rules_.erase(id);  // identity mapping: the connection is back home
      update_hooks();
    } else {
      link_rule(id, existing);
    }
    return id;
  }

  const std::uint64_t id = ++next_rule_;
  rules_.emplace(id, rule);
  link_rule(id, rule);
  update_hooks();
  if (fix_dst_cache) fix_cache(rule);
  return id;
}

void TranslationManager::fix_cache(const TranslationRule& rule) {
  if (rule.proto != net::IpProto::tcp) return;
  // "Creating an accurate destination cache entry": find the local socket of
  // this connection and repoint its cached next hop at the new node. Without
  // this the IP header says IP2 but the frame still goes to IP1.
  const stack::FourTuple tuple{rule.peer_local, rule.mig_old};
  if (auto sock = stack_->table().ehash_lookup(tuple)) {
    sock->set_dst_cache(rule.mig_new_addr);
  }
}

void TranslationManager::remove(std::uint64_t rule_id) {
  const auto it = rules_.find(rule_id);
  if (it != rules_.end()) {
    unlink_rule(rule_id, it->second);
    rules_.erase(it);
  }
  update_hooks();
}

std::optional<TranslationRule> TranslationManager::find_rule(
    net::Endpoint peer_local, net::Endpoint mig_old) const {
  const auto it = pair_index_.find(Key2{pack_ep(peer_local), pack_ep(mig_old)});
  if (it == pair_index_.end() || it->second.empty()) return std::nullopt;
  return rules_.find(it->second.front())->second;
}

void TranslationManager::remove_matching(net::Endpoint peer_local,
                                         net::Endpoint mig_old) {
  const auto it = pair_index_.find(Key2{pack_ep(peer_local), pack_ep(mig_old)});
  if (it != pair_index_.end()) {
    const std::vector<std::uint64_t> ids = it->second;  // unlink mutates the bucket
    for (const std::uint64_t id : ids) {
      const auto rit = rules_.find(id);
      unlink_rule(id, rit->second);
      rules_.erase(rit);
    }
  }
  update_hooks();
}

void TranslationManager::update_hooks() {
  if (rules_.empty()) {
    out_hook_.release();
    in_hook_.release();
    return;
  }
  if (!out_hook_.registered()) {
    out_hook_ = stack_->netfilter().register_hook(
        stack::Hook::local_out, /*priority=*/0,
        [this](net::Packet& p) { return on_local_out(p); });
  }
  if (!in_hook_.registered()) {
    in_hook_ = stack_->netfilter().register_hook(
        stack::Hook::local_in, /*priority=*/-10,  // before any capture hook
        [this](net::Packet& p) { return on_local_in(p); });
  }
}

void TranslationManager::rewrite_out(const TranslationRule& rule, net::Packet& p) {
  // Incremental checksum update (RFC 1624): only the 32-bit destination
  // address changed, so the full pseudo-header + payload fold is unnecessary.
  const std::uint32_t old_addr = p.dst.value;
  p.dst = rule.mig_new_addr;
  p.checksum = net::checksum_adjust32(p.checksum, old_addr, p.dst.value);
  out_rewritten_ += 1;
}

void TranslationManager::rewrite_in(const TranslationRule& rule, net::Packet& p) {
  const std::uint32_t old_addr = p.src.value;
  p.src = rule.mig_old.addr;
  p.checksum = net::checksum_adjust32(p.checksum, old_addr, p.src.value);
  in_rewritten_ += 1;
}

stack::Verdict TranslationManager::on_local_out(net::Packet& p) {
  const auto it = out_index_.find(
      keyed(p.proto, net::Endpoint{p.src, p.sport()}, net::Endpoint{p.dst, p.dport()}));
  if (it != out_index_.end() && !it->second.empty()) {
    rewrite_out(rules_.find(it->second.front())->second, p);
  }
  return stack::Verdict::accept;
}

stack::Verdict TranslationManager::on_local_in(net::Packet& p) {
  const auto it = in_index_.find(
      keyed(p.proto, net::Endpoint{p.dst, p.dport()}, net::Endpoint{p.src, p.sport()}));
  if (it != in_index_.end() && !it->second.empty()) {
    rewrite_in(rules_.find(it->second.front())->second, p);
  }
  return stack::Verdict::accept;
}

}  // namespace dvemig::mig
