// Linear-scan oracle models of the two per-packet migration filters
// (DESIGN.md §12.1, §12.2). They are the pre-index semantics, kept out of
// src/ so the hash-indexed CaptureManager and TranslationManager each have a
// single matching path: the property tests in test_hot_paths.cpp drive the
// real filter and the model with one random operation sequence and demand
// identical decisions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "src/mig/socket_image.hpp"
#include "src/mig/translation.hpp"

namespace dvemig::mig::oracle {

/// Capture: walk sessions in id order, then each session's specs in install
/// order; the first matching spec steals. TCP dedup is one set per session
/// over (remote addr, remote port, local port, seq), regardless of which spec
/// matched.
class CaptureOracle {
 public:
  void begin_session(std::uint64_t id) { sessions_[id]; }
  void add_spec(std::uint64_t id, const CaptureSpec& spec) {
    sessions_.at(id).specs.push_back(spec);
  }
  /// Drop the session; returns its queue, as finish_session reinjects it.
  std::vector<net::Packet> end_session(std::uint64_t id) {
    const auto it = sessions_.find(id);
    std::vector<net::Packet> queue = std::move(it->second.queue);
    sessions_.erase(it);
    return queue;
  }

  /// True if the packet is stolen (queued or suppressed as a duplicate).
  bool offer(const net::Packet& p) {
    for (auto& [id, session] : sessions_) {
      for (const CaptureSpec& spec : session.specs) {
        if (!spec.matches(p)) continue;
        if (p.proto == net::IpProto::tcp &&
            !session.seen_tcp.emplace(p.src.value, p.sport(), p.dport(), p.tcp.seq)
                 .second) {
          deduplicated_ += 1;
          return true;
        }
        captured_ += 1;
        session.queue.push_back(p);
        return true;
      }
    }
    return false;
  }

  const std::vector<net::Packet>& queue(std::uint64_t id) const {
    return sessions_.at(id).queue;
  }
  std::uint64_t captured() const { return captured_; }
  std::uint64_t deduplicated() const { return deduplicated_; }

 private:
  struct Session {
    std::vector<CaptureSpec> specs;
    std::vector<net::Packet> queue;
    std::set<std::tuple<std::uint32_t, std::uint16_t, std::uint16_t, std::uint32_t>>
        seen_tcp;
  };
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t captured_{0};
  std::uint64_t deduplicated_{0};
};

/// Translation: rules in id order, the oldest first. Install composes with
/// the first rule whose output address is the new rule's origin (ORIG -> X
/// plus X -> Y becomes ORIG -> Y; ORIG -> ORIG dissolves). Each hook rewrites
/// with the first rule whose tuple the packet carries.
class TranslationOracle {
 public:
  void install(const TranslationRule& rule) {
    for (auto it = rules_.begin(); it != rules_.end(); ++it) {
      TranslationRule& existing = it->second;
      if (existing.proto != rule.proto || existing.peer_local != rule.peer_local ||
          existing.mig_old.port != rule.mig_old.port ||
          existing.mig_new_addr != rule.mig_old.addr) {
        continue;
      }
      existing.mig_new_addr = rule.mig_new_addr;
      if (existing.mig_old.addr == existing.mig_new_addr) rules_.erase(it);
      return;
    }
    rules_.emplace(++next_id_, rule);
  }

  void remove_matching(net::Endpoint peer_local, net::Endpoint mig_old) {
    std::erase_if(rules_, [&](const auto& entry) {
      return entry.second.peer_local == peer_local && entry.second.mig_old == mig_old;
    });
  }

  std::optional<TranslationRule> find_rule(net::Endpoint peer_local,
                                           net::Endpoint mig_old) const {
    for (const auto& [id, rule] : rules_) {
      if (rule.peer_local == peer_local && rule.mig_old == mig_old) return rule;
    }
    return std::nullopt;
  }

  /// The destination LOCAL_OUT leaves on the packet.
  net::Ipv4Addr local_out_dst(const net::Packet& p) const {
    for (const auto& [id, rule] : rules_) {
      if (p.proto == rule.proto && p.src == rule.peer_local.addr &&
          p.sport() == rule.peer_local.port && p.dst == rule.mig_old.addr &&
          p.dport() == rule.mig_old.port) {
        return rule.mig_new_addr;
      }
    }
    return p.dst;
  }

  /// The source LOCAL_IN leaves on the packet.
  net::Ipv4Addr local_in_src(const net::Packet& p) const {
    for (const auto& [id, rule] : rules_) {
      if (p.proto == rule.proto && p.dst == rule.peer_local.addr &&
          p.dport() == rule.peer_local.port && p.src == rule.mig_new_addr &&
          p.sport() == rule.mig_old.port) {
        return rule.mig_old.addr;
      }
    }
    return p.src;
  }

  const std::map<std::uint64_t, TranslationRule>& rules() const { return rules_; }

 private:
  std::map<std::uint64_t, TranslationRule> rules_;
  std::uint64_t next_id_{0};
};

}  // namespace dvemig::mig::oracle
