// In-cluster local address translation (Sections III-C, V-D).
//
// Installed on the *peer* host of a migrated in-cluster connection (e.g. the MySQL
// server). Two netfilter hooks:
//   LOCAL_OUT — packets this host sends to the connection's original address IP1
//               are rewritten to the migration destination IP2;
//   LOCAL_IN  — packets arriving from IP2 have their source rewritten back to IP1,
//               so the local socket never notices the move.
//
// Both rewrites update the transport checksum incrementally (RFC 1624), and the
// install replaces the local socket's destination-cache entry — without which
// outgoing frames would still be steered to IP1 (the Section V-D pitfall; the
// `fix_dst_cache` switch exists so the ablation benchmark can demonstrate it).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/checksum.hpp"
#include "src/stack/net_stack.hpp"

namespace dvemig::mig {

struct TranslationRule {
  net::IpProto proto{net::IpProto::tcp};
  net::Endpoint peer_local{};   // this host's socket endpoint (IP3:portB)
  net::Endpoint mig_old{};      // migrated socket's original endpoint (IP1:portA)
  net::Ipv4Addr mig_new_addr{}; // migration destination (IP2)

  template <class Io, class Self>
  static void fields(Io& io, Self& rule) {
    io.u8(rule.proto);
    io.rec(rule.peer_local);
    io.rec(rule.mig_old);
    io.u32(rule.mig_new_addr.value);
  }
  void serialize(BinaryWriter& w) const { put(w, *this); }
};

class TranslationManager {
 public:
  explicit TranslationManager(stack::NetStack& stack) : stack_(&stack) {}

  /// Install a translation rule; returns a rule id for removal.
  std::uint64_t install(TranslationRule rule, bool fix_dst_cache = true);
  void remove(std::uint64_t rule_id);

  /// Find the rule translating the connection of the local socket with endpoint
  /// `peer_local` toward original remote `mig_old`, if any. Used when a process
  /// that is itself the peer of a previously migrated connection migrates: the
  /// rule reveals where the other end really lives now.
  std::optional<TranslationRule> find_rule(net::Endpoint peer_local,
                                           net::Endpoint mig_old) const;

  /// Remove rules for one connection (cleanup after their subject moved away).
  void remove_matching(net::Endpoint peer_local, net::Endpoint mig_old);

  std::size_t active_rules() const { return rules_.size(); }
  std::uint64_t out_rewritten() const { return out_rewritten_; }
  std::uint64_t in_rewritten() const { return in_rewritten_; }

 private:
  // Rules are matched by exact tuples, so each hot path is one hash probe
  // (DESIGN.md §12). Keys pack (proto, endpoint, endpoint) into two words;
  // bucket values are rule ids kept in ascending order, so the oldest rule
  // wins — a deterministic refinement of the old first-in-map-order walk,
  // which survives as the property-test oracle in tests/filter_oracles.hpp.
  using Key2 = std::pair<std::uint64_t, std::uint64_t>;
  struct Key2Hash {
    std::size_t operator()(const Key2& k) const {
      std::uint64_t h = k.first * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
      h = (h + k.second) * 0xBF58476D1CE4E5B9ULL;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  using RuleIndex = std::unordered_map<Key2, std::vector<std::uint64_t>, Key2Hash>;

  static std::uint64_t pack_ep(net::Endpoint e) {
    return static_cast<std::uint64_t>(e.addr.value) << 16 | e.port;
  }
  static Key2 keyed(net::IpProto proto, net::Endpoint a, net::Endpoint b) {
    return {static_cast<std::uint64_t>(proto) << 48 | pack_ep(a), pack_ep(b)};
  }

  stack::Verdict on_local_out(net::Packet& p);
  stack::Verdict on_local_in(net::Packet& p);
  void rewrite_out(const TranslationRule& rule, net::Packet& p);
  void rewrite_in(const TranslationRule& rule, net::Packet& p);
  void link_rule(std::uint64_t id, const TranslationRule& rule);
  void unlink_rule(std::uint64_t id, const TranslationRule& rule);
  void update_hooks();
  void fix_cache(const TranslationRule& rule);

  stack::NetStack* stack_;
  std::unordered_map<std::uint64_t, TranslationRule> rules_;
  // LOCAL_OUT: (proto, peer_local, mig_old) — the tuple an outgoing packet
  // carries before rewriting.
  RuleIndex out_index_;
  // LOCAL_IN: (proto, peer_local, {mig_new_addr, mig_old.port}) — the tuple an
  // incoming packet carries before rewriting. Doubles as the chained-install
  // lookup: the rule to compose with is the one whose *output* address equals
  // the new rule's origin, which is exactly this key.
  RuleIndex in_index_;
  // Protoless (peer_local, mig_old) for find_rule / remove_matching.
  RuleIndex pair_index_;
  std::uint64_t next_rule_{0};
  stack::HookHandle out_hook_;
  stack::HookHandle in_hook_;
  std::uint64_t out_rewritten_{0};
  std::uint64_t in_rewritten_{0};
};

}  // namespace dvemig::mig
