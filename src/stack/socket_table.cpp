#include "src/stack/socket_table.hpp"

#include <algorithm>

namespace dvemig::stack {

namespace {

constexpr std::size_t kEhashMinSlots = 8;

}  // namespace

std::size_t SocketTable::ehash_find(const FourTuple& key) const {
  const std::size_t mask = ehash_.size() - 1;
  std::size_t i = ehash_home(key);
  while (ehash_[i].sock != nullptr && ehash_[i].key != key) i = (i + 1) & mask;
  return i;
}

void SocketTable::ehash_grow() {
  std::vector<EhashSlot> old(std::max(kEhashMinSlots, ehash_.size() * 2));
  old.swap(ehash_);
  for (EhashSlot& slot : old) {
    if (slot.sock != nullptr) ehash_[ehash_find(slot.key)] = std::move(slot);
  }
}

void SocketTable::ehash_insert(const std::shared_ptr<TcpSocket>& sock,
                               const FourTuple& key) {
  DVEMIG_EXPECTS(sock != nullptr);
  if (2 * (ehash_size_ + 1) > ehash_.size()) ehash_grow();
  EhashSlot& slot = ehash_[ehash_find(key)];
  // Duplicate 4-tuples would mean two owners of a connection.
  DVEMIG_EXPECTS(slot.sock == nullptr);
  slot = EhashSlot{key, sock};
  ehash_size_ += 1;
  tcp_local_ports_[key.local.port] += 1;
}

void SocketTable::ehash_remove(const FourTuple& key) {
  DVEMIG_EXPECTS(ehash_size_ > 0);
  const std::size_t mask = ehash_.size() - 1;
  std::size_t hole = ehash_find(key);
  DVEMIG_EXPECTS(ehash_[hole].sock != nullptr);
  // Backward-shift deletion: pull each later member of the cluster into the
  // hole unless its home lies cyclically in (hole, j], where it must stay.
  for (std::size_t j = (hole + 1) & mask; ehash_[j].sock != nullptr; j = (j + 1) & mask) {
    const std::size_t home = ehash_home(ehash_[j].key);
    if (((j - home) & mask) < ((j - hole) & mask)) continue;
    ehash_[hole] = std::move(ehash_[j]);
    hole = j;
  }
  ehash_[hole] = EhashSlot{};
  ehash_size_ -= 1;
  auto it = tcp_local_ports_.find(key.local.port);
  DVEMIG_ASSERT(it != tcp_local_ports_.end());
  if (--it->second == 0) tcp_local_ports_.erase(it);
}

std::shared_ptr<TcpSocket> SocketTable::ehash_lookup(const FourTuple& key) const {
  if (ehash_size_ == 0) return nullptr;
  return ehash_[ehash_find(key)].sock;  // an empty slot holds a null socket
}

void SocketTable::bhash_insert(const std::shared_ptr<Socket>& sock, net::Port port) {
  DVEMIG_EXPECTS(sock != nullptr && port != 0);
  auto& bucket = bhash_[port];
  for (const auto& s : bucket) {
    // One bound socket per (port, protocol); no SO_REUSEPORT in this stack.
    DVEMIG_EXPECTS(s->type() != sock->type());
  }
  bucket.push_back(sock);
}

void SocketTable::bhash_remove(const Socket& sock, net::Port port) {
  auto it = bhash_.find(port);
  DVEMIG_EXPECTS(it != bhash_.end());
  auto& bucket = it->second;
  const auto pos = std::find_if(bucket.begin(), bucket.end(),
                                [&](const auto& s) { return s.get() == &sock; });
  DVEMIG_EXPECTS(pos != bucket.end());
  bucket.erase(pos);
  if (bucket.empty()) bhash_.erase(it);
}

std::vector<std::shared_ptr<Socket>> SocketTable::bhash_lookup(net::Port port) const {
  const auto it = bhash_.find(port);
  return it == bhash_.end() ? std::vector<std::shared_ptr<Socket>>{} : it->second;
}

bool SocketTable::port_bound(net::Port port, SocketType type) const {
  const auto it = bhash_.find(port);
  if (it == bhash_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const auto& s) { return s->type() == type; });
}

std::size_t SocketTable::bhash_size() const {
  std::size_t n = 0;
  for (const auto& [port, bucket] : bhash_) n += bucket.size();
  return n;
}

net::Port SocketTable::allocate_ephemeral_port(SocketType type) {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const net::Port candidate = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 65535 ? 49152 : next_ephemeral_ + 1;
    if (port_bound(candidate, type)) continue;
    if (type == SocketType::tcp && tcp_local_ports_.contains(candidate)) continue;
    return candidate;
  }
  DVEMIG_UNREACHABLE("ephemeral port space exhausted");
}

void SocketTable::for_each_established(
    const std::function<void(const FourTuple&, const std::shared_ptr<TcpSocket>&)>&
        fn) const {
  for (const EhashSlot& slot : ehash_) {
    if (slot.sock != nullptr) fn(slot.key, slot.sock);
  }
}

void SocketTable::for_each_bound(
    const std::function<void(net::Port, const std::shared_ptr<Socket>&)>& fn) const {
  for (const auto& [port, bucket] : bhash_) {
    for (const auto& sock : bucket) fn(port, sock);
  }
}

std::uint32_t SocketTable::tcp_local_port_refs(net::Port port) const {
  const auto it = tcp_local_ports_.find(port);
  return it == tcp_local_ports_.end() ? 0 : it->second;
}

void SocketTable::set_ephemeral_start(net::Port port) {
  DVEMIG_EXPECTS(port >= 49152);
  next_ephemeral_ = port;
}

}  // namespace dvemig::stack
