// MySQL-stand-in database server (Section II-A: "Database servers may store
// persistent state information, which is in turn accessed by the zone server
// processes").
//
// Protocol: length-prefixed requests (u32 len | payload); each request earns a
// length-prefixed response after a fixed processing delay. Runs on its own cluster
// node reachable over the local network — which makes every zone server's DB
// session an *in-cluster* connection that must survive migration via the
// translation-filter mechanism.
#pragma once

#include <memory>
#include <vector>

#include "src/proc/node.hpp"
#include "src/stack/tcp_socket.hpp"

namespace dvemig::dve {

inline constexpr net::Port kDbPort = 3306;

struct DatabaseConfig {
  net::Port port{kDbPort};
  SimDuration processing_delay{SimTime::microseconds(200)};
  std::size_t response_bytes{64};
};

class DatabaseServer {
 public:
  DatabaseServer(proc::Node& node, DatabaseConfig config = {});

  void start();

  std::uint64_t queries_served() const { return queries_; }
  std::size_t active_sessions() const { return sessions_.size(); }

 private:
  struct Session : std::enable_shared_from_this<Session> {
    DatabaseServer* server{nullptr};
    stack::TcpSocket::Ptr sock;
    Bytes rx;  // received bytes not yet cut into requests

    void on_readable();
  };

  void on_accept_ready();

  proc::Node* node_;
  DatabaseConfig config_;
  stack::TcpSocket::Ptr listener_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::uint64_t queries_{0};
};

}  // namespace dvemig::dve
