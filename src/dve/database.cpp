#include "src/dve/database.hpp"

#include <algorithm>

namespace dvemig::dve {

DatabaseServer::DatabaseServer(proc::Node& node, DatabaseConfig config)
    : node_(&node), config_(config) {}

void DatabaseServer::start() {
  listener_ = node_->stack().make_tcp();
  listener_->bind(node_->local_addr(), config_.port);
  listener_->listen(256);
  listener_->set_on_accept_ready([this] { on_accept_ready(); });
}

void DatabaseServer::on_accept_ready() {
  while (auto conn = listener_->accept()) {
    auto session = std::make_shared<Session>();
    session->server = this;
    session->sock = std::move(conn);
    session->sock->set_on_readable([s = session.get()] { s->on_readable(); });
    session->sock->set_on_peer_closed([this, s = session.get()] {
      s->sock->close();
      std::erase_if(sessions_, [s](const auto& e) { return e.get() == s; });
    });
    session->sock->set_on_reset([this, s = session.get()] {
      std::erase_if(sessions_, [s](const auto& e) { return e.get() == s; });
    });
    sessions_.push_back(std::move(session));
  }
}

void DatabaseServer::Session::on_readable() {
  rx.append(sock->read_bytes());
  cut_messages(rx, [this](Bytes&&) {
    server->queries_ += 1;
    server->node_->engine().schedule_after(
        server->config_.processing_delay, [self = shared_from_this()] {
          if (self->sock->state() != stack::TcpState::established) return;
          const std::size_t body = self->server->config_.response_bytes;
          BinaryWriter w;
          w.reserve(4 + body);
          w.u32(static_cast<std::uint32_t>(body));
          w.repeat(body, 0x42);
          self->sock->send(w.take());
        });
    return true;
  });
}

}  // namespace dvemig::dve
