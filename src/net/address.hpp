// IPv4 addressing for the simulated cluster and internet.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "src/common/assert.hpp"

namespace dvemig::net {

struct Ipv4Addr {
  std::uint32_t value{0};  // host byte order

  static constexpr Ipv4Addr any() { return Ipv4Addr{0}; }
  static constexpr Ipv4Addr broadcast() { return Ipv4Addr{0xFFFFFFFFu}; }

  static constexpr Ipv4Addr octets(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                                   std::uint8_t d) {
    return Ipv4Addr{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                    (std::uint32_t{c} << 8) | std::uint32_t{d}};
  }

  std::string to_string() const {
    return std::to_string((value >> 24) & 0xFF) + "." + std::to_string((value >> 16) & 0xFF) +
           "." + std::to_string((value >> 8) & 0xFF) + "." + std::to_string(value & 0xFF);
  }

  constexpr bool is_broadcast() const { return value == 0xFFFFFFFFu; }
  constexpr auto operator<=>(const Ipv4Addr&) const = default;
};

using Port = std::uint16_t;

struct Endpoint {
  Ipv4Addr addr{};
  Port port{0};

  std::string to_string() const { return addr.to_string() + ":" + std::to_string(port); }
  constexpr auto operator<=>(const Endpoint&) const = default;

  /// Wire form (src/common/serial.hpp): u32 address, u16 port.
  template <class Io, class Self>
  static void fields(Io& io, Self& e) {
    io.u32(e.addr.value);
    io.u16(e.port);
  }
};

}  // namespace dvemig::net

template <>
struct std::hash<dvemig::net::Ipv4Addr> {
  std::size_t operator()(const dvemig::net::Ipv4Addr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value);
  }
};

template <>
struct std::hash<dvemig::net::Endpoint> {
  std::size_t operator()(const dvemig::net::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}((std::uint64_t{e.addr.value} << 16) ^ e.port);
  }
};
