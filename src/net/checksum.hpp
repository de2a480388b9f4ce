// Internet (ones'-complement) checksum, including the RFC 1624 incremental update
// used by the in-cluster translation filter when it rewrites an IP address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dvemig::net {

/// Plain internet checksum over a byte span (RFC 1071).
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// Fold a 32-bit accumulated sum into a 16-bit ones'-complement checksum.
std::uint16_t fold_checksum(std::uint32_t sum);

/// Add a span, read as big-endian 16-bit words (an odd last byte padded with
/// zero), to the running ones'-complement sum `sum`; returns the sum folded to
/// 16 bits. The only summing loop in the tree: it adds 8 bytes per step.
std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data, std::uint32_t sum);

/// checksum_accumulate over `n` copies of `fill`, in O(1): n/2 words of
/// fill * 0x0101, plus `fill` in a high byte when n is odd.
std::uint32_t checksum_accumulate_run(std::size_t n, std::uint8_t fill, std::uint32_t sum);

/// RFC 1624 incremental update: given the old checksum and a 32-bit field that changed
/// from `old_value` to `new_value`, return the corrected checksum without re-summing
/// the whole packet. This is exactly what the translation filter does to the TCP
/// checksum after rewriting the IP header.
std::uint16_t checksum_adjust32(std::uint16_t checksum, std::uint32_t old_value,
                                std::uint32_t new_value);

}  // namespace dvemig::net
