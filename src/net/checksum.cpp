#include "src/net/checksum.hpp"

#include <bit>
#include <cstring>

namespace dvemig::net {

namespace {

// End-around-carry fold of a wide ones'-complement sum down to 16 bits. Never
// turns a non-zero sum into zero, so it preserves the value mod 0xFFFF and
// the all-zero case alike.
std::uint32_t fold16(std::uint64_t sum) {
  sum = (sum & 0xFFFFFFFF) + (sum >> 32);
  sum = (sum & 0xFFFFFFFF) + (sum >> 32);
  sum = (sum & 0xFFFF) + (sum >> 16);
  sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint32_t>(sum);
}

}  // namespace

// RFC 1071 §2(B)/(C): the ones'-complement sum is independent of byte order
// up to one final swap, and carries can be deferred into a wider accumulator.
// So add the data as native-order 8-byte words, each split into two 32-bit
// halves (the 64-bit accumulator holds 2^31 such words, 16 GiB, before a
// carry could be lost), fold, and swap once into the network-order result. A short tail is zero-padded into
// one more word: its odd last byte then lands in the high half of its 16-bit
// word, as RFC 1071 pads it.
std::uint32_t checksum_accumulate(std::span<const std::uint8_t> data, std::uint32_t sum) {
  std::uint64_t acc = 0;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    acc += (w & 0xFFFFFFFF) + (w >> 32);
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    acc += (w & 0xFFFFFFFF) + (w >> 32);
  }
  std::uint32_t folded = fold16(acc);
  if constexpr (std::endian::native == std::endian::little) {
    folded = ((folded & 0xFF) << 8) | (folded >> 8);
  }
  return fold16(std::uint64_t{folded} + sum);
}

std::uint32_t checksum_accumulate_run(std::size_t n, std::uint8_t fill, std::uint32_t sum) {
  // At most 2^63 words of at most 0xFFFF: fold the count first so the product
  // cannot wrap.
  const std::uint64_t words = fold16(n / 2);
  std::uint64_t acc = words * (std::uint64_t{fill} * 0x0101);
  if (n % 2 != 0) acc += std::uint64_t{fill} << 8;
  return fold16(fold16(acc) + std::uint64_t{sum});
}

std::uint16_t fold_checksum(std::uint32_t sum) {
  return static_cast<std::uint16_t>(~fold16(sum) & 0xFFFF);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return fold_checksum(checksum_accumulate(data, 0));
}

std::uint16_t checksum_adjust32(std::uint16_t checksum, std::uint32_t old_value,
                                std::uint32_t new_value) {
  // RFC 1624: HC' = ~(~HC + ~m + m'), computed 16 bits at a time.
  std::uint32_t sum = static_cast<std::uint16_t>(~checksum);
  sum += static_cast<std::uint16_t>(~(old_value >> 16) & 0xFFFF);
  sum += static_cast<std::uint16_t>(~old_value & 0xFFFF);
  sum += (new_value >> 16) & 0xFFFF;
  sum += new_value & 0xFFFF;
  return fold_checksum(sum);
}

}  // namespace dvemig::net
