#include "src/common/serial.hpp"

namespace dvemig {

// Out of line on purpose: inlined right after append_le's push_backs, the
// range insert trips false GCC 12 -O3 -Warray-bounds / -Wstringop-overflow
// reports about the freshly grown buffer.
void BinaryWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace dvemig
