// Bytes against a flat model: random appends, fill runs, slices, moves,
// comparisons and expansions must leave the same logical bytes and the same
// internet-checksum sums as one flat Buffer, and a value of one real chunk
// must cost no more allocations than a shared payload did. cut_messages
// against a flat parser of the same stream.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "src/common/bytes.hpp"
#include "src/common/serial.hpp"
#include "src/net/checksum.hpp"

// Counting global allocator, in this test binary only (as in test_sim.cpp).
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dvemig {
namespace {

/// The logical bytes, without expanding anything in `b`.
Buffer flatten(const Bytes& b) {
  Buffer out;
  b.for_each_chunk(
      [&](std::span<const std::uint8_t> real) { out.insert(out.end(), real.begin(), real.end()); },
      [&](std::size_t n, std::uint8_t fill) { out.insert(out.end(), n, fill); });
  return out;
}

Buffer random_bytes(std::mt19937_64& rng, std::size_t n) {
  Buffer b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng());
  return b;
}

std::uint8_t random_fill(std::mt19937_64& rng) {
  constexpr std::uint8_t kFills[] = {0x00, 0xA5, 0xFF};
  return kFills[rng() % 3];
}

/// The model's bytes, chunked differently: real pieces in separate blocks,
/// each all-one-byte piece of the model as a run.
Bytes rechunk(const Buffer& model, std::mt19937_64& rng) {
  Bytes out;
  std::size_t at = 0;
  while (at < model.size()) {
    const std::size_t n = std::min<std::size_t>(model.size() - at, 1 + rng() % 700);
    const auto first = model.begin() + static_cast<std::ptrdiff_t>(at);
    const auto last = first + static_cast<std::ptrdiff_t>(n);
    if (std::all_of(first, last, [&](std::uint8_t v) { return v == *first; })) {
      out.append_run(n, *first);
    } else {
      out.append(Bytes(Buffer(first, last)));
    }
    at += n;
  }
  return out;
}

void expect_matches(const Bytes& b, const Buffer& model, std::mt19937_64& rng) {
  ASSERT_EQ(b.size(), model.size());
  ASSERT_EQ(flatten(b), model);
  // The sum at an even start offset, and behind one odd prefix byte.
  ASSERT_EQ(b.sum(), net::checksum_accumulate(model, 0));
  const auto lead = static_cast<std::uint8_t>(rng());
  Bytes odd(Buffer{lead});
  odd.append(b);
  Buffer odd_model{lead};
  odd_model.insert(odd_model.end(), model.begin(), model.end());
  ASSERT_EQ(odd.sum(), net::checksum_accumulate(odd_model, 0));
}

TEST(BytesTest, PropertyMatchesFlatModel) {
  constexpr std::size_t kMaxSize = 40'000;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Bytes b;
    Buffer model;
    for (int step = 0; step < 2'000; ++step) {
      const std::uint64_t before = payload_bytes_materialized();
      bool expands = false;
      switch (rng() % 10) {
        case 0: {  // append real bytes
          Buffer add = random_bytes(rng, rng() % 300);
          model.insert(model.end(), add.begin(), add.end());
          b.append(Bytes(std::move(add)));
          break;
        }
        case 1:
        case 2: {  // a fill run
          const std::size_t n = rng() % 9'001;
          const std::uint8_t fill = random_fill(rng);
          model.insert(model.end(), n, fill);
          b.append_run(n, fill);
          break;
        }
        case 3: {  // slice
          const std::size_t off = model.empty() ? 0 : rng() % (model.size() + 1);
          const std::size_t n = rng() % (model.size() - off + 1);
          b = b.slice(off, n);
          model = Buffer(model.begin() + static_cast<std::ptrdiff_t>(off),
                         model.begin() + static_cast<std::ptrdiff_t>(off + n));
          break;
        }
        case 4: {  // concatenate a slice of itself
          const std::size_t off = model.empty() ? 0 : rng() % model.size();
          const std::size_t n = rng() % (model.size() - off + 1);
          b.append(b.slice(off, n));
          const Buffer part(model.begin() + static_cast<std::ptrdiff_t>(off),
                            model.begin() + static_cast<std::ptrdiff_t>(off + n));
          model.insert(model.end(), part.begin(), part.end());
          if (rng() % 8 == 0) {  // and the whole of itself
            b.append(b);
            const Buffer whole = model;
            model.insert(model.end(), whole.begin(), whole.end());
          }
          break;
        }
        case 5: {  // move out and back; drop a prefix
          Bytes moved = std::move(b);
          b = std::move(moved);
          const std::size_t n = model.empty() ? 0 : rng() % (model.size() + 1);
          b.remove_prefix(n);
          model.erase(model.begin(), model.begin() + static_cast<std::ptrdiff_t>(n));
          break;
        }
        case 6: {  // equality with other chunkings, and a one-byte difference
          const Bytes other = rechunk(model, rng);
          EXPECT_TRUE(b == other);
          EXPECT_TRUE(b == Bytes(model));
          if (!model.empty()) {
            Buffer changed = model;
            changed[rng() % changed.size()] ^= 0x01;
            EXPECT_FALSE(b == rechunk(changed, rng));
          }
          break;
        }
        case 7: {  // read through a cursor: integers, skips and slices
          BinaryReader r(b);
          std::size_t at = 0;
          while (r.remaining() >= 8) {
            const std::size_t k = rng() % 4;
            if (k == 0) {
              std::uint32_t want = 0;
              for (std::size_t i = 0; i < 4; ++i) want |= std::uint32_t{model[at + i]} << (8 * i);
              ASSERT_EQ(r.u32(), want);
              at += 4;
            } else if (k == 1) {
              const std::size_t n = rng() % (r.remaining() + 1);
              r.skip(n);
              at += n;
            } else {
              const std::size_t n = rng() % std::min<std::size_t>(r.remaining() + 1, 5'000);
              const Bytes part = r.bytes(n);
              ASSERT_EQ(flatten(part),
                        Buffer(model.begin() + static_cast<std::ptrdiff_t>(at),
                               model.begin() + static_cast<std::ptrdiff_t>(at + n)));
              at += n;
            }
          }
          ASSERT_EQ(r.position(), at);
          break;
        }
        case 8: {  // expand: a flat view, then a write through the mutable accessor
          expands = true;
          const auto flat = b.view();
          ASSERT_EQ(Buffer(flat.begin(), flat.end()), model);
          if (!model.empty()) {
            const std::size_t i = rng() % model.size();
            b[i] ^= 0x5A;
            model[i] ^= 0x5A;
          }
          break;
        }
        default: {  // copy (shares blocks), then push_back on the copy only
          expands = true;
          Bytes copy = b;
          copy.push_back(0x42);
          Buffer grown = model;
          grown.push_back(0x42);
          ASSERT_EQ(flatten(copy), grown);
          break;
        }
      }
      if (!expands) {
        ASSERT_EQ(payload_bytes_materialized(), before) << "step " << step;
      }
      expect_matches(b, model, rng);
      if (model.size() > kMaxSize) {
        b = b.slice(model.size() - kMaxSize / 2, kMaxSize / 2);
        model.erase(model.begin(), model.end() - static_cast<std::ptrdiff_t>(kMaxSize / 2));
      }
    }
  }
}

// A value of one real chunk is what every DVE packet payload is: building it
// from a Buffer is one block allocation, as the shared payload it replaced,
// and copying, slicing, summing and viewing it allocate nothing.
TEST(BytesTest, OneRealChunkAllocatesLikeASharedPayload) {
  Buffer bytes(256, 0x5A);
  const std::size_t before = g_allocations;
  Bytes b(std::move(bytes));
  EXPECT_EQ(g_allocations - before, 1u);

  const std::size_t built = g_allocations;
  const Bytes copy = b;
  const Bytes part = b.slice(8, 200);
  const Bytes again = Bytes(copy);
  const std::uint32_t sum = part.sum();
  const std::size_t viewed = again.view().size();
  const std::size_t chunks = part.chunk_count();
  const std::size_t extra = g_allocations - built;
  EXPECT_EQ(extra, 0u);
  EXPECT_EQ(sum, net::checksum_accumulate(b.view().subspan(8, 200), 0));
  EXPECT_EQ(viewed, 256u);
  EXPECT_EQ(chunks, 1u);
  EXPECT_TRUE(copy.shares_storage_with(b));
}

// ------------------------------------------------------------ cut_messages

/// The bodies of the complete u32-length-prefixed messages at the front of
/// `flat`; `used` is where the first incomplete one starts.
std::vector<Buffer> parse_flat(const Buffer& flat, std::size_t& used) {
  std::vector<Buffer> out;
  used = 0;
  while (flat.size() - used >= 4) {
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i) len |= std::uint32_t{flat[used + i]} << (8 * i);
    if (flat.size() - used - 4 < len) break;
    const auto body = flat.begin() + static_cast<std::ptrdiff_t>(used + 4);
    out.emplace_back(body, body + len);
    used += 4 + len;
  }
  return out;
}

// Messages of random sizes (0, the cap and one below it among them) arrive
// split at random points and chunked with runs; the cutter must hand over the
// bodies a flat parser finds, keep exactly the incomplete tail, and refuse a
// length over the cap as soon as its four bytes are in, before its body.
TEST(CutMessagesTest, PropertyMatchesFlatParser) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto cap = static_cast<std::uint32_t>(1 + rng() % 600);
    BinaryWriter w;
    const std::size_t count = 1 + rng() % 40;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t pick = rng() % 4;
      const std::uint32_t n = pick == 0   ? 0
                              : pick == 1 ? cap
                              : pick == 2 ? cap - 1
                                          : static_cast<std::uint32_t>(rng() % (cap + 1));
      w.u32(n);
      if (rng() % 3 == 0) {
        w.repeat(n, random_fill(rng));
      } else {
        w.bytes(random_bytes(rng, n));
      }
    }
    // Then a length over the cap, with part of its body.
    const std::size_t over_at = w.size();
    const auto over = static_cast<std::uint32_t>(cap + 1 + rng() % 1000);
    w.u32(over);
    w.bytes(random_bytes(rng, std::min<std::size_t>(over - 1, rng() % 100)));
    const Buffer flat = w.take();

    Bytes capped;
    Bytes uncapped;
    std::vector<Buffer> got;
    std::vector<Buffer> got_uncapped;
    std::size_t fed = 0;
    while (fed < flat.size()) {
      const std::size_t n = std::min<std::size_t>(flat.size() - fed, 1 + rng() % 400);
      const auto first = flat.begin() + static_cast<std::ptrdiff_t>(fed);
      fed += n;
      const auto end = flat.begin() + static_cast<std::ptrdiff_t>(fed);
      const Bytes piece = rechunk(Buffer(first, end), rng);
      capped.append(piece);
      uncapped.append(piece);
      const bool whole = cut_messages(
          capped,
          [&](Bytes&& body) {
            got.push_back(flatten(body));
            return true;
          },
          cap);
      EXPECT_TRUE(cut_messages(uncapped, [&](Bytes&& body) {
        got_uncapped.push_back(flatten(body));
        return true;
      }));

      std::size_t used = 0;
      const std::vector<Buffer> expect = parse_flat(Buffer(flat.begin(), end), used);
      ASSERT_EQ(got, expect);
      ASSERT_EQ(got_uncapped, expect);
      ASSERT_EQ(flatten(capped), Buffer(flat.begin() + static_cast<std::ptrdiff_t>(used), end));
      ASSERT_EQ(uncapped.size(), capped.size());
      ASSERT_EQ(whole, fed < over_at + 4) << "fed " << fed;
    }
    EXPECT_EQ(got.size(), count);
  }
}

// One read of whole messages in one chunk is the common case (a DVE update,
// a DB response): the bodies are slices of that chunk, and cutting them, with
// a partial header left over, allocates nothing.
TEST(CutMessagesTest, WholeMessagesFromOneChunkAllocateNothing) {
  BinaryWriter w;
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    w.u32(252);
    w.u32(seq);
    w.repeat(248, 0x5A);
  }
  w.u8(252);
  w.u8(0);
  Bytes stream(w.take());
  ASSERT_EQ(stream.chunk_count(), 1u);

  std::uint32_t seq_sum = 0;
  std::size_t cut = 0;
  const std::size_t before = g_allocations;
  const bool whole = cut_messages(stream, [&](Bytes&& body) {
    BinaryReader r(body);
    seq_sum += r.u32();
    cut += body.size() == 252 ? 1 : 0;
    return true;
  });
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(whole);
  EXPECT_EQ(cut, 8u);
  EXPECT_EQ(seq_sum, 28u);
  EXPECT_EQ(stream.size(), 2u);
}

}  // namespace
}  // namespace dvemig
