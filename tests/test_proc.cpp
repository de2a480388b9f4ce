// Tests for the process/OS substrate: address spaces and dirty tracking, fd
// tables, CPU metering, processes and nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/proc/node.hpp"
#include "src/stack/udp_socket.hpp"

namespace dvemig::proc {
namespace {

TEST(AddressSpaceTest, MmapAlignsAndMarksDirty) {
  AddressSpace mem;
  const std::uint64_t start = mem.mmap(10'000, prot_read | prot_write, "[heap]");
  EXPECT_EQ(start % kPageSize, 0u);
  const VmArea* area = mem.find_area(start);
  ASSERT_NE(area, nullptr);
  EXPECT_EQ(area->length, 12'288u);  // rounded to 3 pages
  EXPECT_EQ(mem.dirty_pages(), 3u);  // fresh anonymous memory is all dirty
}

TEST(AddressSpaceTest, FileBackedPagesStartClean) {
  AddressSpace mem;
  mem.mmap(8 * kPageSize, prot_read | prot_exec, "libfoo.so", /*file_backed=*/true);
  EXPECT_EQ(mem.dirty_pages(), 0u);  // nothing to checkpoint: contents on disk
  mem.mmap(2 * kPageSize, prot_read | prot_write, "[heap]");
  EXPECT_EQ(mem.dirty_pages(), 2u);
}

TEST(AddressSpaceTest, CollectAndClearResetsDirtyBits) {
  AddressSpace mem;
  const std::uint64_t start = mem.mmap(4 * kPageSize, prot_read | prot_write, "x");
  auto pages = mem.collect_and_clear_dirty();
  EXPECT_EQ(pages.size(), 4u);
  EXPECT_EQ(mem.dirty_pages(), 0u);
  mem.touch(start + kPageSize + 5, 1);
  pages = mem.collect_and_clear_dirty();
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_EQ(pages[0], start / kPageSize + 1);
}

TEST(AddressSpaceTest, TouchSpanningPages) {
  AddressSpace mem;
  const std::uint64_t start = mem.mmap(4 * kPageSize, prot_read | prot_write, "x");
  (void)mem.collect_and_clear_dirty();
  mem.touch(start + kPageSize - 1, 2);  // straddles pages 0 and 1
  EXPECT_EQ(mem.dirty_pages(), 2u);
}

TEST(AddressSpaceTest, TouchRandomDirtiesWritablePagesOnly) {
  AddressSpace mem;
  mem.mmap(16 * kPageSize, prot_read | prot_exec, "code", true);
  const std::uint64_t heap = mem.mmap(16 * kPageSize, prot_read | prot_write, "h");
  (void)mem.collect_and_clear_dirty();
  Rng rng(1);
  mem.touch_random(rng, 64);
  for (const std::uint64_t p : mem.collect_and_clear_dirty()) {
    EXPECT_GE(p, heap / kPageSize);
  }
}

TEST(AddressSpaceTest, MunmapRemovesAreaAndDirtyBits) {
  AddressSpace mem;
  const std::uint64_t a = mem.mmap(2 * kPageSize, prot_read | prot_write, "a");
  const std::uint64_t b = mem.mmap(2 * kPageSize, prot_read | prot_write, "b");
  mem.munmap(a);
  EXPECT_EQ(mem.find_area(a), nullptr);
  EXPECT_NE(mem.find_area(b), nullptr);
  EXPECT_EQ(mem.dirty_pages(), 2u);  // only b's pages remain
  EXPECT_EQ(mem.total_pages(), 2u);
}

TEST(AddressSpaceTest, MapFixedRestoresExactLayoutWithoutDirtying) {
  AddressSpace src;
  const std::uint64_t start = src.mmap(4 * kPageSize, prot_read | prot_write, "x");
  AddressSpace dst;
  dst.map_fixed(*src.find_area(start));
  const VmArea* area = dst.find_area(start);
  ASSERT_NE(area, nullptr);
  EXPECT_EQ(area->length, 4 * kPageSize);
  EXPECT_EQ(dst.dirty_pages(), 0u);  // restored pages arrive clean
  // Subsequent mmap must not collide with the restored area.
  const std::uint64_t next = dst.mmap(kPageSize, prot_read | prot_write, "y");
  EXPECT_GE(next, start + 4 * kPageSize);
}

TEST(AddressSpaceTest, MprotectChangesBits) {
  AddressSpace mem;
  const std::uint64_t a = mem.mmap(kPageSize, prot_read | prot_write, "a");
  mem.mprotect(a, prot_read);
  EXPECT_EQ(mem.find_area(a)->prot, static_cast<std::uint32_t>(prot_read));
}

// Reference model of an address space with the dirty bits in a std::set and
// touch_random walking the writable areas linearly, one draw per page.
struct AddressSpaceModel {
  std::vector<VmArea> areas;  // sorted by start
  std::set<std::uint64_t> dirty;
  std::uint64_t next_addr{0x10000};

  void insert(const VmArea& a) {
    areas.insert(std::upper_bound(areas.begin(), areas.end(), a,
                                  [](const VmArea& x, const VmArea& y) {
                                    return x.start < y.start;
                                  }),
                 a);
  }
  std::uint64_t mmap(std::uint64_t length, std::uint32_t prot, bool file_backed) {
    length = (length + kPageSize - 1) / kPageSize * kPageSize;
    const std::uint64_t start = next_addr;
    next_addr += length + kPageSize;
    insert(VmArea{start, length, prot, file_backed, "m"});
    if (!file_backed) {
      for (std::uint64_t p = start / kPageSize; p < (start + length) / kPageSize; ++p) {
        dirty.insert(p);
      }
    }
    return start;
  }
  void map_fixed(const VmArea& a) {
    insert(a);
    next_addr = std::max(next_addr, a.end() + kPageSize);
  }
  VmArea* find(std::uint64_t addr) {
    for (VmArea& a : areas) {
      if (a.contains(addr)) return &a;
    }
    return nullptr;
  }
  void munmap(std::uint64_t start) {
    const auto it = std::find_if(areas.begin(), areas.end(),
                                 [&](const VmArea& a) { return a.start == start; });
    for (std::uint64_t p = it->start / kPageSize; p < it->end() / kPageSize; ++p) {
      dirty.erase(p);
    }
    areas.erase(it);
  }
  void touch(std::uint64_t addr, std::uint64_t len) {
    for (std::uint64_t p = addr / kPageSize; p <= (addr + len - 1) / kPageSize; ++p) {
      dirty.insert(p);
    }
  }
  void touch_random(Rng& rng, std::uint64_t count) {
    std::uint64_t total = 0;
    for (const VmArea& a : areas) {
      if ((a.prot & prot_write) != 0) total += a.pages();
    }
    if (total == 0) return;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t k = rng.next_below(total);
      for (const VmArea& a : areas) {
        if ((a.prot & prot_write) == 0) continue;
        if (k < a.pages()) {
          dirty.insert(a.start / kPageSize + k);
          break;
        }
        k -= a.pages();
      }
    }
  }
  std::vector<std::uint64_t> collect_and_clear() {
    std::vector<std::uint64_t> out(dirty.begin(), dirty.end());
    dirty.clear();
    return out;
  }
};

TEST(AddressSpaceTest, PropertyBitmapsMatchSetModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AddressSpace mem;
    AddressSpaceModel ref;
    Rng ops(seed);
    Rng mem_rng(seed * 7919);
    Rng ref_rng(seed * 7919);
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
      const std::uint64_t op = ref.areas.empty() ? 0 : ops.next_below(7);
      const auto pick = [&]() -> const VmArea& {
        return ref.areas[static_cast<std::size_t>(ops.next_below(ref.areas.size()))];
      };
      switch (op) {
        case 0: {  // mmap: 1-200 pages, sometimes unaligned, sometimes read-only
          const std::uint64_t len = 1 + ops.next_below(200 * kPageSize);
          const std::uint32_t prot = ops.chance(0.25) ? prot_read : prot_read | prot_write;
          const bool file = ops.chance(0.2);
          ASSERT_EQ(mem.mmap(len, prot, "m", file), ref.mmap(len, prot, file));
          break;
        }
        case 1: {  // map_fixed into a free range past the last area
          const VmArea a{ref.next_addr + kPageSize * ops.next_below(4),
                         kPageSize * (1 + ops.next_below(130)),
                         ops.chance(0.5) ? prot_read | prot_write : prot_read, false, "f"};
          mem.map_fixed(a);
          ref.map_fixed(a);
          break;
        }
        case 2: {
          const std::uint64_t start = pick().start;
          mem.munmap(start);
          ref.munmap(start);
          break;
        }
        case 3: {
          const std::uint64_t start = pick().start;
          const std::uint32_t prot = ops.chance(0.5) ? prot_read : prot_read | prot_write;
          mem.mprotect(start, prot);
          ref.find(start)->prot = prot;
          break;
        }
        case 4: {  // touch a span inside one writable area
          const VmArea& a = pick();
          if ((a.prot & prot_write) == 0) break;
          const std::uint64_t at = a.start + ops.next_below(a.length);
          const std::uint64_t len = 1 + ops.next_below(a.end() - at);
          mem.touch(at, len);
          ref.touch(at, len);
          break;
        }
        case 5: {
          const std::uint64_t count = ops.next_below(300);
          mem.touch_random(mem_rng, count);
          ref.touch_random(ref_rng, count);
          break;
        }
        default:
          ASSERT_EQ(mem.collect_and_clear_dirty(), ref.collect_and_clear());
          break;
      }
      ASSERT_EQ(mem.dirty_pages(), ref.dirty.size());
      ASSERT_EQ(mem.areas().size(), ref.areas.size());
    }
    EXPECT_EQ(mem.collect_and_clear_dirty(), ref.collect_and_clear());
    EXPECT_EQ(mem_rng.next_u64(), ref_rng.next_u64());  // same number of draws
  }
}

TEST(AddressSpaceTest, TouchRandomDrawSequencePinned) {
  // Writable areas are drawn from in start order, skipping read-only ones, with
  // one next_below(total writable pages) draw per page.
  AddressSpace mem;
  const std::uint64_t a = mem.mmap(40 * kPageSize, prot_read | prot_write, "a");
  mem.mmap(5 * kPageSize, prot_read, "ro");
  const std::uint64_t b = mem.mmap(70 * kPageSize, prot_read | prot_write, "b");
  (void)mem.collect_and_clear_dirty();
  Rng rng(42);
  mem.touch_random(rng, 10);
  std::vector<std::uint64_t> offsets;
  for (const std::uint64_t p : mem.collect_and_clear_dirty()) {
    offsets.push_back(p >= b / kPageSize ? 1000 + p - b / kPageSize : p - a / kPageSize);
  }
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{9, 1001, 1024, 1034, 1039, 1043, 1044, 1053, 1061, 1069}));
}

TEST(FileTableTest, OpenCloseAndLowestFdReuse) {
  FileTable files;
  const Fd f1 = files.open_file("/a");
  const Fd f2 = files.open_file("/b");
  const Fd f3 = files.open_file("/c");
  EXPECT_EQ(f2, f1 + 1);
  files.close(f2);
  EXPECT_EQ(files.open_file("/d"), f2);  // POSIX lowest-free-fd
  EXPECT_TRUE(files.has(f3));
  EXPECT_EQ(files.get(f1).path, "/a");
}

TEST(FileTableTest, SeekUpdatesOffset) {
  FileTable files;
  const Fd fd = files.open_file("/log");
  files.seek(fd, 4096);
  EXPECT_EQ(files.get(fd).offset, 4096u);
}

TEST(FileTableTest, RestorePathPreservesFds) {
  FileTable files;
  files.open_file_at(7, "/var/x", 100, 2);
  EXPECT_EQ(files.get(7).offset, 100u);
  const Fd fd = files.open_file("/y");
  EXPECT_NE(fd, 7);
}

TEST(FileTableTest, PropertyLowestFreeMatchesRescanModel) {
  // The reference is the rescan allocator: a hint lowered by every close and
  // advanced past open fds one at a time.
  sim::Engine engine;
  stack::NetStack host(engine, "h", SimDuration{});
  const auto sock = host.make_udp();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FileTable files;
    std::set<Fd> open;
    Fd hint = 3;
    Rng ops(seed);
    for (int step = 0; step < 2000; ++step) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
      const std::uint64_t op = ops.next_below(10);
      if (op < 5 || open.empty()) {
        while (open.contains(hint)) ++hint;
        const Fd expect = hint++;
        const Fd got = op % 2 == 0 ? files.open_file("/f") : files.attach_socket(sock);
        ASSERT_EQ(got, expect);
        open.insert(got);
      } else if (op < 8) {
        auto it = open.begin();
        std::advance(it, static_cast<long>(ops.next_below(open.size())));
        const Fd fd = *it;
        files.close(fd);
        open.erase(it);
        if (fd < hint) hint = fd;
      } else {
        // Restore path: a chosen fd, now and then below stdio's 3 or far above.
        const Fd fd = static_cast<Fd>(ops.chance(0.1) ? ops.next_below(3)
                                                      : ops.next_below(600));
        if (open.contains(fd)) continue;
        if (op == 8) {
          files.open_file_at(fd, "/r", 0, 0);
        } else {
          files.attach_socket_at(fd, sock);
        }
        open.insert(fd);
      }
      ASSERT_EQ(files.size(), open.size());
    }
  }
}

TEST(CpuMeterTest, WindowedUtilization) {
  sim::Engine engine;
  CpuMeter meter(engine, 2.0);  // dual core
  meter.start();
  const Pid p{42};
  // 1.0 core-seconds of work during the first 1 s window on a 2-core node.
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(SimTime::milliseconds(100 * i),
                       [&] { meter.account(p, SimTime::milliseconds(100)); });
  }
  engine.run_until(SimTime::milliseconds(1100));
  EXPECT_NEAR(meter.node_utilization(), 0.5, 1e-9);
  EXPECT_NEAR(meter.process_cores(p), 1.0, 1e-9);
}

TEST(CpuMeterTest, DemandCanExceedCapacityButUtilizationCaps) {
  sim::Engine engine;
  CpuMeter meter(engine, 2.0);
  meter.start();
  engine.schedule_at(SimTime::milliseconds(10),
                     [&] { meter.account(Pid{1}, SimTime::milliseconds(3000)); });
  engine.run_until(SimTime::milliseconds(1100));
  EXPECT_NEAR(meter.node_demand(), 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(meter.node_utilization(), 1.0);
}

TEST(CpuMeterTest, WindowRollsOver) {
  sim::Engine engine;
  CpuMeter meter(engine, 1.0);
  meter.start();
  engine.schedule_at(SimTime::milliseconds(100),
                     [&] { meter.account(Pid{1}, SimTime::milliseconds(500)); });
  engine.run_until(SimTime::milliseconds(1100));
  EXPECT_NEAR(meter.node_utilization(), 0.5, 1e-9);
  engine.run_until(SimTime::milliseconds(2100));  // idle second window
  EXPECT_NEAR(meter.node_utilization(), 0.0, 1e-9);
}

struct NodeFixture : ::testing::Test {
  sim::Engine engine;
  NodeConfig config{NodeId{1},
                    "n1",
                    net::Ipv4Addr::octets(203, 0, 113, 10),
                    net::Ipv4Addr::octets(192, 168, 1, 10),
                    2.0,
                    SimTime::seconds(100)};
  Node node{engine, config};
};

TEST_F(NodeFixture, SpawnFindKill) {
  auto proc = node.spawn("zoned");
  EXPECT_EQ(node.find(proc->pid()), proc);
  EXPECT_EQ(node.processes().size(), 1u);
  node.kill(proc->pid());
  EXPECT_EQ(node.find(proc->pid()), nullptr);
}

TEST_F(NodeFixture, PidsAreClusterUnique) {
  auto p1 = node.spawn("a");
  auto p2 = node.spawn("b");
  EXPECT_NE(p1->pid(), p2->pid());
}

TEST_F(NodeFixture, ProcessStartsWithMainThreadAndHandlers) {
  auto proc = node.spawn("a");
  EXPECT_EQ(proc->threads().size(), 1u);
  EXPECT_TRUE(proc->signal_handlers().contains(10));  // BLCR's SIGUSR1 slot
  auto& t = proc->add_thread();
  EXPECT_EQ(t.tid, 2u);
  EXPECT_EQ(proc->threads().size(), 2u);
}

TEST_F(NodeFixture, FreezeAndResumeToggleAndDriveApp) {
  struct TestApp : AppLogic {
    int starts = 0, stops = 0;
    std::string kind() const override { return "test"; }
    void serialize(BinaryWriter&) const override {}
    void start(Process&) override { ++starts; }
    void stop() override { ++stops; }
  };
  auto proc = node.spawn("a");
  auto app = std::make_shared<TestApp>();
  proc->set_app(app);
  EXPECT_FALSE(proc->frozen());
  proc->freeze();
  EXPECT_TRUE(proc->frozen());
  EXPECT_EQ(app->stops, 1);
  proc->resume();
  EXPECT_FALSE(proc->frozen());
  EXPECT_EQ(app->starts, 1);
}

TEST_F(NodeFixture, AccountCpuReachesNodeMeter) {
  auto proc = node.spawn("a");
  engine.schedule_at(SimTime::milliseconds(10),
                     [&] { proc->account_cpu(SimTime::milliseconds(200)); });
  engine.run_until(SimTime::milliseconds(1100));
  EXPECT_NEAR(node.cpu().process_cores(proc->pid()), 0.2, 1e-9);
}

TEST(AppRegistryTest, RegisterAndCreate) {
  struct BlobApp : AppLogic {
    int value = 0;
    std::string kind() const override { return "blob"; }
    void serialize(BinaryWriter& w) const override { w.i32(value); }
    void start(Process&) override {}
    void stop() override {}
  };
  AppLogic::register_kind("blob", [](BinaryReader& r) {
    auto app = std::make_shared<BlobApp>();
    app->value = r.i32();
    return app;
  });
  EXPECT_TRUE(AppLogic::is_registered("blob"));
  EXPECT_FALSE(AppLogic::is_registered("no_such"));

  BlobApp original;
  original.value = 77;
  BinaryWriter w;
  original.serialize(w);
  BinaryReader r(w.buffer());
  auto restored = AppLogic::create("blob", r);
  EXPECT_EQ(static_cast<BlobApp&>(*restored).value, 77);
}

}  // namespace
}  // namespace dvemig::proc
