// Checkpoint layer tests: image round-trips, dirty/vm_area tracking, restore.
#include <gtest/gtest.h>

#include "src/ckpt/dirty_tracker.hpp"
#include "src/ckpt/restore.hpp"
#include "src/stack/udp_socket.hpp"

namespace dvemig::ckpt {
namespace {

proc::NodeConfig node_config(const char* name, int i) {
  return proc::NodeConfig{NodeId{static_cast<std::uint32_t>(i)},
                          name,
                          net::Ipv4Addr::octets(203, 0, 113, 10),
                          net::Ipv4Addr::octets(192, 168, 1, static_cast<std::uint8_t>(10 + i)),
                          2.0,
                          SimTime::seconds(100 * i)};
}

TEST(ProcessImageTest, SerializationRoundTrip) {
  sim::Engine engine;
  proc::Node node(engine, node_config("n1", 1));
  auto proc = node.spawn("zoned");
  proc->mem().mmap(8 * proc::kPageSize, proc::prot_read | proc::prot_write, "[heap]");
  proc->mem().mmap(4 * proc::kPageSize, proc::prot_read | proc::prot_exec, "code",
                   true);
  proc->files().open_file("/var/log/z.log");
  proc->add_thread();

  const ProcessImage img = snapshot_process(*proc);
  BinaryWriter w;
  img.serialize(w);
  BinaryReader r(w.buffer());
  const ProcessImage back = ProcessImage::deserialize(r);
  EXPECT_TRUE(r.at_end());

  EXPECT_EQ(back.pid, img.pid);
  EXPECT_EQ(back.name, "zoned");
  ASSERT_EQ(back.areas.size(), 2u);
  EXPECT_EQ(back.areas[0].name, "[heap]");
  EXPECT_TRUE(back.areas[1].file_backed);
  EXPECT_EQ(back.threads.size(), 2u);
  EXPECT_EQ(back.threads[1].tid, img.threads[1].tid);
  EXPECT_EQ(back.threads[1].gp_regs, img.threads[1].gp_regs);
  ASSERT_EQ(back.regular_files.size(), 1u);
  EXPECT_EQ(back.regular_files[0].path, "/var/log/z.log");
  EXPECT_EQ(back.signal_handlers, img.signal_handlers);
  EXPECT_EQ(back.src_jiffies, node.stack().jiffies());
}

TEST(ProcessImageTest, SocketFdsListedSeparately) {
  sim::Engine engine;
  proc::Node node(engine, node_config("n1", 1));
  auto proc = node.spawn("s");
  const Fd rf = proc->files().open_file("/etc/conf");
  auto sock = node.stack().make_udp();
  const Fd sf = proc->files().attach_socket(sock);
  const ProcessImage img = snapshot_process(*proc);
  ASSERT_EQ(img.regular_files.size(), 1u);
  EXPECT_EQ(img.regular_files[0].fd, rf);
  ASSERT_EQ(img.socket_fds.size(), 1u);
  EXPECT_EQ(img.socket_fds[0], sf);
}

TEST(MemoryDeltaTest, SerializationRoundTripAndSizing) {
  MemoryDelta d;
  d.added_areas.push_back(proc::VmArea{0x1000, 0x2000, 3, false, "[heap]"});
  d.removed_areas.push_back(0x9000);
  d.dirty_pages = {4, 7, 9};

  BinaryWriter w;
  d.serialize(w);
  // 3 pages at 4 KiB dominate the delta size.
  EXPECT_GT(w.size(), 3 * proc::kPageSize);
  EXPECT_LT(w.size(), 3 * proc::kPageSize + 512);

  BinaryReader r(w.buffer());
  const MemoryDelta back = MemoryDelta::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back.dirty_pages, d.dirty_pages);
  ASSERT_EQ(back.added_areas.size(), 1u);
  EXPECT_EQ(back.added_areas[0].name, "[heap]");
  EXPECT_EQ(back.removed_areas, d.removed_areas);
  EXPECT_FALSE(back.empty());
}

TEST(DirtyTrackerTest, FirstRoundTransfersWholeAnonymousSpace) {
  proc::AddressSpace mem;
  mem.mmap(16 * proc::kPageSize, proc::prot_read | proc::prot_write, "[heap]");
  mem.mmap(8 * proc::kPageSize, proc::prot_read | proc::prot_exec, "code", true);
  DirtyTracker tracker;
  const MemoryDelta d = tracker.round(mem);
  EXPECT_EQ(d.dirty_pages.size(), 16u);  // file-backed pages excluded
  EXPECT_EQ(d.added_areas.size(), 2u);   // layout is new to the tracker
}

TEST(DirtyTrackerTest, SubsequentRoundsOnlyChanges) {
  proc::AddressSpace mem;
  const std::uint64_t heap =
      mem.mmap(16 * proc::kPageSize, proc::prot_read | proc::prot_write, "[heap]");
  DirtyTracker tracker;
  (void)tracker.round(mem);

  MemoryDelta d = tracker.round(mem);
  EXPECT_TRUE(d.empty());  // nothing changed

  mem.touch(heap + 5 * proc::kPageSize, 10);
  d = tracker.round(mem);
  EXPECT_EQ(d.dirty_pages.size(), 1u);
  EXPECT_TRUE(d.added_areas.empty());
}

TEST(DirtyTrackerTest, DetectsMmapAndMunmap) {
  proc::AddressSpace mem;
  const std::uint64_t a =
      mem.mmap(4 * proc::kPageSize, proc::prot_read | proc::prot_write, "a");
  DirtyTracker tracker;
  (void)tracker.round(mem);

  const std::uint64_t b =
      mem.mmap(2 * proc::kPageSize, proc::prot_read | proc::prot_write, "b");
  MemoryDelta d = tracker.round(mem);
  ASSERT_EQ(d.added_areas.size(), 1u);
  EXPECT_EQ(d.added_areas[0].start, b);
  EXPECT_EQ(d.dirty_pages.size(), 2u);  // the new area's pages

  mem.munmap(a);
  d = tracker.round(mem);
  ASSERT_EQ(d.removed_areas.size(), 1u);
  EXPECT_EQ(d.removed_areas[0], a);
}

TEST(DirtyTrackerTest, DetectsProtectionChange) {
  proc::AddressSpace mem;
  const std::uint64_t a =
      mem.mmap(2 * proc::kPageSize, proc::prot_read | proc::prot_write, "a");
  DirtyTracker tracker;
  (void)tracker.round(mem);
  mem.mprotect(a, proc::prot_read);
  const MemoryDelta d = tracker.round(mem);
  ASSERT_EQ(d.modified_areas.size(), 1u);
  EXPECT_EQ(d.modified_areas[0].prot, static_cast<std::uint32_t>(proc::prot_read));
}

TEST(RestoreTest, RebuildsProcessOnDestination) {
  sim::Engine engine;
  proc::Node src(engine, node_config("src", 1));
  proc::Node dst(engine, node_config("dst", 2));

  auto proc = src.spawn("zoned");
  proc->mem().mmap(8 * proc::kPageSize, proc::prot_read | proc::prot_write, "[heap]");
  proc->add_thread();
  proc->files().open_file("/data/world.db");
  proc->files().seek(3, 0);
  const ProcessImage img = snapshot_process(*proc);

  auto restored = restore_process(dst, img);
  EXPECT_TRUE(restored->frozen());
  EXPECT_EQ(restored->pid(), proc->pid());
  EXPECT_EQ(restored->threads().size(), 2u);
  EXPECT_EQ(restored->mem().areas().size(), 1u);
  EXPECT_EQ(restored->mem().areas()[0].start, proc->mem().areas()[0].start);
  EXPECT_EQ(restored->mem().dirty_pages(), 0u);  // arrived clean
  EXPECT_TRUE(restored->files().has(3));
  EXPECT_EQ(restored->files().get(3).path, "/data/world.db");

  dst.adopt(restored);
  restored->resume();
  EXPECT_FALSE(restored->frozen());
}

TEST(RestoreTest, AppBlobReconstructed) {
  struct CounterApp : proc::AppLogic {
    int value = 0;
    std::string kind() const override { return "counter"; }
    void serialize(BinaryWriter& w) const override { w.i32(value); }
    void start(proc::Process&) override {}
    void stop() override {}
  };
  proc::AppLogic::register_kind("counter", [](BinaryReader& r) {
    auto app = std::make_shared<CounterApp>();
    app->value = r.i32();
    return app;
  });

  sim::Engine engine;
  proc::Node src(engine, node_config("src", 1));
  proc::Node dst(engine, node_config("dst", 2));
  auto proc = src.spawn("counting");
  auto app = std::make_shared<CounterApp>();
  app->value = 31337;
  proc->set_app(app);

  const ProcessImage img = snapshot_process(*proc);
  auto restored = restore_process(dst, img);
  ASSERT_NE(restored->app(), nullptr);
  EXPECT_EQ(static_cast<CounterApp&>(*restored->app()).value, 31337);
}

TEST(RestoreTest, ApplyMemoryDeltaMutatesLayout) {
  sim::Engine engine;
  proc::Node dst(engine, node_config("dst", 2));
  auto proc = std::make_shared<proc::Process>(dst, Pid{7}, "x");

  MemoryDelta add;
  add.added_areas.push_back(proc::VmArea{0x10000, 4 * proc::kPageSize,
                                          proc::prot_read | proc::prot_write, false,
                                          "[heap]"});
  apply_memory_delta(*proc, add);
  EXPECT_NE(proc->mem().find_area(0x10000), nullptr);

  MemoryDelta mod;
  mod.modified_areas.push_back(proc::VmArea{0x10000, 8 * proc::kPageSize,
                                             proc::prot_read | proc::prot_write, false,
                                             "[heap]"});
  apply_memory_delta(*proc, mod);
  EXPECT_EQ(proc->mem().find_area(0x10000)->length, 8 * proc::kPageSize);

  MemoryDelta rem;
  rem.removed_areas.push_back(0x10000);
  apply_memory_delta(*proc, rem);
  EXPECT_EQ(proc->mem().find_area(0x10000), nullptr);
}

}  // namespace
}  // namespace dvemig::ckpt
