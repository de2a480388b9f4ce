// Unit tests for the discrete-event engine: ordering, determinism, timers,
// handle safety, callback lifetime, the dead-key bound and allocation-free
// scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/sim/engine.hpp"

// Counting global allocator, in this test binary only: the allocation test
// below reads it around a window of schedule/fire/cancel cycles.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
// GCC flags free() on memory from operator new once it inlines this pair, but
// here operator new is malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace dvemig::sim {
namespace {

TEST(EngineTest, FiresInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(SimTime::milliseconds(30), [&] { order.push_back(3); });
  engine.schedule_at(SimTime::milliseconds(10), [&] { order.push_back(1); });
  engine.schedule_at(SimTime::milliseconds(20), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), SimTime::milliseconds(30));
}

TEST(EngineTest, SameTimestampFiresInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(SimTime::milliseconds(5), [&, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(SimTime::milliseconds(10), [&] { ++fired; });
  engine.schedule_at(SimTime::milliseconds(30), [&] { ++fired; });
  engine.run_until(SimTime::milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), SimTime::milliseconds(20));  // idle time advances
  engine.run_until(SimTime::milliseconds(40));
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, EventAtBoundaryIncluded) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(SimTime::milliseconds(10), [&] { ++fired; });
  engine.run_until(SimTime::milliseconds(10));
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, ScheduleAfterUsesCurrentTime) {
  Engine engine;
  SimTime inner{};
  engine.schedule_at(SimTime::milliseconds(5), [&] {
    engine.schedule_after(SimTime::milliseconds(7), [&] { inner = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(inner, SimTime::milliseconds(12));
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine engine;
  int fired = 0;
  TimerHandle h = engine.schedule_at(SimTime::milliseconds(10), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(EngineTest, CancelIsIdempotentAndSafeOnEmptyHandle) {
  Engine engine;
  TimerHandle h;
  h.cancel();  // empty handle: no-op
  h = engine.schedule_at(SimTime::milliseconds(1), [] {});
  h.cancel();
  h.cancel();
  EXPECT_EQ(engine.run(), 0u);
}

TEST(EngineTest, HandleConsumedAfterFiring) {
  Engine engine;
  TimerHandle h = engine.schedule_at(SimTime::milliseconds(1), [] {});
  engine.run();
  EXPECT_FALSE(h.pending());
}

TEST(EngineTest, RearmInsideCallback) {
  Engine engine;
  int count = 0;
  TimerHandle h;
  std::function<void()> tick = [&] {
    if (++count < 5) h = engine.schedule_after(SimTime::milliseconds(10), tick);
  };
  h = engine.schedule_after(SimTime::milliseconds(10), tick);
  engine.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(engine.now(), SimTime::milliseconds(50));
}

TEST(EngineTest, RunWithLimitStopsEarly) {
  Engine engine;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(SimTime::milliseconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(engine.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(engine.pending_events(), 7u);
}

TEST(EngineTest, ClearDropsEverything) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(SimTime::milliseconds(1), [&] { ++fired; });
  engine.clear();
  engine.run();
  EXPECT_EQ(fired, 0);
}

TEST(EngineTest, CancelledEventsSkippedByRunUntil) {
  Engine engine;
  int fired = 0;
  TimerHandle h1 = engine.schedule_at(SimTime::milliseconds(5), [&] { ++fired; });
  engine.schedule_at(SimTime::milliseconds(50), [&] { ++fired; });
  h1.cancel();
  engine.run_until(SimTime::milliseconds(10));
  EXPECT_EQ(fired, 0);
  engine.run_until(SimTime::milliseconds(100));
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, StaleHandleDoesNotCancelTheEventReusingItsSlot) {
  Engine engine;
  int fired = 0;
  TimerHandle first = engine.schedule_at(SimTime::milliseconds(1), [&] { ++fired; });
  const TimerHandle first_copy = first;
  engine.run();
  // The freed slot is recycled for the next event.
  TimerHandle second = engine.schedule_at(SimTime::milliseconds(2), [&] { fired += 10; });
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(first_copy.pending());
  first.cancel();
  TimerHandle copy = first_copy;
  copy.cancel();
  EXPECT_TRUE(second.pending());
  EXPECT_EQ(engine.pending_events(), 1u);

  // Same for a cancelled event's slot.
  const TimerHandle stale = second;
  second.cancel();
  TimerHandle third = engine.schedule_at(SimTime::milliseconds(3), [&] { fired += 100; });
  TimerHandle stale_copy = stale;
  stale_copy.cancel();
  EXPECT_TRUE(third.pending());
  engine.run();
  EXPECT_EQ(fired, 101);
}

TEST(EngineTest, CallbackCancelsItsOwnAndAnotherPendingHandle) {
  Engine engine;
  int fired = 0;
  TimerHandle self;
  TimerHandle other;
  TimerHandle rearmed;
  self = engine.schedule_at(SimTime::milliseconds(1), [&] {
    EXPECT_FALSE(self.pending());  // consumed before it runs
    self.cancel();                 // no-op
    other.cancel();
    rearmed = engine.schedule_after(SimTime::milliseconds(1), [&] { fired += 1000; });
    rearmed.cancel();
    ++fired;
  });
  other = engine.schedule_at(SimTime::milliseconds(2), [&] { fired += 100; });
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(other.pending());
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(EngineTest, CapturesDieRightAfterFiringAndAtCancel) {
  Engine engine;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> probe = token;
  engine.schedule_at(SimTime::milliseconds(1), [t = std::move(token)] { ++*t; });
  EXPECT_FALSE(probe.expired());
  bool alive_after_fire = true;
  engine.set_post_event_hook([&] { alive_after_fire = !probe.expired(); });
  engine.run();
  EXPECT_FALSE(alive_after_fire);  // gone before the post-event hook ran

  auto token2 = std::make_shared<int>(0);
  const std::weak_ptr<int> probe2 = token2;
  TimerHandle h =
      engine.schedule_at(SimTime::milliseconds(2), [t = std::move(token2)] { ++*t; });
  EXPECT_FALSE(probe2.expired());
  h.cancel();
  EXPECT_TRUE(probe2.expired());
}

// The ~TcpSocket pattern: a pending callback owns an object whose destructor
// cancels other handles (here also scheduling a fresh event).
struct CancelOnDestroy {
  Engine* engine;
  TimerHandle* before;
  TimerHandle* after;
  int* fired;
  ~CancelOnDestroy() {
    before->cancel();
    after->cancel();
    engine->schedule_after(SimTime::milliseconds(1), [f = fired] { ++*f; });
  }
};

// A callback that owns heap memory, so destroying it twice is a double free.
EventFn owning_callback(int* fired) {
  return [fired, token = std::make_shared<int>(1)] { *fired += *token; };
}

TEST(EngineTest, ClearSurvivesACallbackWhoseCapturesCancelOtherHandles) {
  Engine engine;
  int fired = 0;
  TimerHandle before = engine.schedule_at(SimTime::milliseconds(5), owning_callback(&fired));
  TimerHandle after;
  auto owner = std::make_shared<CancelOnDestroy>(&engine, &before, &after, &fired);
  engine.schedule_at(SimTime::milliseconds(1), [o = std::move(owner)] {});
  after = engine.schedule_at(SimTime::milliseconds(5), owning_callback(&fired));
  ASSERT_EQ(engine.pending_events(), 3u);
  engine.clear();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.queued_keys(), 0u);
  EXPECT_FALSE(before.pending());
  EXPECT_FALSE(after.pending());
  engine.run();
  EXPECT_EQ(fired, 0);
  engine.schedule_after(SimTime::milliseconds(1), [&] { ++fired; });  // still usable
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, DestructorSurvivesACallbackWhoseCapturesCancelOtherHandles) {
  int fired = 0;
  TimerHandle before;
  TimerHandle after;
  auto engine = std::make_unique<Engine>();
  before = engine->schedule_at(SimTime::milliseconds(5), owning_callback(&fired));
  auto owner = std::make_shared<CancelOnDestroy>(engine.get(), &before, &after, &fired);
  engine->schedule_at(SimTime::milliseconds(1), [o = std::move(owner)] {});
  after = engine->schedule_at(SimTime::milliseconds(5), owning_callback(&fired));
  ASSERT_EQ(engine->pending_events(), 3u);
  engine.reset();
  EXPECT_EQ(fired, 0);
}

TEST(EngineTest, DeadKeysStayBoundedByLiveEvents) {
  Engine engine;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(SimTime::seconds(10) + SimTime::nanoseconds(i), [&] { ++fired; });
  }
  std::size_t max_keys = 0;
  for (int i = 0; i < 100'000; ++i) {
    TimerHandle h = engine.schedule_at(SimTime::seconds(1 + i % 5), [&] { fired += 1000; });
    h.cancel();
    ASSERT_LE(engine.queued_keys(), 2 * engine.pending_events() + Engine::kCompactSlack);
    max_keys = std::max(max_keys, engine.queued_keys());
  }
  EXPECT_EQ(engine.pending_events(), 100u);
  EXPECT_LE(max_keys, 2 * 100 + Engine::kCompactSlack);
  EXPECT_EQ(engine.run(), 100u);
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(engine.queued_keys(), 0u);
}

// The peak gauges hold the process-wide peak since the last registry reset:
// a second, smaller engine leaves them at the first engine's peak, and after
// a reset even a surviving engine raises them again from 0.
TEST(EngineTest, PeakGaugesHoldTheProcessMaximumSinceReset) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  const obs::Gauge& keys = reg.gauge("sim.pending_events_peak");
  const obs::Gauge& live = reg.gauge("sim.live_events_peak");
  const auto fill = [](Engine& engine, int n) {
    for (int i = 0; i < n; ++i) engine.schedule_at(engine.now() + SimTime::seconds(1), [] {});
  };

  Engine big;
  fill(big, 50);
  big.run();
  EXPECT_EQ(keys.value(), 50);
  EXPECT_EQ(live.value(), 50);
  {
    Engine small;
    fill(small, 5);
    small.run();
  }
  EXPECT_EQ(keys.value(), 50);
  EXPECT_EQ(live.value(), 50);

  reg.reset();
  EXPECT_EQ(keys.value(), 0);
  fill(big, 5);
  big.run();
  EXPECT_EQ(keys.value(), 5);
  EXPECT_EQ(live.value(), 5);
}

TEST(EngineAllocTest, ScheduleFireAndScheduleCancelAllocateNothingAfterWarmUp) {
  Engine engine;
  int fired = 0;
  const auto fire_cycle = [&] {
    engine.schedule_after(SimTime::nanoseconds(1), [&fired] { ++fired; });
    engine.run();
  };
  const auto cancel_cycle = [&] {
    TimerHandle h = engine.schedule_after(SimTime::nanoseconds(1), [&fired] { ++fired; });
    h.cancel();
  };
  // Warm-up grows the heap, slab and free list to their working sizes: a run
  // of cancel cycles leaves up to kCompactSlack + 1 dead keys before the
  // heap is compacted.
  for (int i = 0; i < 1'000; ++i) fire_cycle();
  for (int i = 0; i < 1'000; ++i) cancel_cycle();
  const std::size_t before = g_allocations;
  for (int i = 0; i < 10'000; ++i) fire_cycle();
  for (int i = 0; i < 10'000; ++i) cancel_cycle();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(fired, 11'000);
}

// ---------------------------------------------------------------------------
// Property test: random schedule / cancel / re-arm / run_until against a
// reference model that fires live events in (when, seq) order.
// ---------------------------------------------------------------------------

constexpr int kIds = 256;

// Deterministic per-id callback effects, shared by the engine side and the
// model: ids divisible by 3 re-arm themselves up to 3 times when they fire;
// ids divisible by 7 cancel id + 1.
bool rearms_on_fire(int id) { return id % 3 == 0; }
bool cancels_next(int id) { return id % 7 == 0 && id + 1 < kIds; }
std::int64_t rearm_delay_ns(int id) { return (id % 5) * 10; }

struct EngineSide {
  Engine engine;
  std::vector<TimerHandle> handles = std::vector<TimerHandle>(kIds);
  std::vector<int> generation = std::vector<int>(kIds, 0);
  std::vector<int> fired;

  void arm(int id, SimTime when) {
    handles[id] = engine.schedule_at(when, [this, id] { on_fire(id); });
  }
  void on_fire(int id) {
    fired.push_back(id);
    if (cancels_next(id)) handles[id + 1].cancel();
    if (rearms_on_fire(id) && generation[id] < 3) {
      ++generation[id];
      handles[id] = engine.schedule_after(SimTime::nanoseconds(rearm_delay_ns(id)),
                                          [this, id] { on_fire(id); });
    }
  }
};

struct ModelSide {
  struct Ev {
    std::int64_t when;
    std::uint64_t seq;
    int id;
  };
  std::int64_t now = 0;
  std::uint64_t next_seq = 0;
  std::vector<Ev> live;  // at most one per id
  std::vector<int> generation = std::vector<int>(kIds, 0);
  std::vector<int> fired;

  bool pending(int id) const {
    return std::any_of(live.begin(), live.end(), [id](const Ev& e) { return e.id == id; });
  }
  void cancel(int id) {
    std::erase_if(live, [id](const Ev& e) { return e.id == id; });
  }
  void arm(int id, std::int64_t when) { live.push_back(Ev{when, next_seq++, id}); }
  void run_until(std::int64_t until) {
    for (;;) {
      auto next = std::min_element(live.begin(), live.end(), [](const Ev& a, const Ev& b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
      });
      if (next == live.end() || next->when > until) break;
      const Ev ev = *next;
      live.erase(next);
      now = std::max(now, ev.when);
      fired.push_back(ev.id);
      if (cancels_next(ev.id)) cancel(ev.id + 1);
      if (rearms_on_fire(ev.id) && generation[ev.id] < 3) {
        ++generation[ev.id];
        arm(ev.id, now + rearm_delay_ns(ev.id));
      }
    }
    now = std::max(now, until);
  }
};

void run_property(std::uint64_t seed, bool with_choice_hook) {
  std::mt19937_64 rng(seed);
  EngineSide eng;
  ModelSide model;
  std::size_t hook_calls = 0;
  if (with_choice_hook) {
    // Always picking the earliest member keeps (when, seq) order, but every
    // event still goes through the ready-set gather and re-push.
    eng.engine.set_choice_hook(
        [&](std::size_t ready) {
          EXPECT_GE(ready, 2u);
          ++hook_calls;
          return std::size_t{0};
        },
        SimTime::nanoseconds(40), 4);
  }
  const auto draw = [&](std::uint64_t n) { return static_cast<std::int64_t>(rng() % n); };
  for (int op = 0; op < 5'000; ++op) {
    const int id = static_cast<int>(draw(kIds));
    const std::int64_t roll = draw(100);
    if (roll < 35) {  // schedule (a re-arm if the id is live: cancel, then arm)
      const std::int64_t when = model.now + draw(50) * 10;
      eng.handles[id].cancel();
      model.cancel(id);
      eng.arm(id, SimTime::nanoseconds(when));
      model.arm(id, when);
    } else if (roll < 55) {  // cancel
      eng.handles[id].cancel();
      model.cancel(id);
    } else if (roll < 70) {  // re-arm through a copied handle
      TimerHandle copy = eng.handles[id];
      copy.cancel();
      model.cancel(id);
      const std::int64_t when = model.now + draw(20) * 10;
      eng.arm(id, SimTime::nanoseconds(when));
      model.arm(id, when);
    } else {  // run_until
      const std::int64_t until = model.now + draw(300);
      eng.engine.run_until(SimTime::nanoseconds(until));
      model.run_until(until);
      ASSERT_EQ(eng.engine.now().ns, model.now) << "seed " << seed << " op " << op;
    }
    ASSERT_EQ(eng.fired, model.fired) << "seed " << seed << " op " << op;
    ASSERT_EQ(eng.engine.pending_events(), model.live.size()) << "seed " << seed;
    ASSERT_EQ(eng.handles[id].pending(), model.pending(id)) << "seed " << seed;
    ASSERT_LE(eng.engine.queued_keys(),
              2 * eng.engine.pending_events() + Engine::kCompactSlack);
  }
  eng.engine.run_until(SimTime::nanoseconds(model.now + 1'000'000));
  model.run_until(model.now + 1'000'000);
  EXPECT_EQ(eng.fired, model.fired) << "seed " << seed;
  EXPECT_EQ(eng.engine.pending_events(), 0u);
  if (with_choice_hook) {
    EXPECT_GT(hook_calls, 0u);
  }
}

TEST(EnginePropertyTest, RandomOpsFireInReferenceModelOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_property(seed, /*with_choice_hook=*/seed == 7);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dvemig::sim
