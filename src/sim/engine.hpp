// Discrete-event simulation engine.
//
// One global event queue ordered by (time, sequence number). The sequence number makes
// same-timestamp ordering deterministic: two runs with the same seed schedule and fire
// events identically, which the experiment harnesses rely on.
//
// Everything in the simulated cluster — links, TCP timers, zone-server ticks, conductor
// heartbeats — is an event. The engine is intentionally single-threaded; parallelising a
// DES would trade reproducibility for speed the experiments do not need.
//
// Layout (DESIGN.md §12.6). The binary heap holds 16-byte keys {when, seq << 24 | slot};
// the callbacks live in a slab of recycled slots, and each armed slot records the seq it
// was armed with. A key is live while its slot still records the key's seq. Firing and
// cancelling free the slot at once and destroy the callback; a cancelled event leaves a
// dead key behind, which is dropped when it surfaces at the top of the heap or when the
// heap is compacted. Compaction runs whenever dead keys outnumber live ones by more than
// kCompactSlack, so the heap never holds more than 2 × live + kCompactSlack keys.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/types.hpp"

namespace dvemig::obs {
class Counter;
class Gauge;
}  // namespace dvemig::obs

namespace dvemig::sim {

using EventFn = std::function<void()>;

class Engine;

/// Cancellable handle to a scheduled event: the slab slot the event was armed
/// in and the seq it was armed with. Once the event fires or is cancelled its
/// slot stops recording that seq, so a stale handle — even one whose slot now
/// holds a newer event — is neither pending nor able to cancel anything. This
/// is how the TCP retransmission timer is "cleared" during socket migration.
/// Copies are equal views of one event. The engine must outlive every handle
/// that may still be cancelled.
class TimerHandle {
 public:
  TimerHandle() = default;

  /// Cancel the pending event and destroy its callback. Safe to call
  /// repeatedly, after the event fired, or on an empty handle.
  inline void cancel();

  inline bool pending() const;

 private:
  friend class Engine;
  TimerHandle(Engine* engine, std::uint32_t slot, std::uint64_t seq)
      : engine_(engine), slot_(slot), seq_(seq) {}
  Engine* engine_{nullptr};
  std::uint32_t slot_{0};
  std::uint64_t seq_{0};
};

class Engine {
 public:
  /// Dead keys tolerated beyond the live count before the heap is compacted.
  static constexpr std::size_t kCompactSlack = 256;

  /// Construction publishes this engine as the thread-local SimClock provider
  /// (the logger's time prefix and the span tracer read it); destruction
  /// retracts it. With several engines alive, the newest one owns the clock.
  Engine();
  /// Drops every pending event first, as clear() does.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (must not be in the past).
  TimerHandle schedule_at(SimTime when, EventFn fn) {
    // Under a choice hook, now() can warp ahead of times computed from state
    // captured before the reordering (e.g. a link's busy-until); those events
    // are simply due immediately.
    if (choice_ && when < now_) when = now_;
    DVEMIG_EXPECTS(when >= now_);
    DVEMIG_EXPECTS(next_seq_ < kMaxSeq);
    std::uint32_t slot;
    if (free_slots_.empty()) {
      DVEMIG_EXPECTS(slots_.size() < kMaxSlots);
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    const std::uint64_t seq = next_seq_++;
    slots_[slot].seq = seq;
    slots_[slot].fn = std::move(fn);
    push_key(Key{when.ns, seq << kSlotBits | slot});
    ++live_;
    return TimerHandle{this, slot, seq};
  }

  /// Schedule `fn` to run `delay` after the current time.
  TimerHandle schedule_after(SimDuration delay, EventFn fn) {
    DVEMIG_EXPECTS(delay.ns >= 0);
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Run events until the queue drains or `limit` events fire. Returns events fired.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run events with timestamp <= `until`; afterwards now() == max(now, until).
  std::size_t run_until(SimTime until);

  /// Drop every pending event (used between independent experiment repetitions).
  /// The slab is detached before any callback is destroyed, so a callback whose
  /// captures cancel or schedule events on destruction meets an empty engine.
  void clear();

  /// Events scheduled and neither fired nor cancelled.
  std::size_t pending_events() const { return live_; }
  /// Keys in the heap: the live events plus dead keys not yet dropped, at most
  /// 2 × pending_events() + kCompactSlack.
  std::size_t queued_keys() const { return heap_.size(); }

  /// Install a hook that runs after every fired event, while the queue is
  /// quiescent. This is how the dvemig-verify auditor (src/check) observes the
  /// simulation: cross-module invariants hold *between* events, not during them.
  /// One hook at most; pass nullptr to uninstall.
  void set_post_event_hook(EventFn fn) { post_event_ = std::move(fn); }

  /// Model-checking seam (src/mc). When installed, events whose timestamps fall
  /// within `window` of the earliest pending event form a *ready set* — the
  /// physical system has no global clock, so their relative order is network
  /// jitter, not causality — and the hook picks which of them fires next (it
  /// receives the set size and returns an index). Firing a later-stamped member
  /// first advances now() to that member's timestamp; the bypassed events fire
  /// afterwards at the then-current time, exactly as if their delivery had been
  /// delayed by up to `window`. With no hook (the default), order is the usual
  /// deterministic (time, seq) order and nothing changes. Pass nullptr to
  /// uninstall. `max_ready` caps the set (bounds the branching factor).
  using ChoiceFn = std::function<std::size_t(std::size_t ready_count)>;
  void set_choice_hook(ChoiceFn fn, SimDuration window = SimTime::zero(),
                       std::size_t max_ready = 4) {
    choice_ = std::move(fn);
    choice_window_ = window;
    choice_max_ready_ = max_ready < 1 ? 1 : max_ready;
  }

  std::uint64_t events_fired() const { return events_fired_; }

 private:
  friend class TimerHandle;

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::size_t kMaxSlots = std::size_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  /// Heap entry. `order` = seq << kSlotBits | slot: seqs are unique, so ordering
  /// by (when, order) is ordering by (when, seq).
  struct Key {
    std::int64_t when;
    std::uint64_t order;
  };

  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };

  struct Slot {
    std::uint64_t seq{0};  // seq of the armed event; 0 while the slot is free
    EventFn fn;
  };

  bool armed(std::uint32_t slot, std::uint64_t seq) const {
    return slot < slots_.size() && slots_[slot].seq == seq;
  }
  bool live(const Key& k) const {
    return slots_[k.order & kSlotMask].seq == k.order >> kSlotBits;
  }

  void push_key(Key k) {
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  Key pop_key() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key k = heap_.back();
    heap_.pop_back();
    return k;
  }

  void cancel(std::uint32_t slot, std::uint64_t seq);
  EventFn release(std::uint32_t slot);
  void maybe_compact();
  Key choose(Key first);
  void note_peaks();
  bool fire_next();

  SimTime now_{SimTime::zero()};
  std::uint64_t next_seq_{1};  // 0 marks a free slot
  std::uint64_t events_fired_{0};
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_{0};
  std::size_t dead_{0};    // keys in heap_ whose event was cancelled
  std::vector<Key> ready_;  // the choice hook's ready set, reused per event
  EventFn post_event_;
  ChoiceFn choice_;
  SimDuration choice_window_{SimTime::zero()};
  std::size_t choice_max_ready_{4};
  // Observability (src/obs): registry objects are process-lived, so caching
  // the pointers keeps the per-event cost to one integer add.
  obs::Counter* events_counter_;
  obs::Gauge* keys_gauge_;
  obs::Gauge* live_gauge_;
  obs::Gauge* rate_gauge_;
};

void TimerHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel(slot_, seq_);
  engine_ = nullptr;
}

bool TimerHandle::pending() const {
  return engine_ != nullptr && engine_->armed(slot_, seq_);
}

}  // namespace dvemig::sim
