#include "src/sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "src/common/sim_clock.hpp"
#include "src/obs/metrics.hpp"

namespace dvemig::sim {

namespace {

std::int64_t engine_clock_thunk(const void* ctx) {
  return static_cast<const Engine*>(ctx)->now().ns;
}

}  // namespace

Engine::Engine()
    : events_counter_(&obs::Registry::instance().counter("sim.events_fired")),
      keys_gauge_(&obs::Registry::instance().gauge("sim.pending_events_peak")),
      live_gauge_(&obs::Registry::instance().gauge("sim.live_events_peak")),
      rate_gauge_(&obs::Registry::instance().gauge("sim.sim_seconds")) {
  SimClock::publish(&engine_clock_thunk, this);
}

Engine::~Engine() {
  clear();
  SimClock::retract(this);
}

EventFn Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  free_slots_.push_back(slot);
  --live_;
  return std::exchange(s.fn, nullptr);
}

void Engine::cancel(std::uint32_t slot, std::uint64_t seq) {
  if (!armed(slot, seq)) return;
  const EventFn doomed = release(slot);
  ++dead_;
  maybe_compact();
  // `doomed` is destroyed here, with the engine already consistent: its
  // captures may cancel or schedule other events.
}

void Engine::maybe_compact() {
  if (dead_ <= live_ + kCompactSlack) return;
  std::erase_if(heap_, [this](const Key& k) { return !live(k); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ = 0;
}

void Engine::note_peaks() {
  // Each gauge holds the process-wide peak since the last Registry::reset():
  // compared against the gauge itself, a smaller engine never lowers it and
  // after a reset every engine raises it again from 0.
  const auto keys = static_cast<double>(heap_.size());
  const auto live = static_cast<double>(live_);
  if (keys > keys_gauge_->value()) keys_gauge_->set(keys);
  if (live > live_gauge_->value()) live_gauge_->set(live);
}

Engine::Key Engine::choose(Key first) {
  // Model-checking mode: gather the ready set (live events within the
  // commutativity window of the earliest due event) and let the hook pick.
  ready_.clear();
  ready_.push_back(first);
  const std::int64_t horizon = std::max(first.when, now_.ns) + choice_window_.ns;
  while (ready_.size() < choice_max_ready_ && !heap_.empty()) {
    const Key top = heap_.front();
    if (!live(top)) {
      pop_key();
      --dead_;
      continue;
    }
    if (top.when > horizon) break;
    ready_.push_back(pop_key());
  }
  std::size_t idx = 0;
  if (ready_.size() > 1) {
    idx = choice_(ready_.size());
    DVEMIG_ASSERT(idx < ready_.size());
  }
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    if (i != idx) push_key(ready_[i]);
  }
  return ready_[idx];
}

bool Engine::fire_next() {
  note_peaks();
  while (!heap_.empty()) {
    Key k = pop_key();
    if (!live(k)) {  // cancelled — skip
      --dead_;
      continue;
    }
    if (choice_) k = choose(k);
    // Firing a later-stamped ready-set member first means the bypassed ones
    // deliver after it; when they come back around (possibly after the choice
    // hook was uninstalled), clamp instead of travelling backwards in time.
    if (k.when > now_.ns) now_ = SimTime{k.when};
    {
      // Free the slot before firing so re-arming inside fn works; fn's
      // captures die as soon as it returns.
      const EventFn fn = release(static_cast<std::uint32_t>(k.order & kSlotMask));
      maybe_compact();
      fn();
    }
    events_fired_ += 1;
    events_counter_->add(1);
    if (post_event_) post_event_();
    return true;
  }
  return false;
}

std::size_t Engine::run(std::size_t limit) {
  std::size_t fired = 0;
  while (fired < limit && fire_next()) ++fired;
  rate_gauge_->set(static_cast<double>(now_.ns) / 1e9);
  return fired;
}

std::size_t Engine::run_until(SimTime until) {
  std::size_t fired = 0;
  while (!heap_.empty()) {
    // Peek through dead keys to find the next live event time.
    if (!live(heap_.front())) {
      pop_key();
      --dead_;
      continue;
    }
    if (heap_.front().when > until.ns) break;
    if (fire_next()) ++fired;
  }
  if (now_ < until) now_ = until;
  rate_gauge_->set(static_cast<double>(now_.ns) / 1e9);
  return fired;
}

void Engine::clear() {
  // Detach the slab before destroying any callback: a destroyed lambda can own
  // a TcpSocket whose destructor cancels other handles (which then find
  // nothing armed) or schedules new events (dropped by the next pass).
  while (!slots_.empty()) {
    std::vector<Slot> doomed;
    doomed.swap(slots_);
    heap_.clear();
    free_slots_.clear();
    live_ = 0;
    dead_ = 0;
  }
}

}  // namespace dvemig::sim
