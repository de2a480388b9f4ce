// What the migd source and destination roles share (private to src/mig): the
// Session base with its cost continuations, ShardedCost, the migration
// metrics and the tracer shorthand.
#pragma once

#include <functional>
#include <memory>

#include "src/ckpt/dirty_tracker.hpp"
#include "src/mig/migd.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"

namespace dvemig::mig {

/// Pseudo-pid used to charge kernel-side migration work to the CPU meter.
inline constexpr Pid kKernelPid{1};

inline obs::Tracer& tracer() { return obs::Tracer::instance(); }

/// Per-migration metrics, shared by source and destination roles. References
/// are stable for the process lifetime (the registry never evicts).
struct MigMetrics {
  obs::Counter& freeze_bytes;
  obs::Counter& precopy_bytes;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& restores;
  obs::Counter& stripe_segments;
  obs::Counter& stripe_bytes;
  obs::Histogram& freeze_time_us;
  obs::Histogram& total_time_us;
  obs::Histogram& precopy_rounds;

  static MigMetrics& get() {
    auto& reg = obs::Registry::instance();
    static MigMetrics m{
        reg.counter("mig.freeze_bytes"),
        reg.counter("mig.precopy_bytes"),
        reg.counter("mig.migrations_completed"),
        reg.counter("mig.migrations_failed"),
        reg.counter("mig.restores_completed"),
        reg.counter("mig.stripe_segments"),
        reg.counter("mig.stripe_bytes"),
        reg.histogram("mig.freeze_time_us", obs::default_latency_bounds_us()),
        reg.histogram("mig.total_time_us", obs::default_latency_bounds_us()),
        reg.histogram("mig.precopy_rounds", {1, 2, 4, 8, 16, 32, 64}),
    };
    return m;
  }
};

/// A stage's cost when its work shards across the migration's worker pool:
/// `cpu()` is the serial total the CPU meter pays (parallelism spreads work,
/// it does not shrink it), `elapsed()` the slowest shard, after which the
/// stage continues. With one worker the two are the same serial cost.
class ShardedCost {
 public:
  explicit ShardedCost(int workers) : workers_(static_cast<std::size_t>(workers)) {}

  /// `n` items of `ns_each`, dealt out in contiguous shards.
  void items(std::size_t n, std::int64_t ns_each) {
    cpu_ns_ += static_cast<std::int64_t>(n) * ns_each;
    elapsed_ns_ += static_cast<std::int64_t>(ckpt::DirtyTracker::max_shard(n, workers_)) * ns_each;
  }
  /// `n` bytes at `ns_per_byte`, split evenly.
  void bytes(double n, double ns_per_byte) {
    cpu_ns_ += static_cast<std::int64_t>(n * ns_per_byte);
    elapsed_ns_ += static_cast<std::int64_t>(n * ns_per_byte / static_cast<double>(workers_));
  }
  /// Work that does not shard.
  void serial(std::int64_t ns) {
    cpu_ns_ += ns;
    elapsed_ns_ += ns;
  }

  SimDuration cpu() const { return SimTime::nanoseconds(cpu_ns_); }
  SimDuration elapsed() const { return SimTime::nanoseconds(elapsed_ns_); }

 private:
  std::size_t workers_;
  std::int64_t cpu_ns_{0};
  std::int64_t elapsed_ns_{0};
};

/// What both session roles share: the owning daemon, its node, the
/// continuations that pay for kernel work, and span-handle closing.
template <class Self>
class Session : public std::enable_shared_from_this<Self> {
 protected:
  explicit Session(Migd& owner) : owner_(&owner), node_(&owner.node()) {}

  sim::Engine& engine() const { return node_->engine(); }
  const CostModel& cm() const { return owner_->cost_model(); }

  /// Spend `d` of (kernel/helper-thread) CPU, then continue.
  void after(SimDuration d, std::function<void()> fn) {
    after_parallel(d, d, std::move(fn));
  }

  /// Parallel stage: `cpu` of total work spread over the worker pool, whose
  /// slowest shard finishes after `elapsed`. The CPU meter is charged the full
  /// serial amount, the continuation runs at the makespan. With cpu ==
  /// elapsed this is the serial after().
  void after_parallel(SimDuration cpu, SimDuration elapsed, std::function<void()> fn) {
    node_->cpu().account(kKernelPid, cpu);
    engine().schedule_after(elapsed,
                            [self = this->shared_from_this(), fn = std::move(fn)] {
                              (void)self;
                              fn();
                            });
  }

  /// End a span handle if it is still open; zero the handle either way.
  static void close_span(obs::SpanId& id) {
    if (id != 0) tracer().end(id);
    id = 0;
  }

  Migd* owner_;
  proc::Node* node_;
};

}  // namespace dvemig::mig
