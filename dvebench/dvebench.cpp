// dvebench — the end-to-end benchmark of the dvemig simulator.
//
// Three workloads (README.md in this directory says why each was chosen):
//   dve_lb        5 nodes x 20 zone servers, 10,000 drifting TCP clients,
//                 conductors on, 300 simulated seconds;
//   conn_scale    one zone server with 10,000 client connections, moved
//                 node0 -> node1 -> node0 (incremental collective, P=1);
//   bulk_precopy  one zone server with a 96 MiB heap, moved back and forth
//                 12 times over a 4-rail link (striped, parallelism 4).
//
// The simulator is driven from outside through its public entry points only.
// Two clocks are reported: sim-clock metrics are a pure function of the seed
// (the paper's results); host-clock metrics time the calls into the simulator.
//
// One run repeats the workload's episode (set-up + measured phase, each from
// fresh state) until --seconds of host time have passed, and reports host
// medians. Every episode must reproduce the first one's sim_digest.
//
//   dvebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//   dvebench --selftest
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
// last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
// exit code is non-zero when a correctness check fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <string>
#include <vector>

#include "src/ckpt/dirty_tracker.hpp"
#include "src/common/rng.hpp"
#include "src/dve/population.hpp"
#include "src/dve/testbed.hpp"
#include "src/dve/zone_server.hpp"
#include "src/mig/capture.hpp"
#include "src/mig/delta_tracker.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/span.hpp"
#include "src/proc/node.hpp"

using namespace dvemig;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Host-speed reference. The machines this runs on share CPUs and memory
/// with other tenants, and their speed drifts by tens of percent within
/// minutes (README.md, "Host noise"). A fixed piece of reference work -- hash
/// map updates, a binary heap and small allocations, the operations the
/// simulator's hot paths consist of, using the standard library only so no
/// change to src/ can move it -- is timed between simulation slices. Host
/// times are reported scaled to a host on which the reference takes
/// kRefNominalS: raw seconds x kRefNominalS / (median reference time around
/// them).
class HostRef {
 public:
  static constexpr double kRefNominalS = 0.0125;

  /// Run the reference once; returns its host seconds.
  double sample() {
    const auto t0 = Clock::now();
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> q;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 100'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      m[x % 65'536] += x;
      q.push(x);
      if (q.size() > 4096) {
        sink_ += q.top();
        q.pop();
      }
      auto p = std::make_unique<std::uint64_t[]>(8);
      p[x % 8] = x;
      sink_ += p[x % 8];
    }
    sink_ += m.size();
    const double s = since(t0);
    samples_.push_back(s);
    spent_ += s;
    last_ = Clock::now();
    return s;
  }

  /// Sample if half a second of host time has passed since the last one.
  void maybe_sample() {
    if (since(last_) >= 0.5) sample();
  }

  /// Host seconds spent in the reference so far (excluded from timings).
  double spent() const { return spent_; }
  std::size_t count() const { return samples_.size(); }
  /// Median reference time over the samples taken since `from` (a count()).
  double median_since(std::size_t from) const {
    return median(std::vector<double>(samples_.begin() + static_cast<std::ptrdiff_t>(from),
                                      samples_.end()));
  }

 private:
  std::vector<double> samples_;
  double spent_{0};
  Clock::time_point last_{Clock::now()};
  std::uint64_t sink_{0};
};

HostRef g_ref;

/// Times a stretch of host work, minus the reference samples taken inside it.
class HostTimer {
 public:
  HostTimer() : t0_(Clock::now()), spent0_(g_ref.spent()) {}
  double elapsed() const { return since(t0_) - (g_ref.spent() - spent0_); }

 private:
  Clock::time_point t0_;
  double spent0_;
};

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// "VmHWM" etc. from /proc/self/status, in MiB.
double proc_status_mib(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(std::strlen(key) + 1)) / 1024.0;
  }
  return 0;
}

std::uint64_t counter(const char* name) {
  const obs::Counter* c = obs::Registry::instance().find_counter(name);
  return c ? c->value() : 0;
}

/// FNV-1a over the sim-visible outputs of an episode.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) u64(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{14695981039346656037ULL};
};

void digest_stats(Digest& d, const mig::MigrationStats& s) {
  d.u64(s.pid.value);
  d.str(s.proc_name);
  d.u64(static_cast<std::uint64_t>(s.strategy));
  d.u64(s.live);
  d.u64(static_cast<std::uint64_t>(s.parallelism));
  d.u64(s.src_node.value);
  d.u64(s.dst_node.value);
  d.u64(static_cast<std::uint64_t>(s.t_start.ns));
  d.u64(static_cast<std::uint64_t>(s.t_freeze_begin.ns));
  d.u64(static_cast<std::uint64_t>(s.t_resume.ns));
  d.u64(static_cast<std::uint64_t>(s.precopy_rounds));
  d.u64(s.precopy_channel_bytes);
  d.u64(s.precopy_socket_bytes);
  d.u64(s.freeze_channel_bytes);
  d.u64(s.freeze_socket_bytes);
  d.u64(s.socket_count);
  d.u64(s.captured);
  d.u64(s.reinjected);
  d.u64(s.success);
}

/// What one call of a workload does: set up only (an extra set-up time
/// sample), a full untraced episode, or a full traced one.
enum class Mode { setup_only, plain, traced };

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool short_run{false};  // self-test sizes
  std::string out;
};

/// One migration as the benchmark saw it.
struct MigRecord {
  mig::MigrationStats stats;
  double host_s{0};  // migrate() -> done callback; benchmark-driven moves only
  std::map<std::string, double> span_ms;  // sim-time phase spans
};

/// Everything one episode produced.
struct Episode {
  double setup_s{0}, run_s{0};  // raw host seconds, reference samples excluded
  double ref_s{0};              // median reference time during the episode
  double testbed_build_s{0}, server_launch_s{0}, client_connect_s{0};
  std::vector<MigRecord> migs;
  std::uint64_t mig_started{0};
  double peak_rss_mib{0};  // VmHWM at the end of the measured phase
  double cpu_spread_pct{0};
  double packet_delay_ms_max{0};
  std::uint64_t connections_opened{0}, resets{0};
  std::uint64_t forwarded{0}, dropped{0};
  std::uint64_t digest{0};
  std::map<std::string, double> layer;  // per-layer metrics (traced episodes)
};

const char* const kPhaseSpans[][2] = {
    {"mig.precopy", "mig.precopy_ms"},
    {"mig.capture_arm", "mig.freeze.capture_arm_ms"},
    {"mig.translate", "mig.freeze.translate_ms"},
    {"mig.subtract", "mig.freeze.subtract_ms"},
    {"mig.final_transfer", "mig.freeze.final_transfer_ms"},
    {"mig.restore", "mig.restore_ms"},
};

/// Drives a testbed in fixed sim-time slices (the same grid traced or not, so
/// tracing cannot change the simulation), samples node CPU on a fixed grid,
/// and records every migration that completes.
class SimRunner {
 public:
  SimRunner(dve::Testbed& bed, bool traced, SimDuration slice, SimDuration cpu_every)
      : bed_(&bed), traced_(traced), slice_(slice), cpu_every_(cpu_every) {}

  void on_done(const mig::MigrationStats& s) {
    MigRecord r;
    r.stats = s;
    if (pending_start_) r.host_s = pending_start_->elapsed();
    pending_start_.reset();
    const obs::Tracer& tr = obs::Tracer::instance();
    for (const auto& span : kPhaseSpans) {
      const obs::Span* sp = tr.last_completed(span[0]);
      r.span_ms[span[1]] = sp ? static_cast<double>(sp->duration_ns()) / 1e6 : 0.0;
    }
    migs_.push_back(std::move(r));
  }

  /// Run to absolute sim time `until`.
  void advance_to(SimTime until) {
    sim::Engine& eng = bed_->engine();
    while (eng.now() < until) {
      SimTime step = std::min(until, eng.now() + slice_);
      const SimTime next_sample = SimTime{(eng.now().ns / cpu_every_.ns + 1) * cpu_every_.ns};
      step = std::min(step, next_sample);
      const bool busy_before = any_busy();
      const std::size_t migs_before = migs_.size();
      const SimTime t0 = eng.now();
      const auto h0 = Clock::now();
      eng.run_until(step);
      if (traced_ && !busy_before && !any_busy() && migs_.size() == migs_before) {
        steady_host_s_ += since(h0);
        steady_sim_s_ += (eng.now() - t0).to_sec();
      }
      if (eng.now() == next_sample) sample_cpu();
      g_ref.maybe_sample();
    }
  }

  /// Benchmark-driven live migration: start it, run until it reports back,
  /// then let the system settle for `settle`.
  void migrate(std::size_t from, std::size_t to, Pid pid, const mig::MigrateOptions& opts,
               SimDuration settle) {
    started_ += 1;
    const std::size_t before = migs_.size();
    pending_start_.emplace();
    if (!bed_->node(from).migd.migrate(pid, bed_->node(to).node.local_addr(), opts,
                                      [this](const mig::MigrationStats& s) { on_done(s); })) {
      pending_start_.reset();
      return;  // counted as started, never completes: a failed check
    }
    for (int i = 0; i < 4000 && migs_.size() == before; ++i) {
      advance_to(bed_->engine().now() + slice_);
    }
    advance_to(bed_->engine().now() + settle);
  }

  void sample_cpu() {
    std::vector<double> cpu;
    for (std::size_t n = 0; n < bed_->node_count(); ++n) {
      cpu.push_back(bed_->node(n).node.cpu().node_utilization() * 100.0);
    }
    samples_.push_back({bed_->engine().now(), std::move(cpu)});
  }

  /// Mean over CPU samples after the first completed migration of the
  /// (max - min) node CPU %.
  double cpu_spread_pct() const {
    if (migs_.empty()) return 0;
    const SimTime first = migs_.front().stats.t_resume;
    double sum = 0;
    int n = 0;
    for (const auto& [t, cpu] : samples_) {
      if (t <= first) continue;
      const auto [lo, hi] = std::minmax_element(cpu.begin(), cpu.end());
      sum += *hi - *lo;
      n += 1;
    }
    return n ? sum / n : 0;
  }

  const std::vector<MigRecord>& migs() const { return migs_; }
  const std::vector<std::pair<SimTime, std::vector<double>>>& samples() const {
    return samples_;
  }
  std::uint64_t started() const { return started_; }
  double steady_host_s_per_sim_s() const {
    return steady_sim_s_ > 0 ? steady_host_s_ / steady_sim_s_ : 0;
  }

 private:
  bool any_busy() const {
    for (std::size_t n = 0; n < bed_->node_count(); ++n) {
      if (bed_->node(n).migd.busy_sending()) return true;
    }
    return false;
  }

  dve::Testbed* bed_;
  bool traced_;
  SimDuration slice_;
  SimDuration cpu_every_;
  std::vector<MigRecord> migs_;
  std::vector<std::pair<SimTime, std::vector<double>>> samples_;
  std::optional<HostTimer> pending_start_;
  std::uint64_t started_{0};
  double steady_host_s_{0};
  double steady_sim_s_{0};
};

// ---------------------------------------------------------------------------
// Probes: host cost of single layer functions, on objects the benchmark builds
// itself (or on copies), so they never touch the simulation being measured.
// ---------------------------------------------------------------------------

/// SocketDeltaTracker::emit_tcp on unchanged images of every live TCP socket.
double probe_delta_check_ns(dve::Testbed& bed) {
  std::vector<mig::TcpImage> imgs;
  for (std::size_t n = 0; n < bed.node_count(); ++n) {
    for (const auto& [pid, p] : bed.node(n).node.processes()) {
      for (const auto& [fd, f] : p->files().entries()) {
        auto tcp = std::dynamic_pointer_cast<stack::TcpSocket>(f.socket);
        if (f.kind == proc::FileKind::socket && tcp) imgs.push_back(mig::extract_tcp(*tcp, fd));
      }
    }
  }
  if (imgs.empty()) return 0;
  mig::SocketDeltaTracker tracker;
  BinaryWriter w;
  for (const auto& img : imgs) tracker.emit_tcp(img, w, /*force_all=*/true);
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    w.clear();
    const auto t0 = Clock::now();
    for (const auto& img : imgs) tracker.emit_tcp(img, w, false);
    const double ns = since(t0) * 1e9 / static_cast<double>(imgs.size());
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

net::Ipv4Addr flow_addr(std::size_t i) {
  return net::Ipv4Addr::octets(10, static_cast<std::uint8_t>(1 + (i >> 16)),
                               static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i));
}

/// NetStack::rx through a capture index holding `specs` specs, on a stack of
/// its own (the connection_scale bench's match-cost measurement). Needs its
/// own engine, so it runs after the episode's testbed is gone.
double probe_capture_match_ns(std::size_t specs) {
  specs = std::max<std::size_t>(specs, 1);
  sim::Engine engine;
  stack::NetStack host(engine, "probe", SimTime::zero());
  mig::CaptureManager cap(host);
  const std::uint64_t session = cap.begin_session();
  for (std::size_t i = 0; i < specs; ++i) {
    cap.add_spec(session, mig::CaptureSpec{net::IpProto::tcp, true,
                                           net::Endpoint{flow_addr(i), 41000}, 9000});
  }
  const std::size_t flows = std::min<std::size_t>(512, specs);
  const std::size_t stride = specs / flows;
  std::vector<net::Packet> pool;
  for (std::size_t k = 0; k < 2048; ++k) {
    net::TcpHeader hdr;
    hdr.flags = net::tcp_flags::ack;
    hdr.seq = static_cast<std::uint32_t>(k / flows) % 16;
    const net::Port dport = k % 4 == 3 ? net::Port{9003} : net::Port{9000};
    pool.push_back(net::make_tcp({flow_addr((k % flows) * stride), 41000},
                                 {net::Ipv4Addr::octets(10, 0, 0, 99), dport}, hdr, {}));
  }
  constexpr std::size_t kPackets = 50'000;
  for (std::size_t k = 0; k < kPackets; ++k) host.rx(pool[k % pool.size()]);  // warm-up
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kPackets; ++k) host.rx(pool[k % pool.size()]);
    const double ns = since(t0) * 1e9 / static_cast<double>(kPackets);
    if (rep == 0 || ns < best) best = ns;
  }
  cap.abort_session(session);
  return best;
}

/// DirtyTracker::round over an address space of `heap_bytes` with 1/64 of its
/// pages dirtied between rounds, per page of the address space.
double probe_dirty_round_ns_per_page(std::uint64_t heap_bytes) {
  proc::AddressSpace mem;
  mem.mmap(heap_bytes, proc::prot_read | proc::prot_write, "[heap]");
  ckpt::DirtyTracker tracker;
  tracker.round(mem);
  Rng rng(7);
  const std::uint64_t pages = mem.total_pages();
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    mem.touch_random(rng, pages / 64);
    const auto t0 = Clock::now();
    const ckpt::MemoryDelta d = tracker.round(mem);
    const double ns = since(t0) * 1e9 / static_cast<double>(pages);
    if (d.dirty_pages.empty()) return 0;
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Episode bookkeeping shared by the workloads.
// ---------------------------------------------------------------------------

/// Pids seed each process's workload RNG and the registry/tracer are process
/// singletons: without these resets an episode's results would depend on what
/// ran before it in the same OS process.
void reset_process_state() {
  proc::Node::reset_pid_counter();
  obs::Registry::instance().reset();
  obs::Tracer::instance().clear();
}

struct ServerTotals {
  std::uint64_t ticks{0}, updates{0}, max_sockets{0};
};

ServerTotals server_totals(dve::Testbed& bed) {
  ServerTotals t;
  for (std::size_t n = 0; n < bed.node_count(); ++n) {
    for (const auto& [pid, p] : bed.node(n).node.processes()) {
      const auto* zs = dynamic_cast<const dve::ZoneServerApp*>(p->app().get());
      if (!zs) continue;
      t.ticks += zs->ticks();
      t.updates += zs->updates_sent();
      t.max_sockets = std::max<std::uint64_t>(t.max_sockets, p->files().socket_count());
    }
  }
  return t;
}

/// Fill the sim-side fields of `ep` from the finished testbed and runner.
/// `d` has already absorbed the workload's client counters.
void finish_episode(Episode& ep, dve::Testbed& bed, const SimRunner& runner, Digest& d,
                    std::uint64_t mig_started) {
  ep.migs = runner.migs();
  ep.mig_started = mig_started;
  ep.cpu_spread_pct = runner.cpu_spread_pct();
  const obs::Histogram* delay =
      obs::Registry::instance().find_histogram("capture.packet_delay_us");
  ep.packet_delay_ms_max = delay ? delay->max() / 1000.0 : 0;
  ep.forwarded = bed.cluster_switch().forwarded() + bed.router().broadcast_copies() +
                 bed.router().to_clients();
  ep.dropped = bed.cluster_switch().dropped_unroutable() + bed.router().dropped();
  for (const MigRecord& m : ep.migs) digest_stats(d, m.stats);
  d.f64(ep.packet_delay_ms_max);
  for (const auto& [t, cpu] : runner.samples()) {
    d.u64(static_cast<std::uint64_t>(t.ns));
    for (const double c : cpu) d.f64(c);
  }
  ep.digest = d.value();
}

/// Layer counters read from the live testbed, the registry and the tracer,
/// before any probe runs (probes would add to the registry).
void collect_layers(Episode& ep, dve::Testbed& bed, const SimRunner& runner,
                    std::uint64_t events, std::uint64_t faults, const ServerTotals& st,
                    std::uint64_t handoffs) {
  auto& L = ep.layer;
  L["sim.events"] = static_cast<double>(events);
  L["sim.ns_per_event"] = events ? ep.run_s * 1e9 / static_cast<double>(events) : 0;
  const obs::Gauge* peak = obs::Registry::instance().find_gauge("sim.pending_events_peak");
  L["sim.pending_peak"] = peak ? peak->value() : 0;
  L["dve.steady_host_s_per_sim_s"] = runner.steady_host_s_per_sim_s();
  L["dve.ticks"] = static_cast<double>(st.ticks);
  L["dve.updates_sent"] = static_cast<double>(st.updates);
  L["dve.zone_handoffs"] = static_cast<double>(handoffs);
  L["dve.testbed_build_s"] = ep.testbed_build_s;
  L["dve.server_launch_s"] = ep.server_launch_s;
  L["dve.client_connect_s"] = ep.client_connect_s;
  L["proc.minor_faults"] = static_cast<double>(faults);
  L["net.switch_forwarded"] = static_cast<double>(bed.cluster_switch().forwarded());
  L["net.router_broadcast_copies"] = static_cast<double>(bed.router().broadcast_copies());
  L["net.dropped"] = static_cast<double>(ep.dropped);
  L["stack.tcp_retransmits"] = static_cast<double>(counter("tcp.retransmits"));
  L["stack.nf_stolen"] = static_cast<double>(counter("nf.stolen"));

  std::vector<double> rounds, pre_bytes, fz_sock, host_s, overhead_s;
  std::map<std::string, std::vector<double>> spans;
  std::uint64_t captured = 0, reinjected = 0;
  const double steady = runner.steady_host_s_per_sim_s();
  for (const MigRecord& m : ep.migs) {
    rounds.push_back(m.stats.precopy_rounds);
    pre_bytes.push_back(static_cast<double>(m.stats.precopy_channel_bytes));
    fz_sock.push_back(static_cast<double>(m.stats.freeze_socket_bytes));
    captured += m.stats.captured;
    reinjected += m.stats.reinjected;
    if (m.host_s > 0) {
      host_s.push_back(m.host_s);
      overhead_s.push_back(m.host_s - steady * m.stats.total_time().to_sec());
    }
    for (const auto& [k, v] : m.span_ms) spans[k].push_back(v);
  }
  L["mig.migrations"] = static_cast<double>(ep.migs.size());
  L["mig.precopy_rounds_p50"] = median(rounds);
  L["mig.precopy_bytes_p50"] = median(pre_bytes);
  L["mig.stripe_segments"] = static_cast<double>(counter("mig.stripe_segments"));
  L["mig.freeze_socket_bytes_p50"] = median(fz_sock);
  L["mig.captured"] = static_cast<double>(captured);
  L["mig.reinjected"] = static_cast<double>(reinjected);
  L["mig.packet_delay_ms_max"] = ep.packet_delay_ms_max;
  L["mig.capture_dedup_hits"] = static_cast<double>(counter("capture.dedup_hits"));
  L["mig.host_s_per_mig"] = median(host_s);
  L["mig.host_overhead_s_per_mig"] = median(overhead_s);
  for (const auto& span : kPhaseSpans) L[span[1]] = median(spans[span[1]]);

  std::uint64_t initiated = 0, accepted = 0, rejected = 0;
  for (std::size_t n = 0; n < bed.node_count(); ++n) {
    const lb::Conductor& c = bed.node(n).conductor;
    initiated += c.migrations_initiated();
    accepted += c.offers_accepted();
    rejected += c.offers_rejected();
  }
  L["lb.migrations_initiated"] = static_cast<double>(initiated);
  L["lb.offers_accepted"] = static_cast<double>(accepted);
  L["lb.offers_rejected"] = static_cast<double>(rejected);
  L["lb.offer_accept_ratio"] =
      accepted + rejected ? static_cast<double>(accepted) / static_cast<double>(accepted + rejected)
                          : 0;
  L["lb.first_migration_s"] = ep.migs.empty() ? 0 : ep.migs.front().stats.t_resume.to_sec();
  L["lb.heartbeats_sent"] = static_cast<double>(counter("lb.heartbeats_sent"));

  const obs::Tracer& tr = obs::Tracer::instance();
  L["obs.spans_completed"] = static_cast<double>(tr.completed_count());
  L["obs.spans_dropped"] = static_cast<double>(tr.dropped());
  L["obs.host_ref_ms"] = ep.ref_s * 1e3;

  L["mig.delta_check_ns_per_socket"] = probe_delta_check_ns(bed);
}

// ---------------------------------------------------------------------------
// Workloads. Each builds its testbed from scratch, so episodes are independent.
// ---------------------------------------------------------------------------

/// The seed's influence on a workload: the cluster link's latency gains
/// [0, 100 ns), and a phase jitter in [0, 200 us) is drawn before the connect
/// ramp and before each migration. Both make every sim result seed-specific
/// while leaving each move's phase against the 20 Hz tick in place; offsets
/// spanning a whole tick make a move's freeze carry a socket delta or not at
/// random, and the freeze-bytes median then jumps between ~1 KB and ~17 KB
/// from seed to seed (README.md, "Seeds").
SimDuration phase_jitter(Rng& rng) {
  return SimTime::nanoseconds(static_cast<std::int64_t>(rng.next_below(200'000)));
}

SimDuration latency_jitter(Rng& rng) {
  return SimTime::nanoseconds(static_cast<std::int64_t>(rng.next_below(100)));
}

Episode run_dve_lb(const Options& o, Mode mode) {
  reset_process_state();
  const std::size_t ref0 = g_ref.count();
  g_ref.sample();
  constexpr std::uint32_t kNodes = 5;
  const std::uint32_t clients = o.short_run ? 600 : 10'000;
  const std::int64_t duration_s = o.short_run ? 90 : 300;
  const bool traced = mode == Mode::traced;
  Rng rng(o.seed);
  Episode ep;

  const HostTimer t0;
  dve::TestbedConfig cfg;
  cfg.dve_nodes = kNodes;
  cfg.cluster_link.latency += latency_jitter(rng);
  auto bed = std::make_unique<dve::Testbed>(cfg);
  ep.testbed_build_s = t0.elapsed();

  const HostTimer t1;
  dve::ZoneGrid grid;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (const dve::ZoneId z : grid.zones_of_node(n, kNodes)) {
      dve::ZoneServerConfig zs;
      zs.zone = z;
      zs.base_cores = 0.010;
      zs.per_client_cores = 0.0007;
      zs.db_addr = bed->db_node()->local_addr();
      dve::ZoneServerApp::launch(bed->node(n).node, zs);
    }
  }
  ep.server_launch_s = t1.elapsed();

  const HostTimer t2;
  SimRunner runner(*bed, traced, SimTime::seconds(1), SimTime::seconds(10));
  dve::PopulationConfig pc;
  pc.client_count = clients;
  pc.move_start = SimTime::seconds(60);
  pc.move_end = SimTime::seconds(duration_s * 4 / 5);
  pc.move_step_prob = 0.08;
  pc.connect_ramp += phase_jitter(rng);
  auto pop = std::make_unique<dve::Population>(*bed, grid, pc);
  pop->populate();
  pop->start_movement();
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    bed->node(n).conductor.set_enabled(true);
    bed->node(n).conductor.set_on_migration(
        [&runner](const mig::MigrationStats& s) { runner.on_done(s); });
  }
  runner.advance_to(SimTime{pc.connect_ramp.ns} + SimTime::seconds(2));
  ep.client_connect_s = t2.elapsed();
  ep.setup_s = t0.elapsed();
  if (mode == Mode::setup_only) {
    g_ref.sample();
    ep.ref_s = g_ref.median_since(ref0);
    return ep;
  }

  const std::uint64_t ev0 = bed->engine().events_fired();
  const std::uint64_t f0 = minor_faults();
  const HostTimer t3;
  runner.advance_to(SimTime::seconds(duration_s));
  ep.run_s = t3.elapsed();
  ep.peak_rss_mib = proc_status_mib("VmHWM");
  g_ref.sample();
  ep.ref_s = g_ref.median_since(ref0);
  const std::uint64_t faults = minor_faults() - f0;

  std::uint64_t initiated = 0;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    initiated += bed->node(n).conductor.migrations_initiated();
  }
  ep.resets = pop->total_resets();
  ep.connections_opened = clients + pop->zone_handoffs();
  Digest d;
  d.u64(ep.resets);
  d.u64(pop->zone_handoffs());
  finish_episode(ep, *bed, runner, d, initiated);
  if (traced) {
    collect_layers(ep, *bed, runner, bed->engine().events_fired() - ev0, faults,
                   server_totals(*bed), pop->zone_handoffs());
  }
  const std::uint64_t max_socks = server_totals(*bed).max_sockets;
  pop.reset();  // its clients live in the testbed's client hosts
  bed.reset();
  if (traced) {
    ep.layer["mig.capture_match_ns"] = probe_capture_match_ns(max_socks);
    ep.layer["ckpt.round_ns_per_page"] =
        probe_dirty_round_ns_per_page(dve::ZoneServerConfig{}.heap_bytes);
  }
  return ep;
}

/// Shared by conn_scale and bulk_precopy: one zone server on node0 of a
/// 2-node testbed, `clients` TCP clients of which the first `active` send
/// 48 B every 50 ms, then `moves` live migrations alternating 0->1, 1->0.
struct MoveWorkload {
  std::size_t clients{1};
  std::size_t active{1};
  std::uint64_t heap_bytes{12ull << 20};
  bool with_db{true};
  std::uint32_t rails{1};
  std::int64_t initial_loop_timeout_ns{mig::CostModel{}.initial_loop_timeout_ns};
  int moves{2};
  int parallelism{1};
  SimDuration slice{SimTime::milliseconds(250)};
  SimDuration settle{SimTime::seconds(1)};
};

Episode run_moves(const Options& o, Mode mode, const MoveWorkload& w) {
  reset_process_state();
  const std::size_t ref0 = g_ref.count();
  g_ref.sample();
  const bool traced = mode == Mode::traced;
  Rng rng(o.seed);
  Episode ep;

  const HostTimer t0;
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.with_db = w.with_db;
  cfg.start_conductors = false;
  cfg.cluster_link.rails = w.rails;
  cfg.cluster_link.latency += latency_jitter(rng);
  cfg.cost_model.initial_loop_timeout_ns = w.initial_loop_timeout_ns;
  auto bed = std::make_unique<dve::Testbed>(cfg);
  ep.testbed_build_s = t0.elapsed();

  const HostTimer t1;
  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.active_updates = true;
  zs.heap_bytes = w.heap_bytes;
  zs.use_db = w.with_db;
  if (w.with_db) zs.db_addr = bed->db_node()->local_addr();
  zs.per_client_cores = std::min(0.0002, 0.5 / static_cast<double>(w.clients));
  const Pid pid = dve::ZoneServerApp::launch(bed->node(0).node, zs)->pid();
  ep.server_launch_s = t1.elapsed();

  // Client hosts are shared (each holds one NetStack): enough for port
  // diversity, far fewer than connections.
  const HostTimer t2;
  SimRunner runner(*bed, traced, w.slice, SimTime::seconds(1));
  const std::size_t host_n = std::min<std::size_t>(w.clients, 256);
  std::vector<dve::ClientHost*> hosts;
  for (std::size_t i = 0; i < host_n; ++i) hosts.push_back(&bed->make_client_host());
  std::vector<std::unique_ptr<dve::TcpDveClient>> clients;
  for (std::size_t i = 0; i < w.clients; ++i) {
    auto c = std::make_unique<dve::TcpDveClient>(*hosts[i % host_n], bed->public_ip());
    if (i < w.active) c->set_active(SimTime::milliseconds(50), 48);
    clients.push_back(std::move(c));
  }
  const std::int64_t interval_us =
      std::max<std::int64_t>(5, 1'000'000 / static_cast<std::int64_t>(w.clients));
  const SimDuration ramp_start = phase_jitter(rng);
  for (std::size_t i = 0; i < w.clients; ++i) {
    bed->engine().schedule_after(
        ramp_start + SimTime::microseconds(interval_us * static_cast<std::int64_t>(i)),
        [&clients, i] { clients[i]->connect_to_zone(1); });
  }
  runner.advance_to(ramp_start +
                 SimTime::microseconds(interval_us * static_cast<std::int64_t>(w.clients)) +
                 SimTime::milliseconds(400));
  ep.client_connect_s = t2.elapsed();
  ep.setup_s = t0.elapsed();
  if (mode == Mode::setup_only) {
    g_ref.sample();
    ep.ref_s = g_ref.median_since(ref0);
    clients.clear();  // before the testbed their hosts live in
    return ep;
  }

  const std::uint64_t ev0 = bed->engine().events_fired();
  const std::uint64_t f0 = minor_faults();
  const HostTimer t3;
  mig::MigrateOptions opts;
  opts.strategy = mig::SocketMigStrategy::incremental_collective;
  opts.config.parallelism = w.parallelism;
  for (int m = 0; m < w.moves; ++m) {
    runner.advance_to(bed->engine().now() + phase_jitter(rng));
    const std::size_t from = static_cast<std::size_t>(m % 2);
    runner.migrate(from, 1 - from, pid, opts, w.settle);
  }
  ep.run_s = t3.elapsed();
  ep.peak_rss_mib = proc_status_mib("VmHWM");
  g_ref.sample();
  ep.ref_s = g_ref.median_since(ref0);
  const std::uint64_t faults = minor_faults() - f0;

  Digest d;
  for (const auto& c : clients) {
    ep.resets += c->resets_seen();
    d.u64(c->resets_seen());
    d.u64(c->bytes_received());
    d.u64(c->updates_received());
  }
  ep.connections_opened = w.clients;
  finish_episode(ep, *bed, runner, d, runner.started());
  if (traced) {
    collect_layers(ep, *bed, runner, bed->engine().events_fired() - ev0, faults,
                   server_totals(*bed), 0);
  }
  clients.clear();
  bed.reset();
  if (traced) {
    ep.layer["mig.capture_match_ns"] = probe_capture_match_ns(w.clients + 1);
    ep.layer["ckpt.round_ns_per_page"] = probe_dirty_round_ns_per_page(w.heap_bytes);
  }
  return ep;
}

Episode run_conn_scale(const Options& o, Mode mode) {
  MoveWorkload w;
  w.clients = o.short_run ? 500 : 10'000;
  w.active = 256;
  return run_moves(o, mode, w);
}

Episode run_bulk_precopy(const Options& o, Mode mode) {
  MoveWorkload w;
  w.clients = 1;
  w.active = 1;
  w.heap_bytes = o.short_run ? (8ull << 20) : (96ull << 20);
  w.with_db = false;
  w.rails = 4;
  w.initial_loop_timeout_ns = 80'000'000;
  w.moves = o.short_run ? 2 : 12;
  w.parallelism = 4;
  w.slice = SimTime::milliseconds(100);
  w.settle = SimTime::milliseconds(250);
  return run_moves(o, mode, w);
}

using WorkloadFn = Episode (*)(const Options&, Mode);

WorkloadFn find_workload(const std::string& name) {
  if (name == "dve_lb") return run_dve_lb;
  if (name == "conn_scale") return run_conn_scale;
  if (name == "bulk_precopy") return run_bulk_precopy;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Checks and reporting.
// ---------------------------------------------------------------------------

/// Correctness checks on one episode; each failure is printed to stderr.
int count_failed_checks(const Options& o, const Episode& ep) {
  int bad = 0;
  auto check = [&bad](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "dvebench: check failed: %s\n", what.c_str());
      bad += 1;
    }
  };
  std::uint64_t captured = 0, reinjected = 0, ok = 0;
  for (const MigRecord& m : ep.migs) {
    ok += m.stats.success;
    captured += m.stats.captured;
    reinjected += m.stats.reinjected;
  }
  check(ok == ep.mig_started && ok == ep.migs.size(),
        std::to_string(ep.migs.size() - ok) + " of " + std::to_string(ep.mig_started) +
            " migrations failed or never completed");
  check(ep.resets == 0, std::to_string(ep.resets) + " client connection resets");
  check(captured == reinjected, "captured " + std::to_string(captured) + " != reinjected " +
                                    std::to_string(reinjected));
  // The self-test's short dve_lb is too small to unbalance the cluster.
  check(o.workload != "dve_lb" || o.short_run || !ep.migs.empty(),
        "dve_lb performed no migration");
  check(ep.dropped == 0, std::to_string(ep.dropped) + " packets dropped by switch/router");
  return bad;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Raw host seconds scaled to the reference host (HostRef).
double scaled(double raw_s, double ref_s) { return raw_s * HostRef::kRefNominalS / ref_s; }

std::vector<Metric> end_to_end(const std::vector<Episode>& eps,
                               const std::vector<double>& setup) {
  std::vector<double> run, freeze, fz_bytes, mig_ms;
  for (const Episode& e : eps) run.push_back(scaled(e.run_s, e.ref_s));
  const Episode& first = eps.front();  // sim metrics are identical per episode
  for (const MigRecord& m : first.migs) {
    freeze.push_back(m.stats.freeze_time().to_ms());
    fz_bytes.push_back(static_cast<double>(m.stats.freeze_channel_bytes));
    mig_ms.push_back(m.stats.total_time().to_ms());
  }
  auto ratio_ok = [](double bad, double total) { return total > 0 ? 1.0 - bad / total : 1.0; };
  std::uint64_t ok = 0;
  for (const MigRecord& m : first.migs) ok += m.stats.success;
  return {
      {"setup_s", median(setup), "s"},
      {"run_s", median(run), "s"},
      // The first episode's: later ones add allocator fragmentation, and how
      // many run depends on the host's speed.
      {"peak_rss_mib", first.peak_rss_mib, "MiB"},
      {"freeze_ms_p50", median(freeze), "sim_ms"},
      {"freeze_ms_max", max_of(freeze), "sim_ms"},
      {"freeze_bytes_p50", median(fz_bytes), "bytes"},
      {"migration_ms_p50", median(mig_ms), "sim_ms"},
      {"cpu_spread_pct", first.cpu_spread_pct, "%"},
      {"mig_ok_ratio",
       ratio_ok(static_cast<double>(first.mig_started - ok), static_cast<double>(first.mig_started)),
       "ratio"},
      {"client_ok_ratio",
       ratio_ok(static_cast<double>(first.resets), static_cast<double>(first.connections_opened)),
       "ratio"},
      {"net_delivered_ratio",
       ratio_ok(static_cast<double>(first.dropped), static_cast<double>(first.forwarded)), "ratio"},
  };
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Units of the per-layer metrics. "sim_ms"/"sim_s" are simulated time,
/// "s"/"ns" host time.
std::string layer_unit(const std::string& name) {
  static const std::map<std::string, std::string> units = {
      {"sim.ns_per_event", "ns"},
      {"dve.steady_host_s_per_sim_s", "s/sim_s"},
      {"dve.testbed_build_s", "s"},
      {"dve.server_launch_s", "s"},
      {"dve.client_connect_s", "s"},
      {"mig.precopy_bytes_p50", "bytes"},
      {"mig.freeze_socket_bytes_p50", "bytes"},
      {"mig.packet_delay_ms_max", "sim_ms"},
      {"mig.host_s_per_mig", "s"},
      {"mig.host_overhead_s_per_mig", "s"},
      {"mig.delta_check_ns_per_socket", "ns"},
      {"mig.capture_match_ns", "ns"},
      {"mig.precopy_ms", "sim_ms"},
      {"mig.freeze.capture_arm_ms", "sim_ms"},
      {"mig.freeze.translate_ms", "sim_ms"},
      {"mig.freeze.subtract_ms", "sim_ms"},
      {"mig.freeze.final_transfer_ms", "sim_ms"},
      {"mig.restore_ms", "sim_ms"},
      {"ckpt.round_ns_per_page", "ns"},
      {"lb.offer_accept_ratio", "ratio"},
      {"lb.first_migration_s", "sim_s"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"obs.host_ref_ms", "ms"},
  };
  const auto it = units.find(name);
  return it == units.end() ? "count" : it->second;
}

int run_benchmark(const Options& o) {
  const WorkloadFn fn = find_workload(o.workload);
  if (!fn) {
    std::fprintf(stderr, "dvebench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::printf("# dvebench workload=%s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("# provenance build_type=%s cxx_flags=\"%s\" compiler=\"%s\" nproc=%ld cpu=\"%s\"\n",
              DVEBENCH_BUILD_TYPE, DVEBENCH_CXX_FLAGS, __VERSION__, sysconf(_SC_NPROCESSORS_ONLN),
              cpu_model().c_str());

  // Untraced episodes give the end-to-end metrics. A traced run measures one
  // untraced episode as its overhead baseline, then traced ones.
  std::vector<Episode> plain, traced;
  std::vector<double> setups;
  const auto start = Clock::now();
  int bad = 0;
  do {
    const bool t = o.trace && !plain.empty();
    Episode ep = fn(o, t ? Mode::traced : Mode::plain);
    bad += count_failed_checks(o, ep);
    setups.push_back(scaled(ep.setup_s, ep.ref_s));
    (t ? traced : plain).push_back(std::move(ep));
  } while (since(start) < o.seconds || (o.trace && traced.empty()));
  // Set-up is short next to an episode: take extra samples so its median is
  // steady, up to 9 samples or 3 s.
  const auto extra = Clock::now();
  while (!o.trace && setups.size() < 9 && since(extra) < 3.0) {
    const Episode ep = fn(o, Mode::setup_only);
    setups.push_back(scaled(ep.setup_s, ep.ref_s));
  }

  const std::uint64_t digest = plain.front().digest;
  std::size_t episodes = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const Episode& e : *set) {
      episodes += 1;
      if (e.digest != digest) {
        std::fprintf(stderr, "dvebench: check failed: episode sim_digest %s != %s\n",
                     hex(e.digest).c_str(), hex(digest).c_str());
        bad += 1;
      }
    }
  }
  std::printf("# episodes (raw run_s / reference ms):");
  for (const auto* set : {&plain, &traced}) {
    for (const Episode& e : *set) std::printf(" %.3f/%.2f", e.run_s, e.ref_s * 1e3);
  }
  std::printf("\n# setup_s samples, scaled:");
  for (const double v : setups) std::printf(" %.4f", v);
  std::printf("\n");
  const Episode& first = plain.front();
  std::printf("# sim_digest %s (identical over %zu episodes)\n", hex(digest).c_str(), episodes);
  std::printf("# migrations %zu (freeze/migration statistics over these samples)\n",
              first.migs.size());

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = end_to_end(plain, setups);
  } else {
    std::map<std::string, std::vector<double>> per;
    std::vector<double> runs;
    for (const Episode& e : traced) {
      runs.push_back(scaled(e.run_s, e.ref_s));
      for (const auto& [k, v] : e.layer) per[k].push_back(v);
    }
    per["obs.trace_overhead_ratio"] = {median(runs) /
                                       scaled(plain.front().run_s, plain.front().ref_s)};
    for (const auto& [k, v] : per) metrics.push_back({k, median(v), layer_unit(k)});
  }
  for (const Metric& m : metrics) {
    std::printf("# %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const Episode& e : *set) {
      attempted += e.mig_started;
      std::uint64_t ok = 0;
      for (const MigRecord& m : e.migs) ok += m.stats.success;
      failed += e.mig_started - std::min(ok, e.mig_started);
    }
  }
  const std::string result = "{\"correct\": " + std::string(bad ? "false" : "true") +
                             ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted, 1)) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!o.out.empty()) {
    std::ofstream f(o.out);
    f << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"sim_digest\": \"" << hex(digest)
      << "\", \"episodes\": " << episodes << ", \"provenance\": {\"build_type\": \""
      << DVEBENCH_BUILD_TYPE << "\", \"cxx_flags\": \"" << obs::json_escape(DVEBENCH_CXX_FLAGS)
      << "\", \"compiler\": \"" << obs::json_escape(__VERSION__)
      << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu\": \""
      << obs::json_escape(cpu_model()) << "\"}, \"result\": " << result << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return bad ? 1 : 0;
}

/// Short variants of every workload, run in order and then in reverse order
/// in this one OS process: each workload's sim_digest must not depend on what
/// ran before it.
int run_selftest() {
  const std::vector<std::string> names = {"dve_lb", "conn_scale", "bulk_precopy"};
  std::map<std::string, std::uint64_t> first;
  int bad = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& name = names[pass == 0 ? i : names.size() - 1 - i];
      Options o;
      o.workload = name;
      o.seed = 3;
      o.short_run = true;
      // The traced path must not change the sim either.
      const Episode ep = find_workload(name)(o, pass == 1 ? Mode::traced : Mode::plain);
      bad += count_failed_checks(o, ep);
      if (pass == 0) {
        first[name] = ep.digest;
      } else if (first[name] != ep.digest) {
        std::fprintf(stderr, "selftest: %s sim_digest %s then %s\n", name.c_str(),
                     hex(first[name]).c_str(), hex(ep.digest).c_str());
        bad += 1;
      }
      std::printf("selftest pass %d %-13s sim_digest %s migrations %zu\n", pass, name.c_str(),
                  hex(ep.digest).c_str(), ep.migs.size());
    }
  }
  std::printf("selftest %s\n", bad ? "FAILED" : "passed");
  return bad ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--out" && has_value) {
      o.out = argv[++i];
    } else {
      std::fprintf(stderr, "dvebench: bad argument '%s'\n", a.c_str());
      return 2;
    }
  }
  return selftest ? run_selftest() : run_benchmark(o);
}
