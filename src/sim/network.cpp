#include "sim/network.hpp"

#include <algorithm>
#include <thread>

#include "util/assert.hpp"

namespace kncube::sim {

namespace {

/// Shards actually used for `size` routers: the configured knob (0 = one per
/// hardware thread) capped so every shard keeps enough routers to amortise
/// its phase barriers — tiny networks run serial no matter the knob. Pure
/// function of (knob, hardware, size): never of timing, so the partition is
/// process-deterministic; and results are partition-independent anyway.
/// `requested` receives the pre-clamp count (the knob resolved against
/// hardware) so callers can surface the clamp instead of silently running
/// narrower than asked.
std::size_t resolve_shards(int sim_threads, topo::NodeId size,
                           std::size_t* requested) {
  std::size_t want = sim_threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : static_cast<std::size_t>(sim_threads);
  *requested = want;
  constexpr topo::NodeId kMinRoutersPerShard = 16;
  const std::size_t cap =
      std::max<std::size_t>(1, static_cast<std::size_t>(size / kMinRoutersPerShard));
  return std::min(want, cap);
}

}  // namespace

Network::Network(const SimConfig& cfg)
    : topo_(cfg.k, cfg.n, cfg.bidirectional, cfg.mesh),
      message_length_(static_cast<std::uint32_t>(cfg.message_length)) {
  cfg.validate();
  faults_ = build_fault_set(cfg, topo_);
  soa_.init(topo_.size(), topo_.channels_per_node(), cfg.vcs, cfg.buffer_depth,
            message_length_);
  // Routers live contiguously (reserve guarantees stable addresses for the
  // down/up wiring pointers taken below).
  routers_.reserve(topo_.size());
  for (topo::NodeId id = 0; id < topo_.size(); ++id) {
    routers_.emplace_back(topo_, id, cfg.vcs, cfg.buffer_depth,
                          message_length_, &soa_);
  }
  // Wire links: output port p of node r feeds input port p of the neighbour
  // in that port's (dim, dir); the input port keeps a reference back to the
  // upstream output port for credit/release return. Mesh edge ports whose
  // link would wrap stay unconnected — dimension-order routing on a mesh
  // never selects a direction that runs off the line, so they are never
  // routed to (channel statistics skip them too). The fault overlay extends
  // the same mechanism: failed links and every link touching a failed router
  // stay unwired, and the simulator only injects pairs whose deterministic
  // path is fully usable (pair_reachable), so unwired ports are never routed
  // to here either — faulty routers stay quiescent and hold no credits.
  for (topo::NodeId id = 0; id < topo_.size(); ++id) {
    Router& r = routers_[id];
    for (int p = 0; p < r.network_ports(); ++p) {
      const int dim = r.port_dim(p);
      const topo::Direction dir = r.port_dir(p);
      if (!faults_.link_usable(topo_, id, dim, dir)) continue;
      const topo::NodeId down_id = topo_.neighbor(id, dim, dir);
      Router& down = routers_[down_id];
      r.connect(p, &down, p);
      down.connect_upstream(p, &r, p);
    }
  }

  // Contiguous equal-ish shards over the router-id range. Contiguity keeps
  // the concatenation of per-shard orders equal to global router-id order,
  // which the metric replay and commit pass rely on.
  const std::size_t shard_count =
      resolve_shards(cfg.sim_threads, topo_.size(), &requested_shards_);
  shards_.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard& sh = shards_[s];
    sh.begin = static_cast<topo::NodeId>(topo_.size() * s / shard_count);
    sh.end = static_cast<topo::NodeId>(topo_.size() * (s + 1) / shard_count);
    sh.active.reserve(sh.end - sh.begin);
  }
  if (shard_count > 1) {
    barrier_ = std::make_unique<util::SpinBarrier>(shard_count);
    team_ = std::make_unique<util::ThreadTeam>(shard_count);
  }
}

void Network::step_shard(std::size_t s) {
  // Router-major schedule: each active router runs its whole cycle
  // (Router::step) before the next one starts, in router-id order. That is
  // bit-identical to running each phase across all routers because no phase
  // reads state another router's phases write: remote writes go only to
  // staged slots and wake words, which nothing reads until commit.
  Shard& sh = shards_[s];
  sh.active.clear();
  // The activity scan reads only the two contiguous scheduling arrays — no
  // router object is touched for quiescent ids, so an idle network costs a
  // pair of streaming array reads per router per cycle. A nonzero wake word
  // here can only be the staged arrivals of a router that was idle last
  // cycle (every router that stepped cleared its word in commit); applying
  // them now is the cycle boundary the commit pass skipped for it.
  {
    const std::uint64_t* work = soa_.work.data();
    const std::atomic<std::uint32_t>* wake = soa_.wake.get();
    for (topo::NodeId id = sh.begin; id < sh.end; ++id) {
      if (wake[id].load(std::memory_order_relaxed) != 0) {
        routers_[id].commit_arrivals();
      }
      if (work[id] != 0) sh.active.push_back(&routers_[id]);
    }
  }
  // The scan reads and applies staged slots that the steps below write
  // remotely — no shard may start stepping until every shard has scanned.
  phase_barrier();
  for (Router* r : sh.active) r->step(sh.delta);
  // Commit consumes the staged slots every shard wrote during its steps; it
  // must not start anywhere before stepping ends everywhere. It touches only
  // the owning router, and only routers that stepped: a router idle this
  // cycle has no signals, no busy channel to account, and its staged
  // arrivals wait for the next scan.
  phase_barrier();
  for (Router* r : sh.active) r->commit();
}

void Network::step(std::uint64_t cycle, Metrics& metrics) {
  if (team_) {
    team_->run([this](std::size_t member) { step_shard(member); });
  } else {
    step_shard(0);
  }
  // Deterministic merge, identical to the serial call sequence: ejection
  // events of every shard replay in shard (== router-id) order, then the
  // injection events — floating-point accumulation order is preserved
  // bit-for-bit. Integer deltas are sums and merge by addition.
  std::uint64_t flits_out = 0;
  std::uint64_t refilled = 0;
  for (Shard& sh : shards_) {
    metrics.apply_ejects(sh.delta, cycle);
    flits_out += sh.delta.flits_delivered;
  }
  for (Shard& sh : shards_) {
    metrics.apply_injects(sh.delta, cycle);
    refilled += sh.delta.messages_refilled;
  }
  inflight_ += refilled * message_length_;
  inflight_ -= flits_out;
  backlog_ -= refilled;
  for (Shard& sh : shards_) sh.delta.clear();
  // Every router's per-port stat_cycles advances exactly once per cycle
  // whether it was active or idle — it is one global counter (router.hpp).
  ++soa_.stat_cycles;
}

void Network::enqueue_message(const QueuedMessage& msg) {
  KNC_ASSERT(msg.src < topo_.size() && msg.dest < topo_.size());
  // Unreachable pairs must be classified (and counted) at generation time —
  // a message past this point is guaranteed deliverable, so nothing is ever
  // dropped mid-network.
  KNC_ASSERT(pair_reachable(msg.src, msg.dest));
  routers_[msg.src].enqueue_message(msg, message_length_);
  ++backlog_;
}

std::uint64_t Network::scan_inflight_flits() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r.buffered_flits();
  return total;
}

std::uint64_t Network::scan_source_backlog() const {
  std::uint64_t total = 0;
  for (const auto& r : routers_) total += r.source_queue_length();
  return total;
}

std::uint64_t Network::inflight_flits() const {
  KNC_DEBUG_ASSERT(inflight_ == scan_inflight_flits());
  return inflight_;
}

std::uint64_t Network::source_backlog() const {
  KNC_DEBUG_ASSERT(backlog_ == scan_source_backlog());
  return backlog_;
}

void Network::reset_channel_stats() {
  std::fill(soa_.channel_stats.begin(), soa_.channel_stats.end(),
            RouterSoA::ChannelStats{});
  soa_.stat_cycles = 0;
}

Network::ChannelSummary Network::channel_summary() const {
  ChannelSummary s;
  double util_sum = 0.0;
  std::uint64_t channels = 0;
  double vm_weighted = 0.0;
  double vm_weight = 0.0;
  for (const auto& r : routers_) {
    for (int p = 0; p < r.network_ports(); ++p) {
      const auto& op = r.output_port(p);
      // Unconnected mesh edge ports are not physical channels; counting
      // their permanent zeros would dilute the mean utilisation.
      if (op.down == nullptr) continue;
      const double u = op.utilization();
      util_sum += u;
      s.max_utilization = std::max(s.max_utilization, u);
      ++channels;
      if (op.busy_cycles > 0) {
        const auto w = static_cast<double>(op.flits_sent);
        vm_weighted += op.vc_multiplexing() * w;
        vm_weight += w;
      }
    }
  }
  if (channels) s.mean_utilization = util_sum / static_cast<double>(channels);
  if (vm_weight > 0.0) s.mean_vc_multiplexing = vm_weighted / vm_weight;
  return s;
}

double Network::channel_utilization(topo::NodeId node, int dim,
                                    topo::Direction dir) const {
  const Router& r = routers_[node];
  const auto& op = r.output_port(r.out_port_for(dim, dir));
  // A mesh edge port or a faulted-out link is not a physical channel.
  if (op.down == nullptr) return 0.0;
  return op.utilization();
}

}  // namespace kncube::sim
