// daemon-replay: the capacity-planning daemon under a replayed trace. A
// service::Server runs in process over a DiskResultStore in the run's
// scratch directory; an earlier, untimed phase fills the store, and set-up
// reopens (replays) it, starts the server and connects two
// service::Client connections. The clients then replay a seeded trace in a
// closed loop — each sends its next request when the previous answer is in,
// as `kncube_run --connect` callers do. Every request has the form that
// client sends: an 8-point sweep given by request.lo / request.hi, which
// the server anchors on the spec's saturation rate itself.
//
//  * most requests repeat an earlier (spec, lo, hi) — store reads;
//  * a share ask for a new range of a known spec, model only — eight
//    solves plus appends — and a few for a new spec, which adds the
//    saturation bisection;
//  * a few ask for simulation points on a small network.
//
// One op is one request. Every answer is checked afterwards against an
// in-process SweepEngine for the same spec and sweep.
#include <sys/stat.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "core/kncube.hpp"
#include "report.hpp"
#include "service/client.hpp"
#include "service/disk_store.hpp"
#include "service/server.hpp"
#include "trace.hpp"
#include "traced_store.hpp"
#include "util/rng.hpp"
#include "workload_util.hpp"

namespace perfbench {

namespace core = kncube::core;
namespace sim = kncube::sim;
namespace service = kncube::service;

namespace {

constexpr int kClients = 2;
/// Points per request: kncube_run's default request.points.
constexpr int kPoints = 8;
/// Requests per second the two clients complete on the reference host.
constexpr double kNominalRequestsPerSecond = 2000.0;

/// kHit: a known (spec, lo, hi); kNewRange: a known spec, a new range;
/// kNewSpec: a spec the daemon has not seen; kSim: simulation points, a
/// known or a new range.
enum class Kind { kHit, kNewRange, kNewSpec, kSim };

struct Range {
  double lo = 0.1;
  double hi = 0.95;
};

struct Request {
  Kind kind = Kind::kHit;
  std::size_t spec = 0;
  Range range;
};

struct Sizes {
  int prefill_ranges;  ///< sweeps per model spec written before set-up
  int prefill_sims;    ///< simulation sweeps written before set-up
  std::size_t requests;
};

/// The daemon's scenarios: the paper's 16x16 hot-spot torus at both message
/// lengths plus one spec of every other modelled family; the last is the
/// small network the simulation requests use.
std::vector<core::ScenarioSpec> daemon_specs() {
  const std::vector<std::vector<std::pair<const char*, const char*>>> settings = {
      {},
      {{"workload.message_length", "100"}},
      {{"topology.k", "8"}, {"traffic.kind", "uniform"}},
      {{"topology.kind", "hypercube"}, {"topology.dims", "6"}},
      {{"topology.kind", "mesh"}, {"topology.k", "8"}, {"traffic.kind", "uniform"}},
      {{"topology.kind", "mesh"}, {"topology.k", "8"}, {"traffic.kind", "hotspot"}},
      {{"topology.k", "8"}, {"arrivals.kind", "mmpp"}, {"arrivals.p_enter_burst", "0.02"},
       {"arrivals.p_leave_burst", "0.08"}},
      // Never reaches its message target, so every simulation runs exactly
      // max_cycles: equal cost per simulation request whatever the rate.
      {{"topology.k", "4"}, {"workload.message_length", "16"},
       {"measure.warmup_cycles", "300"}, {"measure.target_messages", "1000000"},
       {"measure.max_cycles", "1500"}},
  };
  std::vector<core::ScenarioSpec> specs;
  for (const auto& kv : settings) {
    core::ScenarioSpec spec;
    for (const auto& [key, value] : kv) core::apply_scenario_setting(spec, key, value);
    spec.validate();
    specs.push_back(spec);
  }
  return specs;
}

/// What the check needs of one answer: the sweep's saturation rate, and per
/// point the rate, the model's latency bits, saturation and iteration count,
/// and the simulation results of simulation requests.
struct Answer {
  std::uint64_t saturation_bits = 0;
  std::vector<std::uint64_t> lambda_bits;
  std::vector<std::uint64_t> latency_bits;
  std::vector<char> saturated;
  std::vector<int> iterations;
  std::vector<sim::SimResult> sims;

  Answer() = default;
  explicit Answer(const service::Client::SweepOutcome& outcome) {
    if (outcome.has_sweep) saturation_bits = std::bit_cast<std::uint64_t>(outcome.sweep.saturation);
    for (const core::PointResult& p : outcome.points) {
      lambda_bits.push_back(std::bit_cast<std::uint64_t>(p.lambda));
      latency_bits.push_back(std::bit_cast<std::uint64_t>(p.model.latency));
      saturated.push_back(p.has_model && p.model.saturated);
      iterations.push_back(p.has_model ? p.model.iterations : -1);
      if (p.has_sim) sims.push_back(p.sim);
    }
  }
};

double file_mb(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

/// The running daemon: store, server and its accept thread, and the client
/// connections. Destruction order tears it down cleanly: clients hang up,
/// the server drains, the store is released.
struct Daemon {
  std::shared_ptr<service::DiskResultStore> disk;
  double open_s = 0.0;  ///< DiskResultStore open: reading and indexing the file
  std::shared_ptr<TracedStore> traced;
  std::unique_ptr<service::Server> server;
  std::thread accept_thread;
  std::string accept_error;
  std::vector<std::unique_ptr<service::Client>> clients;

  Daemon(const std::string& store_path, const std::string& socket_path, bool traced_run,
         const std::vector<core::ScenarioSpec>& specs) {
    {
      trace::Scope span("service.store_open");
      const auto t0 = Clock::now();
      disk = std::make_shared<service::DiskResultStore>(store_path);
      open_s = seconds_since(t0);
    }
    service::ServerOptions options;
    options.socket_path = socket_path;
    options.store = disk;
    if (traced_run) {
      traced = std::make_shared<TracedStore>(disk);
      for (const auto& spec : specs) {
        traced->register_spec(spec.key(), spec.node_count(), spec.message_length);
      }
      options.store = traced;
    }
    server = std::make_unique<service::Server>(options);
    server->bind();
    accept_thread = std::thread([this] {
      try {
        server->run();
      } catch (const std::exception& e) {
        accept_error = e.what();
      }
    });
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<service::Client>(socket_path));
    }
  }

  ~Daemon() { shut_down(); }

  /// Hangs up the clients, drains the server and joins its accept thread;
  /// accept_error is safe to read afterwards.
  void shut_down() {
    clients.clear();
    server->stop();
    if (accept_thread.joinable()) accept_thread.join();
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

}  // namespace

WorkloadRun run_daemon_replay(const RunConfig& cfg) {
  WorkloadRun run;
  const Sizes sizes =
      cfg.smoke ? Sizes{2, 1, 60}
                : Sizes{25, 2,
                        static_cast<std::size_t>(std::lround(cfg.seconds * kNominalRequestsPerSecond))};
  const std::string store_path = cfg.scratch + "/results.kncs";
  const std::string socket_path = cfg.scratch + "/daemon.sock";
  std::remove(store_path.c_str());
  std::vector<core::ScenarioSpec> specs = daemon_specs();
  const std::size_t sim_spec = specs.size() - 1;  // the model specs come first

  // Earlier phase (untimed): fill the store the way past planning sessions
  // would have — kncube_run's default range and seeded others per spec.
  kncube::util::Xoshiro256 rng(mix_seed(cfg.seed, 0xd43));
  const auto draw_range = [&rng] {
    return Range{0.05 + 0.25 * rng.uniform(), 0.6 + 0.35 * rng.uniform()};
  };
  std::vector<std::vector<Range>> known(specs.size());
  {
    auto disk = std::make_shared<service::DiskResultStore>(store_path);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const bool sims = s == sim_spec;
      known[s].push_back(Range{});
      while (known[s].size() < static_cast<std::size_t>(sims ? sizes.prefill_sims : sizes.prefill_ranges)) {
        known[s].push_back(draw_range());
      }
      core::SweepEngine engine(specs[s], disk);
      for (const Range& r : known[s]) engine.run(engine.lambda_sweep(kPoints, r.lo, r.hi), sims);
    }
  }

  // The trace, in blocks of 200 requests: 2 simulation sweeps on the small
  // network (one new range, one repeat), 1 sweep of a new spec (an 8x8
  // hot-spot torus at a new hot-spot fraction), 17 new ranges of a known
  // spec and 180 repeats of a known (spec, range), in a seeded order. The
  // mix is stratified so that every seed asks for the same amount of work.
  // New ranges join the known ones, so later requests may repeat them.
  std::vector<Kind> block(180, Kind::kHit);
  block.insert(block.end(), 17, Kind::kNewRange);
  block.insert(block.end(), {Kind::kNewSpec, Kind::kSim, Kind::kSim});
  std::vector<Request> trace_reqs(sizes.requests);
  bool fresh_sim = true;
  for (std::size_t i = 0; i < trace_reqs.size(); ++i) {
    if (i % block.size() == 0) {
      for (std::size_t j = block.size() - 1; j > 0; --j) {
        std::swap(block[j], block[rng.uniform_below(j + 1)]);
      }
    }
    Request& r = trace_reqs[i];
    r.kind = block[i % block.size()];
    bool fresh = r.kind != Kind::kHit;
    if (r.kind == Kind::kSim) {
      r.spec = sim_spec;
      fresh = fresh_sim;
      fresh_sim = !fresh_sim;
    } else if (r.kind == Kind::kNewSpec) {
      core::ScenarioSpec spec = specs[0];
      core::apply_scenario_setting(spec, "topology.k", "8");
      core::apply_scenario_setting(spec, "traffic.hot_fraction",
                                   std::to_string(0.05 + 0.3 * rng.uniform()));
      spec.validate();
      r.spec = specs.size();
      specs.push_back(spec);
      known.emplace_back();
    } else {
      r.spec = rng.uniform_below(sim_spec);
    }
    if (fresh) {
      r.range = r.kind == Kind::kNewSpec ? Range{} : draw_range();
      known[r.spec].push_back(r.range);
    } else {
      r.range = known[r.spec][rng.uniform_below(known[r.spec].size())];
    }
  }

  // Set-up: reopen (replay) the store, start the server, connect the
  // clients — cold each time; the last daemon serves the trace. The set-ups
  // after the checks replay a copy of the store as it was before the trace
  // appended to it, so every set-up replays the same records.
  std::unique_ptr<Daemon> daemon;
  std::vector<double> replay_s;
  std::string setup_store = store_path;
  const auto set_up = [&] {
    daemon = std::make_unique<Daemon>(setup_store, socket_path, cfg.traced, specs);
    replay_s.push_back(daemon->open_s);
  };
  const auto tear_down = [&] { daemon.reset(); };
  time_setups(cfg, 5, set_up, tear_down, run.setups);
  const std::string store_copy = store_path + ".before-trace";
  std::filesystem::copy_file(store_path, store_copy,
                             std::filesystem::copy_options::overwrite_existing);
  run.values["store.records"] = static_cast<double>(daemon->disk->loaded_records());
  run.values["store.file_mb"] = file_mb(store_path);

  // Timed phase: two clients in a closed loop over a shared cursor.
  std::vector<Answer> answers(trace_reqs.size());
  std::vector<std::string> errors(trace_reqs.size());
  std::vector<double> op_ms(trace_reqs.size());
  std::atomic<std::size_t> cursor{0};
  const auto client_loop = [&](service::Client& client) {
    for (std::size_t i = cursor++; i < trace_reqs.size(); i = cursor++) {
      const Request& r = trace_reqs[i];
      service::Request params;
      params.points = kPoints;
      params.lo = r.range.lo;
      params.hi = r.range.hi;
      params.with_sim = r.kind == Kind::kSim;
      trace::Scope op_span("op.request");
      const auto t0 = Clock::now();
      try {
        trace::Scope span("service.client_run");
        answers[i] = Answer(client.run(specs[r.spec], params));
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
      op_ms[i] = seconds_since(t0) * 1e3;
    }
  };
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  {
    std::thread second([&] { client_loop(*daemon->clients[1]); });
    client_loop(*daemon->clients[0]);
    second.join();
  }
  run.wall_s = seconds_since(start);
  run.cpu_s = process_cpu_seconds() - cpu0;
  run.peak_rss_mb = peak_rss_mb();
  run.op_ms = op_ms;
  run.values["req_per_s"] = static_cast<double>(trace_reqs.size()) / run.wall_s;

  if (cfg.traced) {
    absorb_store_counts(run, daemon->traced->counts());
    absorb_cache_stats(run, daemon->server->stats());
    std::vector<double> hit_ms, miss_ms;
    for (std::size_t i = 0; i < trace_reqs.size(); ++i) {
      if (trace_reqs[i].kind == Kind::kHit) hit_ms.push_back(op_ms[i]);
      if (trace_reqs[i].kind == Kind::kNewRange) miss_ms.push_back(op_ms[i]);
    }
    run.values["service.hit_req_ms"] = median(hit_ms);
    run.values["service.miss_req_ms"] = median(miss_ms);
    // Protocol overhead: the first 500 hit requests answered again by an
    // in-process SweepEngine over the same store state — the server's own
    // steps, saturation anchor included — against their daemon times.
    std::map<std::size_t, std::unique_ptr<core::SweepEngine>> local;
    std::vector<double> daemon_ms, local_ms;
    for (std::size_t i = 0; i < trace_reqs.size() && local_ms.size() < 500; ++i) {
      const Request& r = trace_reqs[i];
      if (r.kind != Kind::kHit) continue;
      auto& engine = local[r.spec];
      if (!engine) engine = std::make_unique<core::SweepEngine>(specs[r.spec], daemon->disk);
      const auto t0 = Clock::now();
      engine->saturation_rate();
      engine->run(engine->lambda_sweep(kPoints, r.range.lo, r.range.hi), false);
      local_ms.push_back(seconds_since(t0) * 1e3);
      daemon_ms.push_back(op_ms[i]);
    }
    run.values["service.overhead_ms"] = median(daemon_ms) - median(local_ms);
  }
  daemon->shut_down();
  const std::string accept_error = daemon->accept_error;
  const std::uint64_t served = daemon->server->requests_served();
  daemon.reset();
  if (!accept_error.empty()) run.fail("server accept loop: " + accept_error);
  if (served != trace_reqs.size()) run.fail("server counted a different number of requests");

  // Checks (outside the timed region): every answer equals an in-process
  // SweepEngine for the same spec and sweep — the saturation anchor, the
  // rates, the model latency and saturation bits, and the simulation's
  // bits for simulation points.
  std::vector<std::unique_ptr<core::SweepEngine>> reference;
  for (const auto& spec : specs) reference.push_back(std::make_unique<core::SweepEngine>(spec));
  for (std::size_t i = 0; i < trace_reqs.size(); ++i) {
    ++run.attempted;
    const Request& r = trace_reqs[i];
    const std::string where = "request " + std::to_string(i);
    if (!errors[i].empty()) {
      run.fail(where + ": " + errors[i]);
      continue;
    }
    const Answer& a = answers[i];
    core::SweepEngine& ref = *reference[r.spec];
    const double saturation = ref.saturation_rate().rate;
    const std::vector<double> lambdas = ref.lambda_sweep(kPoints, r.range.lo, r.range.hi);
    if (a.lambda_bits.size() != lambdas.size() ||
        a.sims.size() != (r.kind == Kind::kSim ? lambdas.size() : 0)) {
      run.fail(where + ": wrong number of points");
      continue;
    }
    if (a.saturation_bits != std::bit_cast<std::uint64_t>(saturation)) {
      run.fail(where + ": saturation rate differs from the in-process engine");
      continue;
    }
    for (std::size_t j = 0; j < lambdas.size(); ++j) {
      const kncube::model::ModelResult m = ref.model_point(lambdas[j]);
      if (a.lambda_bits[j] != std::bit_cast<std::uint64_t>(lambdas[j]) || a.iterations[j] < 0 ||
          a.latency_bits[j] != std::bit_cast<std::uint64_t>(m.latency) ||
          static_cast<bool>(a.saturated[j]) != m.saturated) {
        run.fail(where + ": model answer differs from the in-process engine");
        break;
      }
      if (a.iterations[j] != m.iterations) run.values["core.iter_mismatch"] += 1;
      if (r.kind == Kind::kSim) {
        const sim::SimResult sim_ref = ref.sim_point(lambdas[j], ref.point_seed(j));
        if (!same_sim(a.sims[j], sim_ref) || !sim_ref.conservation_ok) {
          run.fail(where + ": simulation answer differs from the in-process engine");
          break;
        }
      }
    }
  }
  setup_store = store_copy;
  time_setups(cfg, 4, set_up, tear_down, run.setups);
  run.values["store.replay_s"] = median(replay_s);
  return run;
}

}  // namespace perfbench
