// The repository benchmark's workload runner.
//
//   perfbench_runner --workload W --seed S --seconds T --trace 0|1
//                    [--toy] [--budget B] [--work-dir D] [--setup-only]
//
// Runs workload W through the library's public entry points
// (analysis::stabilize, analysis::epidemic_convergence,
// analysis::run_fault_plan) on sub-seeds derived from S until T seconds
// of runs have elapsed, checks every run's output, and prints one JSON
// line of metrics as the last line of stdout.  With --trace 1 it
// replays every sub-seed through clocked wrapper protocols (traced.hpp)
// right after its untraced run, checks that the replay is exact, and
// reports the per-layer metrics instead.  perfbench/run.py
// builds this program, adds set-up time and the host fingerprint, and is
// the command to run; see perfbench/README.md.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/churn.hpp"
#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "core/safety.hpp"
#include "core/snapshot.hpp"
#include "obs/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/counts.hpp"
#include "pp/epidemic.hpp"
#include "pp/leaping_simulator.hpp"
#include "pp/sharded_simulator.hpp"
#include "pp/simulator.hpp"
#include "traced.hpp"

namespace {

using namespace ssle;
using perfbench::Clock;
using perfbench::ns_since;
using perfbench::TracedElectLeader;
using perfbench::TracedEpidemic;
using perfbench::Tracer;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of this process.  The kernel leaves out time the host took
/// the virtual CPU away (steal), which wall time would count.
double cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// --- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  bool toy = false;
  bool setup_only = false;
  std::uint64_t budget = 0;  ///< interaction budget override (0 = workload's)
  std::string work_dir = ".";
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-') {
    die(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      a.toy = true;
      continue;
    }
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) die(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        die("--seconds needs a number in (0, 3600], got '" + value + "'");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") die("--trace needs 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--budget") {
      a.budget = parse_u64(flag, value);
      if (a.budget == 0) die("--budget needs a positive integer");
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      die("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) die("--workload is required");
  if (!have_seed) die("--seed is required");
  if (a.seconds <= 0.0 && !a.setup_only) die("--seconds is required");
  return a;
}

// --- workloads ----------------------------------------------------------------

enum class Kind { kStabilize, kEpidemic, kSoak };

/// One named workload.  The table and the reason for each choice are in
/// perfbench/README.md; --toy shrinks every size for the self-test.
struct Workload {
  std::string name;
  Kind kind = Kind::kStabilize;
  analysis::Engine engine = analysis::Engine::kNaive;
  core::Params params;  ///< ElectLeader_r workloads
  analysis::StartKind start = analysis::StartKind::kClean;
  core::Corruption corruption = core::Corruption::kNone;
  std::uint64_t epidemic_n = 0;  ///< epidemic workload
  std::string schedule;          ///< soak: analysis::parse_fault_plan grammar
  std::uint64_t horizon = 0;
  std::uint64_t probe_every = 0;
  std::uint64_t checkpoint_every = 0;
  std::uint64_t corrupt_burst = 0;  ///< soak: agents per recovery burst
  std::uint64_t matrix_slice = 0;   ///< interactions per engine-matrix row
  double matrix_cap_s = 0.0;        ///< wall cap per engine-matrix row
};

Workload make_workload(const std::string& name, bool toy) {
  Workload w;
  w.name = name;
  w.matrix_cap_s = toy ? 0.2 : 1.5;
  if (name == "verify_recover") {
    w.kind = Kind::kStabilize;
    w.engine = analysis::Engine::kNaive;
    w.params = toy ? core::Params::make(32, 8)
                   : core::Params::make(128, 32,
                                        core::MessageMultiplicity::kFaithful);
    w.start = analysis::StartKind::kAdversarial;
    w.corruption = core::Corruption::kNoLeader;
    w.matrix_slice = toy ? 2000 : 20000;
  } else if (name == "rank_clean") {
    w.kind = Kind::kStabilize;
    w.engine = analysis::Engine::kNaive;
    w.params = core::Params::make(toy ? 256 : 4096, 16,
                                  core::MessageMultiplicity::kLight);
    w.start = analysis::StartKind::kClean;
    w.matrix_slice = toy ? 100000 : 5000000;
  } else if (name == "epidemic_leap") {
    w.kind = Kind::kEpidemic;
    w.engine = analysis::Engine::kLeaping;
    w.epidemic_n = toy ? 1000000ull : 10000000000ull;
    w.matrix_slice = toy ? 2000000ull : 20000000000ull;
  } else if (name == "soak_churn") {
    w.kind = Kind::kSoak;
    w.engine = analysis::Engine::kBatched;
    w.params = core::Params::make(toy ? 64 : 500, 8);
    w.corrupt_burst = toy ? 4 : 8;
    const std::uint64_t period = toy ? 400000 : 9400000;
    w.schedule = "corrupt:recovery:" + std::to_string(w.corrupt_burst) +
                 ",leave:periodic:" + std::to_string(period) +
                 ":2,join:periodic:" + std::to_string(period) + ":2";
    w.horizon = toy ? 1000000 : 30000000;
    w.probe_every = toy ? 500 : 5000;
    w.checkpoint_every = toy ? 100000 : 1000000;
    w.matrix_slice = toy ? 20000 : 200000;
  } else {
    die("unknown workload '" + name +
        "' (verify_recover|rank_clean|epidemic_leap|soak_churn)");
  }
  return w;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t i) {
  return util::substream(seed, 0x70657266ull + i);
}

std::uint64_t epidemic_budget(std::uint64_t n) {
  std::uint64_t log2ceil = 0;
  while ((std::uint64_t{1} << log2ceil) < n) ++log2ceil;
  return 64ull * n * std::max<std::uint64_t>(1, log2ceil);
}

/// The interaction budget of one run (soak: its horizon).
std::uint64_t run_budget(const Workload& w, const Args& a) {
  if (a.budget > 0) return a.budget;
  switch (w.kind) {
    case Kind::kStabilize:
      return analysis::default_budget(w.params);
    case Kind::kEpidemic:
      return epidemic_budget(w.epidemic_n);
    case Kind::kSoak:
      return w.horizon;
  }
  return 0;
}

/// The adversarial or clean start of a stabilization run, drawn exactly as
/// analysis::stabilize draws it.
std::vector<core::Agent> stabilize_start(const Workload& w, std::uint64_t s) {
  if (w.start == analysis::StartKind::kAdversarial) {
    util::Rng rng(util::substream(s, 77));
    return core::make_adversarial_config(w.params, w.corruption, rng);
  }
  const core::ElectLeader protocol(w.params);
  std::vector<core::Agent> config;
  config.reserve(w.params.n);
  for (std::uint32_t i = 0; i < w.params.n; ++i) {
    config.push_back(protocol.initial_state(i));
  }
  return config;
}

std::string checkpoint_path(const Args& a, const char* tag) {
  return (std::filesystem::path(a.work_dir) /
          (a.workload + "-" + tag + "-" + std::to_string(a.seed) + ".ckpt"))
      .string();
}

bool soak_registry_bounded(const obs::EngineMetrics& m) {
  return m.registry_allocated_states <=
         2 * m.registry_live_states + (1ull << 16) + 64;
}

// --- one run --------------------------------------------------------------------

struct RunOutcome {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string why;
  std::uint64_t interactions = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t solutions = 0;
  std::vector<double> parallel_times;
  std::uint64_t cycles = 0;
  std::uint64_t fingerprint = 0;
};

/// One untraced run through the library's public entry point, with its
/// output checks.
RunOutcome run_untraced(const Workload& w, const Args& a, std::uint64_t s) {
  RunOutcome out;
  out.seed = s;
  const std::uint64_t budget = run_budget(w, a);
  const auto t0 = Clock::now();
  const double c0 = cpu_seconds();
  const auto stop = [&] {
    out.wall_s = seconds_since(t0);
    out.cpu_s = cpu_seconds() - c0;
  };
  switch (w.kind) {
    case Kind::kStabilize: {
      const auto res = analysis::stabilize(w.engine, w.start, w.params,
                                           w.corruption, s, budget);
      stop();
      out.interactions = res.interactions;
      // `converged` is core::is_safe_configuration holding at the final
      // probe; leaders is the final leader count.
      out.ok = res.converged && res.leaders == 1;
      if (!res.converged) {
        out.why = "not safe within the budget";
      } else if (res.leaders != 1) {
        out.why = "safe but " + std::to_string(res.leaders) + " leaders";
      }
      if (out.ok) out.parallel_times.push_back(res.parallel_time);
      break;
    }
    case Kind::kEpidemic: {
      const auto run =
          analysis::epidemic_convergence(w.engine, w.epidemic_n, s, budget, 0);
      stop();
      out.interactions = run.interactions;
      out.ok = run.converged;
      if (!out.ok) out.why = "not fully infected within the budget";
      if (out.ok) {
        out.parallel_times.push_back(static_cast<double>(run.interactions) /
                                     static_cast<double>(w.epidemic_n));
      }
      break;
    }
    case Kind::kSoak: {
      const auto plan =
          analysis::parse_fault_plan(w.schedule, budget, w.probe_every);
      analysis::FaultRunOptions opts;
      opts.checkpoint_path = checkpoint_path(a, "untraced");
      opts.checkpoint_every = w.checkpoint_every;
      opts.resume = false;
      const auto rep = analysis::run_fault_plan(w.engine, w.params, plan, s,
                                                opts);
      stop();
      std::filesystem::remove(opts.checkpoint_path);
      out.interactions = rep.interactions;
      out.cycles = rep.recovery_times.size();
      out.fingerprint = rep.registry_fingerprint;
      const bool bounded = soak_registry_bounded(rep.metrics);
      out.ok = rep.completed && out.cycles >= 1 && bounded;
      if (!rep.completed) {
        out.why = "horizon not reached";
      } else if (out.cycles == 0) {
        out.why = "no recovery cycle completed";
      } else if (!bounded) {
        out.why = "registry allocation above 2*live + 2^16 + 64";
      }
      if (out.ok) {
        for (const auto t : rep.recovery_times) {
          out.parallel_times.push_back(static_cast<double>(t) /
                                       static_cast<double>(w.params.n));
        }
      }
      break;
    }
  }
  if (out.ok) out.solutions = w.kind == Kind::kSoak ? out.cycles : 1;
  return out;
}

// --- traced replay ------------------------------------------------------------------

/// What a traced replay of one sub-seed measured beyond the Tracer.
struct TracedRun {
  RunOutcome outcome;
  double engine_wall_ns = 0.0;  ///< wall of the engine run (run_until / soak)
  double construct_ms = 0.0;
  double input_ms = 0.0;  ///< adversary / start-configuration construction
  obs::EngineMetrics metrics;
  std::uint64_t fault_events = 0;
  std::vector<core::Agent> soak_final;  ///< soak: final configuration
};

TracedRun traced_stabilize(const Workload& w, const Args& a, std::uint64_t s,
                           Tracer* tr) {
  TracedRun tr_run;
  RunOutcome& out = tr_run.outcome;
  out.seed = s;
  const auto t0 = Clock::now();
  const core::ElectLeader inner(w.params);
  const TracedElectLeader protocol(inner, tr);
  const auto ti = Clock::now();
  auto config = stabilize_start(w, s);
  if (w.start == analysis::StartKind::kAdversarial) {
    tr_run.input_ms = ns_since(ti) / 1e6;
  }

  const auto tc = Clock::now();
  pp::Simulator<TracedElectLeader> sim(
      protocol, pp::Population<TracedElectLeader>(std::move(config)), s);
  tr_run.construct_ms = ns_since(tc) / 1e6;

  const auto probe = [&](const pp::Population<TracedElectLeader>& pop,
                         std::uint64_t) {
    const auto tp = Clock::now();
    bool safe = false;
    tr->safety.run(
        [&] { safe = core::is_safe_configuration(w.params, pop.states()); });
    tr->probe_ns += ns_since(tp);
    return safe;
  };
  const auto te = Clock::now();
  const auto run = sim.run_until(probe, run_budget(w, a), w.params.n);
  tr_run.engine_wall_ns = static_cast<double>(ns_since(te));
  out.wall_s = seconds_since(t0);

  const auto& states = sim.population().states();
  out.interactions = run.interactions;
  const bool safe = core::is_safe_configuration(w.params, states);
  const std::uint32_t leaders = core::leader_count(states);
  out.ok = run.converged && safe && leaders == 1;
  if (!out.ok) out.why = "traced replay did not end safe with one leader";
  tr_run.metrics = sim.metrics();
  return tr_run;
}

TracedRun traced_epidemic(const Workload& w, const Args& a, std::uint64_t s,
                          Tracer* tr) {
  TracedRun tr_run;
  RunOutcome& out = tr_run.outcome;
  out.seed = s;
  const auto t0 = Clock::now();
  const std::uint64_t n = w.epidemic_n;
  const TracedEpidemic protocol{
      pp::Epidemic{static_cast<std::uint32_t>(
          std::min<std::uint64_t>(n, 0xffffffffull))},
      tr};
  pp::CountsConfiguration<TracedEpidemic> counts(std::vector<int>{1});
  counts.add(0, n - 1);

  const auto tc = Clock::now();
  pp::LeapingSimulator<TracedEpidemic> sim(protocol, std::move(counts), s);
  tr_run.construct_ms = ns_since(tc) / 1e6;

  const auto probe = [&](const pp::CountsConfiguration<TracedEpidemic>& c,
                         std::uint64_t) {
    const auto tp = Clock::now();
    const bool done = c.count_of(0) == 0;
    tr->probe_ns += ns_since(tp);
    return done;
  };
  const auto te = Clock::now();
  const auto run = sim.run_until(probe, run_budget(w, a), 0);
  tr_run.engine_wall_ns = static_cast<double>(ns_since(te));
  out.wall_s = seconds_since(t0);
  out.interactions = run.interactions;
  const auto& final_config = sim.config();
  out.ok = run.converged && final_config.count_of(0) == 0 &&
           final_config.count_of(1) == n;
  if (!out.ok) out.why = "traced replay did not end fully infected";
  tr_run.metrics = sim.metrics();
  return tr_run;
}

TracedRun traced_soak(const Workload& w, const Args& a, std::uint64_t s,
                      Tracer* tr) {
  TracedRun tr_run;
  RunOutcome& out = tr_run.outcome;
  out.seed = s;
  const auto t0 = Clock::now();
  const core::Params& params = w.params;
  const core::ElectLeader inner(params);
  const TracedElectLeader protocol(inner, tr);
  const auto plan =
      analysis::parse_fault_plan(w.schedule, run_budget(w, a), w.probe_every);

  analysis::FaultModel<TracedElectLeader> model;
  model.corrupt_state = [&](util::Rng& rng) {
    core::Agent agent;
    tr->fault_callback.run([&] { agent = core::random_agent(params, rng); });
    return agent;
  };
  model.join_state = [&] {
    core::Agent agent;
    tr->fault_callback.run([&] { agent = inner.initial_state(0); });
    return agent;
  };
  model.safe = [&](const pp::CountsConfiguration<TracedElectLeader>& c) {
    const auto tp = Clock::now();
    bool safe = false;
    tr->safety.run([&] { safe = perfbench::counts_safe(params, c); });
    tr->probe_ns += ns_since(tp);
    return safe;
  };
  model.unique_leader =
      [&](const pp::CountsConfiguration<TracedElectLeader>& c) {
        const auto tp = Clock::now();
        const bool one = c.count_if(core::ElectLeader::is_leader) == 1;
        tr->probe_ns += ns_since(tp);
        return one;
      };
  model.encode = [&](const core::Agent& agent) {
    if (tr->dirty) {
      ++tr->saves;
      tr->dirty = false;
    }
    std::string text;
    tr->encode.run([&] { text = core::snapshot_write_agent(agent); });
    return text;
  };
  model.decode = [](const std::string& text) {
    return core::snapshot_read_agent(text);
  };
  model.label = "elect_leader";

  const auto ti = Clock::now();
  const auto start = core::make_safe_config(params);
  tr_run.input_ms = ns_since(ti) / 1e6;
  {
    // run_fault_plan_counts builds its engine inside; time the same
    // construction on a copy of the start.
    pp::CountsConfiguration<TracedElectLeader> copy(start);
    const auto tc = Clock::now();
    pp::BatchedSimulator<TracedElectLeader> sim(protocol, std::move(copy), s);
    tr_run.construct_ms = ns_since(tc) / 1e6;
  }

  analysis::FaultRunOptions opts;
  opts.checkpoint_path = checkpoint_path(a, "traced");
  opts.checkpoint_every = w.checkpoint_every;
  opts.resume = false;
  pp::CountsConfiguration<TracedElectLeader> final_config(
      std::vector<core::Agent>{});
  tr->dirty = true;
  const auto te = Clock::now();
  const auto rep = analysis::run_fault_plan_counts(
      protocol, pp::CountsConfiguration<TracedElectLeader>(start), plan, s,
      model, opts, &final_config);
  tr_run.engine_wall_ns = static_cast<double>(ns_since(te));
  out.wall_s = seconds_since(t0);
  std::filesystem::remove(opts.checkpoint_path);

  out.interactions = rep.interactions;
  out.cycles = rep.recovery_times.size();
  out.fingerprint = rep.registry_fingerprint;
  out.ok = rep.completed && out.cycles >= 1 &&
           soak_registry_bounded(rep.metrics);
  if (!out.ok) out.why = "traced soak failed its output checks";
  tr_run.metrics = rep.metrics;
  tr_run.fault_events = rep.events;
  tr_run.soak_final = final_config.to_states();
  return tr_run;
}

TracedRun run_traced(const Workload& w, const Args& a, std::uint64_t s,
                     Tracer* tr) {
  switch (w.kind) {
    case Kind::kStabilize:
      return traced_stabilize(w, a, s, tr);
    case Kind::kEpidemic:
      return traced_epidemic(w, a, s, tr);
    case Kind::kSoak:
      return traced_soak(w, a, s, tr);
  }
  return {};
}

// --- engine matrix ------------------------------------------------------------

std::size_t matrix_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

/// Steps `sim` through up to `slice` interactions, stopping early at the
/// wall cap; returns M interactions per second.  Chunks start small and
/// double while a chunk takes under 20 ms, so a slow engine cannot overrun
/// the cap by more than one short chunk.
template <typename Sim>
double step_rate(Sim& sim, std::uint64_t slice, double cap_s) {
  const auto t0 = Clock::now();
  std::uint64_t done = 0;
  std::uint64_t chunk = 1024;
  while (done < slice) {
    const std::uint64_t c = std::min(chunk, slice - done);
    const auto tc = Clock::now();
    sim.step(c);
    done += c;
    if (seconds_since(t0) >= cap_s) break;
    if (seconds_since(tc) < 0.02) chunk *= 2;
  }
  return static_cast<double>(done) / seconds_since(t0) / 1e6;
}

/// Mint/s of every engine that can run the workload, on a fixed-length
/// slice from the first sub-seed's start.  0 marks an engine that cannot
/// run it: leaping needs a deterministic δ and a narrow registry, and the
/// naive engine materializes n agents (uint32 limit).
std::map<std::string, double> engine_matrix(const Workload& w,
                                            std::uint64_t s) {
  std::map<std::string, double> rate{
      {"naive", 0.0}, {"batched", 0.0}, {"sharded", 0.0}, {"leaping", 0.0}};
  const std::size_t threads = matrix_threads();
  if (w.kind == Kind::kEpidemic) {
    const std::uint64_t n = w.epidemic_n;
    const pp::Epidemic protocol{static_cast<std::uint32_t>(
        std::min<std::uint64_t>(n, 0xffffffffull))};
    const auto start = [n] {
      pp::CountsConfiguration<pp::Epidemic> c(std::vector<int>{1});
      c.add(0, n - 1);
      return c;
    };
    if (n <= 0xffffffffull) {
      pp::Simulator<pp::Epidemic> sim(protocol, s);
      rate["naive"] = step_rate(sim, w.matrix_slice, w.matrix_cap_s);
    }
    {
      pp::BatchedSimulator<pp::Epidemic> sim(protocol, start(), s);
      rate["batched"] = step_rate(sim, w.matrix_slice, w.matrix_cap_s);
    }
    {
      pp::ShardedSimulator<pp::Epidemic> sim(protocol, start(), s, threads);
      rate["sharded"] = step_rate(sim, w.matrix_slice, w.matrix_cap_s);
    }
    {
      pp::LeapingSimulator<pp::Epidemic> sim(protocol, start(), s);
      rate["leaping"] = step_rate(sim, w.matrix_slice, w.matrix_cap_s);
    }
    return rate;
  }

  const core::ElectLeader protocol(w.params);
  std::vector<core::Agent> config;
  if (w.kind == Kind::kSoak) {
    // The soak's first recovery burst: its safe start with one burst of
    // random agents swapped in.
    config = core::make_safe_config(w.params);
    util::Rng rng(util::substream(s, 3));
    for (std::uint64_t k = 0; k < w.corrupt_burst; ++k) {
      config[rng.below(config.size())] = core::random_agent(w.params, rng);
    }
  } else {
    config = stabilize_start(w, s);
  }
  {
    pp::Simulator<core::ElectLeader> sim(
        protocol, pp::Population<core::ElectLeader>(config), s);
    rate["naive"] = step_rate(sim, w.matrix_slice, w.matrix_cap_s);
  }
  {
    pp::BatchedSimulator<core::ElectLeader> sim(
        protocol, pp::CountsConfiguration<core::ElectLeader>(config), s);
    rate["batched"] = step_rate(sim, w.matrix_slice, w.matrix_cap_s);
  }
  {
    pp::ShardedSimulator<core::ElectLeader> sim(
        protocol, pp::CountsConfiguration<core::ElectLeader>(config), s,
        threads);
    rate["sharded"] = step_rate(sim, w.matrix_slice, w.matrix_cap_s);
  }
  return rate;
}

// --- checkpoint layer -----------------------------------------------------------

struct CheckpointStats {
  double save_ms = 0.0;
  double load_ms = 0.0;
  double bytes = 0.0;
  bool ok = true;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// make_checkpoint + checkpoint_save, and checkpoint_load +
/// restore_checkpoint, timed on a BatchedSimulator holding the soak's final
/// configuration.  A restore that fails or changes the registry is an
/// output-check failure.
CheckpointStats time_checkpoints(const Workload& w, const Args& a,
                                 const std::vector<core::Agent>& states,
                                 std::uint64_t s) {
  CheckpointStats st;
  const core::ElectLeader protocol(w.params);
  const auto encode = [](const core::Agent& agent) {
    return core::snapshot_write_agent(agent);
  };
  const auto decode = [](const std::string& text) {
    return core::snapshot_read_agent(text);
  };
  const std::string path = checkpoint_path(a, "layer");
  pp::BatchedSimulator<core::ElectLeader> sim(
      protocol, pp::CountsConfiguration<core::ElectLeader>(states), s);
  constexpr int kRepeats = 9;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  for (int i = 0; i < kRepeats; ++i) {
    const auto t0 = Clock::now();
    const auto doc = obs::make_checkpoint(sim, "elect_leader", encode);
    st.ok &= obs::checkpoint_save(path, doc);
    save_ms.push_back(ns_since(t0) / 1e6);

    const auto t1 = Clock::now();
    const auto loaded = obs::checkpoint_load(path);
    pp::BatchedSimulator<core::ElectLeader> fresh(
        protocol,
        pp::CountsConfiguration<core::ElectLeader>(std::vector<core::Agent>{}),
        s);
    const bool restored =
        loaded && obs::restore_checkpoint(fresh, *loaded, "elect_leader",
                                          decode);
    load_ms.push_back(ns_since(t1) / 1e6);
    st.ok &= restored && analysis::registry_fingerprint(fresh.config()) ==
                             analysis::registry_fingerprint(sim.config());
  }
  std::error_code ec;
  st.bytes = static_cast<double>(std::filesystem::file_size(path, ec));
  if (ec) st.ok = false;
  std::filesystem::remove(path);
  st.save_ms = median(save_ms);
  st.load_ms = median(load_ms);
  return st;
}

// --- reporting ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The highest percentile with at least ten samples beyond it; below 11
/// samples no percentile qualifies and the maximum stands in.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return v.back();
  const double pct = std::floor(100.0 * (1.0 - 10.0 / n));
  const std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, n) - 1];
}

/// Peak resident memory of this process image: VmHWM from
/// /proc/self/status.  (getrusage's ru_maxrss survives exec, so it would
/// report the launching Python process's peak instead.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<RunOutcome>& runs,
                  const std::vector<double>& calibration_s = {}) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}, \"runs\": [");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::printf("%s{\"seed\": \"%016" PRIx64 "\", \"ok\": %s, "
                "\"interactions\": %" PRIu64 ", \"wall_s\": %.6f, "
                "\"cpu_s\": %.6f, \"cycles\": %" PRIu64 ", "
                "\"fingerprint\": \"%016" PRIx64 "\"}",
                i ? ", " : "", r.seed, r.ok ? "true" : "false",
                r.interactions, r.wall_s, r.cpu_s, r.cycles, r.fingerprint);
  }
  std::printf("], \"calibration_ms\": [");
  for (std::size_t i = 0; i < calibration_s.size(); ++i) {
    std::printf("%s%.4f", i ? ", " : "", calibration_s[i] * 1e3);
  }
  std::printf("], \"host\": {\"compiler\": \"%s\", \"build_type\": \"%s\"}}\n",
              kCompiler, PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);
}

// --- host speed -------------------------------------------------------------------

/// CPU time of the calibration kernel on the reference host, rounded (the
/// 4-thread Intel Xeon container of the noise notes in README.md, where it
/// read 9.5–12.5 ms).
constexpr double kCalibrationNominalS = 0.010;

/// Runs a fixed calibration kernel and returns its CPU time: 4M
/// xorshift-driven reads and writes over a 256 KiB table.  It shares no code
/// with the library, so a change to the library cannot move it; what moves
/// it is how fast the host runs this process right now.
double calibration_kernel_s() {
  static std::vector<std::uint32_t> table(std::size_t{1} << 16);
  static std::uint64_t sink = 0;
  const std::size_t mask = table.size() - 1;
  const double c0 = cpu_seconds();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < 4000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::size_t j = x & mask;
    acc += table[j];
    table[(j * 7) & mask] += static_cast<std::uint32_t>(acc);
  }
  sink += acc;
  return cpu_seconds() - c0;
}

/// The calibration kernel is run before the first run, again before a run
/// once this much CPU time has passed since the last sample, and after the
/// last run.
constexpr double kCalibrationEveryS = 0.5;

/// The untraced runs and the calibration samples taken between them.
struct UntracedPass {
  std::vector<RunOutcome> runs;
  std::vector<double> calibration_s;
};

/// Untraced runs on consecutive sub-seeds until --seconds have elapsed
/// (always at least one run).
UntracedPass untraced_pass(const Workload& w, const Args& a) {
  UntracedPass pass;
  const auto t0 = Clock::now();
  double since_sample = kCalibrationEveryS;
  for (std::uint64_t i = 0; i == 0 || seconds_since(t0) < a.seconds; ++i) {
    if (since_sample >= kCalibrationEveryS) {
      pass.calibration_s.push_back(calibration_kernel_s());
      since_sample = 0.0;
    }
    pass.runs.push_back(run_untraced(w, a, sub_seed(a.seed, i)));
    const auto& r = pass.runs.back();
    since_sample += r.cpu_s;
    std::fprintf(stderr, "  run %2" PRIu64 " %s %12" PRIu64
                 " interactions %8.3f s%s%s\n",
                 i, r.ok ? "ok  " : "FAIL", r.interactions, r.wall_s,
                 r.why.empty() ? "" : "  ", r.why.c_str());
  }
  pass.calibration_s.push_back(calibration_kernel_s());
  return pass;
}

/// Interactions and solutions per CPU second over all untraced runs,
/// scaled to the reference host speed: times the pass's mean calibration
/// sample over kCalibrationNominalS.
///
/// The host's other tenants slow this process down, for seconds or for
/// minutes, by up to 2x, with no steal time to show for it.  The
/// calibration samples, spread evenly over the pass's CPU time, slow down
/// with it, so their mean over the nominal time estimates the pass's
/// average slow-down.  The estimate is partial: README.md's noise notes
/// give how much of each workload's drift it takes out.
std::pair<double, double> scaled_rates(const UntracedPass& pass) {
  double cpu = 0.0;
  double interactions = 0.0;
  double solutions = 0.0;
  for (const auto& r : pass.runs) {
    cpu += r.cpu_s;
    interactions += static_cast<double>(r.interactions);
    solutions += static_cast<double>(r.solutions);
  }
  double calibration = 0.0;
  for (const double c : pass.calibration_s) calibration += c;
  const double scale = calibration /
                       static_cast<double>(pass.calibration_s.size()) /
                       kCalibrationNominalS / std::max(cpu, 1e-9);
  return {interactions / 1e6 * scale, solutions * 3600.0 * scale};
}

int run_end_to_end(const Workload& w, const Args& a) {
  const auto pass = untraced_pass(w, a);
  const auto& runs = pass.runs;
  std::size_t failed = 0;
  std::vector<double> ptimes;
  for (const auto& r : runs) {
    failed += r.ok ? 0 : 1;
    ptimes.insert(ptimes.end(), r.parallel_times.begin(),
                  r.parallel_times.end());
  }
  const auto [minter_per_s, solutions_per_h] = scaled_rates(pass);
  const std::vector<Metric> metrics = {
      {"solutions_per_h", solutions_per_h, "solutions/h"},
      {"minter_per_s", minter_per_s, "Mint/s"},
      {"parallel_time_p50", median(ptimes), "parallel_time"},
      {"success_frac",
       static_cast<double>(runs.size() - failed) / runs.size(), "fraction"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  print_result(failed == 0, runs.size(), failed, metrics, runs,
               pass.calibration_s);
  return failed == 0 ? 0 : 1;
}

int run_traced_mode(const Workload& w, const Args& a) {
  // Each sub-seed runs untraced and then traced, back to back, so both
  // runs of a pair see the same process heap history.
  Tracer tr;
  std::vector<RunOutcome> runs;
  std::vector<TracedRun> traced;
  std::size_t failed = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i == 0 || seconds_since(t0) < a.seconds; ++i) {
    runs.push_back(run_untraced(w, a, sub_seed(a.seed, i)));
    const auto& r = runs.back();
    traced.push_back(run_traced(w, a, r.seed, &tr));
    const auto& t = traced.back().outcome;
    const bool same = t.interactions == r.interactions &&
                      t.cycles == r.cycles && t.fingerprint == r.fingerprint;
    if (!same) {
      std::fprintf(stderr,
                   "perfbench: traced replay of seed %016" PRIx64
                   " diverged: %" PRIu64 " vs %" PRIu64
                   " interactions, %" PRIu64 " vs %" PRIu64
                   " cycles, fingerprint %016" PRIx64 " vs %016" PRIx64 "\n",
                   r.seed, t.interactions, r.interactions, t.cycles, r.cycles,
                   t.fingerprint, r.fingerprint);
    }
    const std::string& why = r.why.empty() ? t.why : r.why;
    std::fprintf(stderr,
                 "  run %2" PRIu64 " %s untraced %8.3f s traced %8.3f s%s%s\n",
                 i, r.ok && t.ok && same ? "ok  " : "FAIL", r.wall_s,
                 t.wall_s, why.empty() ? "" : "  ", why.c_str());
    failed += (r.ok && t.ok && same) ? 0 : 1;
  }

  std::vector<double> run_s;
  double untraced_wall = 0.0;
  for (const auto& r : runs) {
    run_s.push_back(r.wall_s);
    untraced_wall += r.wall_s;
  }
  double traced_wall = 0.0;
  double engine_ns = 0.0;
  double interactions = 0.0;
  std::uint64_t fault_events = 0;
  std::vector<double> construct_ms;
  std::vector<double> input_ms;
  obs::EngineMetrics sum;
  for (const auto& t : traced) {
    traced_wall += t.outcome.wall_s;
    engine_ns += t.engine_wall_ns;
    interactions += static_cast<double>(t.outcome.interactions);
    fault_events += t.fault_events;
    construct_ms.push_back(t.construct_ms);
    input_ms.push_back(t.input_ms);
    sum += t.metrics;
  }
  // Registry gauges are per-run states, not totals: take the last run's.
  const obs::EngineMetrics& last = traced.back().metrics;

  CheckpointStats ck;
  if (w.kind == Kind::kSoak) {
    ck = time_checkpoints(w, a, traced.back().soak_final, runs.front().seed);
    if (!ck.ok) {
      std::fprintf(stderr, "perfbench: checkpoint save/restore check failed\n");
      ++failed;
    }
  }
  const auto matrix = engine_matrix(w, runs.front().seed);

  const double delta_ns = tr.delta_est_ns();
  const double fault_ns = tr.fault_callback.est_total_ns();
  const double encode_ns = tr.encode.est_total_ns();
  const double self_ns = engine_ns - delta_ns - tr.probe_ns - tr.side_ns -
                         fault_ns - encode_ns;
  const double blocks = static_cast<double>(sum.blocks_dense +
                                            sum.blocks_fenwick +
                                            sum.blocks_flat);
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<Metric> metrics;
  for (int c = 0; c < 4; ++c) {
    const std::string base =
        std::string("core.") + perfbench::kPairClassNames[c];
    metrics.push_back({base + ".calls", static_cast<double>(tr.pair[c].calls),
                       "count"});
    metrics.push_back({base + ".ns_per_call", tr.pair[c].ns_per_call(), "ns"});
  }
  metrics.push_back({"core.detect_collision.ns_per_call",
                     tr.detect_collision.ns_per_call(), "ns"});
  metrics.push_back({"core.balance_load.ns_per_call",
                     tr.balance_load.ns_per_call(), "ns"});
  metrics.push_back(
      {"core.safety.probes", static_cast<double>(tr.safety.calls), "count"});
  metrics.push_back(
      {"core.safety.ns_per_probe", tr.safety.ns_per_call(), "ns"});
  metrics.push_back({"core.adversary.config_ms", median(input_ms), "ms"});
  metrics.push_back(
      {"core.delta.share", per(delta_ns, engine_ns), "fraction"});
  metrics.push_back({"pp.engine.self_ns_per_interaction",
                     per(self_ns, interactions), "ns"});
  metrics.push_back({"pp.engine.construct_ms", median(construct_ms), "ms"});
  metrics.push_back({"pp.blocks", blocks, "count"});
  metrics.push_back({"pp.collision_resolutions",
                     static_cast<double>(sum.collision_resolutions), "count"});
  metrics.push_back({"pp.fenwick_point_updates",
                     static_cast<double>(sum.fenwick_point_updates), "count"});
  metrics.push_back({"pp.fenwick_samples",
                     static_cast<double>(sum.fenwick_samples), "count"});
  metrics.push_back({"pp.registry_live_states",
                     static_cast<double>(last.registry_live_states), "count"});
  metrics.push_back({"pp.registry_allocated_states",
                     static_cast<double>(last.registry_allocated_states),
                     "count"});
  metrics.push_back({"pp.registry_compactions",
                     static_cast<double>(sum.registry_compactions), "count"});
  metrics.push_back(
      {"pp.leap_windows", static_cast<double>(sum.leap_windows), "count"});
  metrics.push_back({"pp.leap_candidates",
                     static_cast<double>(sum.leap_candidates), "count"});
  metrics.push_back({"pp.envelope_breaches",
                     static_cast<double>(sum.envelope_breaches), "count"});
  metrics.push_back(
      {"pp.banded_pieces", static_cast<double>(sum.banded_pieces), "count"});
  metrics.push_back(
      {"pp.leapt_frac",
       per(static_cast<double>(sum.interactions_leapt),
           static_cast<double>(sum.interactions)),
       "fraction"});
  for (const char* engine : {"naive", "batched", "sharded", "leaping"}) {
    metrics.push_back({std::string("pp.matrix.") + engine + ".minter_per_s",
                       matrix.at(engine), "Mint/s"});
  }
  metrics.push_back({"analysis.run.s_p50", median(run_s), "s"});
  metrics.push_back({"analysis.run.s_tail", tail(run_s), "s"});
  metrics.push_back(
      {"analysis.run.samples", static_cast<double>(run_s.size()), "count"});
  metrics.push_back(
      {"analysis.fault.events", static_cast<double>(fault_events), "count"});
  metrics.push_back({"analysis.fault.ns_per_event",
                     per(fault_ns, static_cast<double>(fault_events)), "ns"});
  metrics.push_back(
      {"obs.checkpoint.saves", static_cast<double>(tr.saves), "count"});
  metrics.push_back({"obs.checkpoint.save_ms", ck.save_ms, "ms"});
  metrics.push_back({"obs.checkpoint.load_ms", ck.load_ms, "ms"});
  metrics.push_back({"obs.checkpoint.bytes", ck.bytes, "bytes"});
  metrics.push_back({"obs.checkpoint.encode_ns_per_state",
                     tr.encode.ns_per_call(), "ns"});
  metrics.push_back({"trace.overhead_frac",
                     traced_wall / untraced_wall - 1.0, "fraction"});

  std::vector<RunOutcome> traced_outcomes;
  for (const auto& t : traced) traced_outcomes.push_back(t.outcome);
  print_result(failed == 0, runs.size(), failed, metrics, traced_outcomes);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload workload = make_workload(args.workload, args.toy);
  if (args.setup_only) return 0;
  std::fprintf(stderr, "perfbench: %s seed %" PRIu64 " trace %d\n",
               workload.name.c_str(), args.seed, args.trace);
  if (args.trace == 1) perfbench::calibrate_clock();
  return args.trace == 1 ? run_traced_mode(workload, args)
                         : run_end_to_end(workload, args);
}
