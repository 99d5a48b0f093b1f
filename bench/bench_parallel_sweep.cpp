// The multi-trial experiment runner, measured.  Three sections:
//
//   [1] Determinism — parallel_sweep must return a SweepResult that is
//       bit-identical to serial sweep() for every jobs count (each trial
//       is a pure function of its seed; results are collected in seed
//       order).  Verified here on a real ElectLeader workload, and the
//       serial-vs-parallel wall clock gives the measured multi-core
//       speedup.
//
//   [2] Engine cross-validation — stabilize(naive) vs stabilize(batched)
//       at --ncross (default 1024).  std::hash<core::Agent> puts the
//       batched registry on the O(1) path, but ElectLeader keeps ~n
//       distinct live states (FastLE identifiers), so counts compress
//       little for this protocol: this section reports the honest ratio
//       rather than assuming the batched engine wins.
//
//   [3] Scale — a paper sweep point at n = --nbig (default 10^6): the
//       Lemma A.2 epidemic bound (< 7·n·ln n w.h.p.), multi-trial on the
//       batched engine with trials fanned across cores.  The same
//       measurement bench_f9 runs at n ≤ 512 on the naive engine.
//
//   [4] Fenwick registry at q ≈ n — ElectLeader from a random_states
//       adversarial start at n = --nfen (default 10^5), so the registry
//       holds ≈ n distinct states from the first block.  Both engines run
//       the same fixed interaction count (--fen-interactions; recovery to
//       convergence at this scale is a multi-minute bench, fixed work is
//       the honest apples-to-apples wall clock) and the table reports the
//       naive/batched ratio plus which block sampler the batched engine
//       chose (fenwick vs dense blocks).
//
//   [5] Interned-state engine + memoized δ-cache at q ≈ n — the PR-5 A/B.
//       DerandomizedElectLeader (deterministic δ, the paper's App. B
//       presentation) from the same random_states start at n = --nmem,
//       fixed work: naive vs batched-uncached (DeltaMemo::kDisabled — the
//       per-interaction path minus the cache) vs batched-memoized.  Plus
//       an epidemic parity gate: the memoized engine must not lose to the
//       uncached dense path on the two-state workload (--gate-perf turns
//       a regression there into a nonzero exit for CI).  Section 4 run on
//       the same binary is the like-for-like comparison point against the
//       PR 3 numbers recorded in ROADMAP/BENCH_PR5.json.
//
//   [6] Pair-type leap engine — the PR-6 A/B.  Same Lemma A.2 epidemic
//       measurement as section 3, twice: a multi-trial sweep at n = --nbig
//       on the leaping engine (law parity with section 3's batched means
//       plus the wall-clock ratio; --gate-perf fails the run if either
//       regresses), and the headline single-trial point at n = --nleap
//       (default 10^10 — beyond the naive engine's 32-bit population
//       ceiling) where the banded batch path resolves whole windows in
//       O(1) draws and the sweep completes in about a second.
//
//   [7] Community lumping — the PR-7 law gate.  The Lemma A.2 epidemic on
//       a blocked islands topology, twice: the naive agent-array engine
//       under pp::BlockedScheduler and the lumped (community, state)
//       engine (pp::CommunityCountsConfiguration under the batched
//       simulator).  Exact probes (probe_every = 1) at n = --ncomm, so the
//       two empirical means estimate the same hitting-time law and must
//       agree within the CI band — a statistical twin of the tiny-n TV
//       tests, run at a scale where a pair-weight bug cannot hide either.
//       Law only: the engines have disjoint feasibility ranges (§3 of
//       bench_e1_graphical is the wall-clock story), so --gate-perf gates
//       the law band, not the wall clock.
//
//   [8] Observability overhead — the PR-8 gate.  The memoized epidemic
//       workload of section 5 run twice with identical chunked stepping:
//       plain, and with a metrics()+Journal::tick probe per chunk (the
//       heartbeat sink is /dev/null unless --json is set).  The engine
//       counters themselves are always-on in both runs; what this gates is
//       the cost of *reading* them — the snapshot + journal layer must
//       stay under 3% on the hottest path (--gate-perf turns a breach into
//       a nonzero exit).
//
//   [9] Sharded single-run engine, two parts.  (a) T = 1 parity:
//       --engine=sharded:1 delegates to a real BatchedSimulator, so a
//       stabilization run must return the exact same result as
//       --engine=batched — always gated, like section 1's determinism
//       check.  (b) The headline: one adversarial ElectLeader run at
//       q ≈ n = --nfen, batched vs sharded:4 — the single-run speedup the
//       sharded engine exists for, gated ≥ 1.25× under --gate-perf when
//       the host has ≥ 4 cores (loud skip otherwise; the honest measured
//       ratio is reported and recorded either way).
//
//   --n=64 --trials=8 --seed=7 --jobs=0 (0 = all cores)
//   --ncross=1024 --cross-trials=1 --nbig=1000000
//   --nfen=100000 --fen-interactions=1000000
//   --nmem=100000 --mem-interactions=300000
//   --nleap=10000000000 --ncomm=2000 --json=<path> --gate-perf
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/derandomized.hpp"
#include "core/params.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/epidemic.hpp"
#include "pp/sharded_simulator.hpp"
#include "pp/simulator.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool identical(const analysis::SweepResult& a, const analysis::SweepResult& b) {
  return a.samples == b.samples && a.failures == b.failures &&
         a.summary.count == b.summary.count && a.summary.mean == b.summary.mean &&
         a.summary.stddev == b.summary.stddev &&
         a.summary.median == b.summary.median && a.summary.p10 == b.summary.p10 &&
         a.summary.p90 == b.summary.p90;
}

double epidemic_time_batched(std::uint32_t n, std::uint64_t seed) {
  pp::Epidemic proto{n};
  pp::BatchedSimulator<pp::Epidemic> sim(proto, seed);
  const auto r = sim.run_until(
      [](const pp::CountsConfiguration<pp::Epidemic>& c, std::uint64_t) {
        return c.count_of(1) == c.population_size();
      },
      64ull * n * core::Params::log2ceil(n));
  return r.converged ? static_cast<double>(r.interactions) : -1.0;
}

double epidemic_time_leaping(std::uint64_t n, std::uint64_t seed) {
  const auto r =
      analysis::epidemic_convergence(analysis::Engine::kLeaping, n, seed);
  return r.converged ? static_cast<double>(r.interactions) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 64);
  const auto trials = cli.get_count("trials", 8);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const auto jobs = analysis::effective_jobs(cli.get_jobs(), trials);
  const auto ncross = cli.get_count_u32("ncross", 1024);
  const auto cross_trials = cli.get_count("cross-trials", 1);
  const auto nbig =
      cli.get_count_u32("nbig", 1000000);
  const auto nfen = cli.get_count_u32("nfen", 100000);
  const auto fen_interactions = cli.get_count("fen-interactions", 1000000);
  const auto nmem = cli.get_count_u32("nmem", 100000);
  const auto mem_interactions = cli.get_count("mem-interactions", 300000);
  const auto nleap =
      static_cast<std::uint64_t>(cli.get_count("nleap", 10000000000ull));
  const auto ncomm = cli.get_count_u32("ncomm", 2000);
  const auto json_path = cli.get_string("json", "");
  const bool gate_perf = cli.has("gate-perf");

  obs::Report report("parallel_sweep", 9);

  analysis::print_banner(
      "PS (parallel sweep runner)",
      "parallel_sweep is bit-identical to serial sweep for any jobs count "
      "and scales with cores; the batched engine extends paper sweeps to "
      "n >= 10^6",
      "identical tables at jobs 1/2/N; speedup ~ min(jobs, trials); "
      "epidemic at n=10^6 within 7 n ln n");

  // [1] Determinism + speedup on ElectLeader stabilization.
  const core::Params params = core::Params::make(n, n / 2);
  const auto measure = [&](std::uint64_t s) {
    const auto run = analysis::stabilize(analysis::Engine::kNaive, params, s,
                                         analysis::default_budget(params));
    return run.converged ? static_cast<double>(run.interactions) : -1.0;
  };
  auto t0 = Clock::now();
  const auto serial = analysis::sweep(seed, trials, measure);
  const double serial_s = seconds_since(t0);
  const auto two = analysis::parallel_sweep(seed, trials, measure, 2);
  t0 = Clock::now();
  const auto wide = analysis::parallel_sweep(seed, trials, measure, jobs);
  const double wide_s = seconds_since(t0);

  const bool ok = identical(serial, two) && identical(serial, wide);
  util::Table t1({"runner", "jobs", "mean", "ci95", "fails", "wall_s",
                  "speedup"});
  t1.add_row({"sweep", "1", util::fmt(serial.summary.mean, 0),
              util::fmt(util::ci95_halfwidth(serial.summary), 0),
              util::fmt_int(static_cast<long long>(serial.failures)),
              util::fmt(serial_s, 2), "1.0x"});
  t1.add_row({"parallel_sweep", util::fmt_int(static_cast<long long>(jobs)),
              util::fmt(wide.summary.mean, 0),
              util::fmt(util::ci95_halfwidth(wide.summary), 0),
              util::fmt_int(static_cast<long long>(wide.failures)),
              util::fmt(wide_s, 2),
              util::fmt(wide_s > 0 ? serial_s / wide_s : 0.0, 1) + "x"});
  std::cout << "\n[1] Determinism + speedup (ElectLeader n=" << n
            << ", r=" << n / 2 << ", trials=" << trials << "):\n";
  t1.print(std::cout);
  t1.print_csv(std::cout);
  std::cout << "bit-identical across jobs {1, 2, " << jobs << "}: "
            << (ok ? "YES" : "NO — BUG") << "\n";
  {
    auto s1 = util::Json::object();
    s1.set("n", static_cast<std::uint64_t>(n));
    s1.set("trials", static_cast<std::uint64_t>(trials));
    s1.set("jobs", static_cast<std::uint64_t>(jobs));
    s1.set("bit_identical", ok);
    s1.set("serial_wall_s", serial_s);
    s1.set("parallel_wall_s", wide_s);
    report.section("determinism", std::move(s1));
  }

  // [2] Naive vs batched engine on the same measurement.
  {
    const core::Params p =
        core::Params::make(ncross, 64, core::MessageMultiplicity::kLight);
    util::Table t2({"engine", "mean interactions", "fails", "wall_s"});
    double naive_s = 0.0, batched_s = 0.0;
    for (const auto engine :
         {analysis::Engine::kNaive, analysis::Engine::kBatched}) {
      t0 = Clock::now();
      const auto res = analysis::parallel_sweep(
          seed + 1000, cross_trials,
          [&](std::uint64_t s) {
            const auto run = analysis::stabilize(
                engine, p, s, analysis::default_budget(p));
            return run.converged ? static_cast<double>(run.interactions)
                                 : -1.0;
          },
          jobs);
      const double wall = seconds_since(t0);
      (engine == analysis::Engine::kNaive ? naive_s : batched_s) = wall;
      t2.add_row({analysis::engine_name(engine),
                  util::fmt(res.summary.mean, 0),
                  util::fmt_int(static_cast<long long>(res.failures)),
                  util::fmt(wall, 2)});
    }
    std::cout << "\n[2] Engine cross-validation (ElectLeader n=" << ncross
              << ", r=64, light multiplicity, trials=" << cross_trials
              << "):\n";
    t2.print(std::cout);
    t2.print_csv(std::cout);
    std::cout << "batched/naive wall-clock ratio: "
              << util::fmt(naive_s > 0 ? batched_s / naive_s : 0.0, 2)
              << " (ElectLeader keeps ~n distinct states, so counts "
                 "compress little here; two-state workloads are the "
                 "batched engine's home turf — see section 3)\n";
    auto s2 = util::Json::object();
    s2.set("n", static_cast<std::uint64_t>(ncross));
    s2.set("naive_wall_s", naive_s);
    s2.set("batched_wall_s", batched_s);
    report.section("cross_engine", std::move(s2));
  }

  // [3] A paper sweep point at n >= 10^6: Lemma A.2 epidemic, batched.
  // The summary and wall clock feed section 6's leap-vs-batched parity
  // gate, so they live in the outer scope.
  util::Summary batched_epi_summary;
  double batched_epi_wall_s = 0.0;
  {
    t0 = Clock::now();
    const auto res = analysis::parallel_sweep(
        seed + 2000, trials,
        [&](std::uint64_t s) { return epidemic_time_batched(nbig, s); }, jobs);
    const double wall = seconds_since(t0);
    const double bound = 7.0 * static_cast<double>(nbig) *
                         std::log(static_cast<double>(nbig));
    util::Table t3({"n", "epidemic(mean)", "ci95", "epi/(n·ln n)", "fails",
                    "wall_s"});
    t3.add_row({util::fmt_int(nbig), util::fmt(res.summary.mean, 0),
                util::fmt(util::ci95_halfwidth(res.summary), 0),
                util::fmt(res.summary.mean /
                              (static_cast<double>(nbig) *
                               std::log(static_cast<double>(nbig))),
                          2),
                util::fmt_int(static_cast<long long>(res.failures)),
                util::fmt(wall, 2)});
    std::cout << "\n[3] Batched-engine sweep point at n=" << nbig
              << " (Lemma A.2, " << trials << " trials across " << jobs
              << " jobs):\n";
    t3.print(std::cout);
    t3.print_csv(std::cout);
    std::cout << "w.h.p. bound 7·n·ln n = " << util::fmt(bound, 0) << ": "
              << (res.failures == 0 && res.summary.max < bound ? "HELD"
                                                               : "EXCEEDED")
              << "\n";
    auto s3 = util::Json::object();
    s3.set("n", static_cast<std::uint64_t>(nbig));
    s3.set("epidemic_mean_interactions", res.summary.mean);
    s3.set("failures", static_cast<std::uint64_t>(res.failures));
    s3.set("bound_held", res.failures == 0 && res.summary.max < bound);
    s3.set("wall_s", wall);
    report.section("epidemic_scale", std::move(s3));
    batched_epi_summary = res.summary;
    batched_epi_wall_s = wall;
  }

  // [4] Fenwick registry at q ≈ n: ElectLeader throughput from a
  // random_states adversarial start (the registry is ≈ n distinct states
  // from interaction zero), fixed work on both engines.  r stays small
  // (64, as in section 2): per-agent state is Θ(r), so r = n/2 at this n
  // would be a memory bench, not a sampler bench — and q ≈ n already
  // holds at small r via the FastLE identifiers and AssignRanks labels.
  {
    const core::Params p = core::Params::make(
        nfen, std::min(64u, std::max(1u, nfen / 2)),
        core::MessageMultiplicity::kLight);
    util::Rng gen(util::substream(seed + 3000, 77));
    const auto adversarial = core::make_adversarial_config(
        p, core::Corruption::kRandomStates, gen);

    core::ElectLeader protocol(p);
    t0 = Clock::now();
    {
      pp::Simulator<core::ElectLeader> sim(
          protocol, pp::Population<core::ElectLeader>(adversarial),
          seed + 3000);
      sim.step(fen_interactions);
    }
    const double naive_s = seconds_since(t0);

    const auto batched_wall = [&](pp::BlockSampling sampling) {
      pp::CountsConfiguration<core::ElectLeader> counts(adversarial);
      pp::BatchedSimulator<core::ElectLeader> bsim(
          protocol, std::move(counts), seed + 3000, sampling);
      const auto start_t = Clock::now();
      bsim.step(fen_interactions);
      return seconds_since(start_t);
    };
    // The A/B this section exists for: the PR-2 dense sampler (O(q) per
    // block) against the Fenwick sampler (O(L·log q) per block) on the
    // exact same workload, plus the naive engine as the honest yardstick.
    const double dense_s = batched_wall(pp::BlockSampling::kDense);
    const double fenwick_s = batched_wall(pp::BlockSampling::kFenwick);

    util::Table t4({"engine", "interactions", "wall_s", "Mint/s"});
    const auto add = [&](const char* name, double wall) {
      t4.add_row({name, util::fmt_int(static_cast<long long>(fen_interactions)),
                  util::fmt(wall, 2),
                  util::fmt(fen_interactions / 1e6 / std::max(1e-9, wall), 2)});
    };
    add("naive", naive_s);
    add("batched (dense blocks)", dense_s);
    add("batched (fenwick blocks)", fenwick_s);
    std::cout << "\n[4] Fenwick registry at q ~ n (ElectLeader n=" << nfen
              << ", r=" << p.r
              << ", light, random_states start, fixed work):\n";
    t4.print(std::cout);
    t4.print_csv(std::cout);
    std::cout << "initial live states q="
              << pp::CountsConfiguration<core::ElectLeader>(adversarial)
                     .num_live_states()
              << " of n=" << nfen << "\n"
              << "fenwick vs dense block sampling speedup: "
              << util::fmt(fenwick_s > 0 ? dense_s / fenwick_s : 0.0, 2)
              << "x\nnaive/batched(fenwick) wall-clock ratio: "
              << util::fmt(fenwick_s > 0 ? naive_s / fenwick_s : 0.0, 2)
              << " (>1 means the batched engine wins; honest either way — "
                 "the interned id-space loop removed the per-interaction "
                 "allocations, but the randomized δ still pays two state "
                 "copy-assigns and a hash per changed output)\n";
    auto s4 = util::Json::object();
    s4.set("n", static_cast<std::uint64_t>(nfen));
    s4.set("interactions", static_cast<std::uint64_t>(fen_interactions));
    s4.set("naive_wall_s", naive_s);
    s4.set("batched_dense_wall_s", dense_s);
    s4.set("batched_fenwick_wall_s", fenwick_s);
    report.section("fenwick_q_eq_n", std::move(s4));
  }

  // [5] Interned-state engine + memoized δ-cache at q ≈ n: the A/B this
  // PR exists for.  DerandomizedElectLeader (deterministic δ) from the
  // same kind of random_states start as section 4, fixed work, three
  // ways: naive, batched with the memo cache pinned OFF (the uncached
  // per-interaction path), batched with the cache ON.  Cached and
  // uncached runs are bit-identical by construction (tests pin that), so
  // the wall-clock delta is purely the cache.
  bool gate_ok = true;
  {
    const core::Params p = core::Params::make(
        nmem, std::min(64u, std::max(1u, nmem / 2)),
        core::MessageMultiplicity::kLight);
    util::Rng gen(util::substream(seed + 4000, 77));
    const auto agents = core::make_adversarial_config(
        p, core::Corruption::kRandomStates, gen);
    // Wrap the corrupted agents with the protocol's own initial synthetic
    // coins (wrap_agent keeps the stagger rule in one place).
    std::vector<core::DerandomizedElectLeader::State> derand;
    derand.reserve(agents.size());
    for (std::uint32_t i = 0; i < agents.size(); ++i) {
      derand.push_back(
          core::DerandomizedElectLeader::wrap_agent(agents[i], p, i));
    }
    core::DerandomizedElectLeader dproto(p);

    t0 = Clock::now();
    {
      pp::Simulator<core::DerandomizedElectLeader> sim(
          dproto, pp::Population<core::DerandomizedElectLeader>(derand),
          seed + 4000);
      sim.step(mem_interactions);
    }
    const double derand_naive_s = seconds_since(t0);

    std::uint64_t hits = 0, misses = 0, entries = 0;
    const auto batched_wall = [&](pp::DeltaMemo memo) {
      pp::CountsConfiguration<core::DerandomizedElectLeader> counts(derand);
      pp::BatchedSimulator<core::DerandomizedElectLeader> bsim(
          dproto, std::move(counts), seed + 4000, pp::BlockSampling::kAuto,
          memo);
      const auto start_t = Clock::now();
      bsim.step(mem_interactions);
      const double w = seconds_since(start_t);
      if (memo == pp::DeltaMemo::kEnabled) {
        hits = bsim.delta_cache_hits();
        misses = bsim.delta_cache_misses();
        entries = bsim.delta_cache_size();
      }
      return w;
    };
    const double uncached_s = batched_wall(pp::DeltaMemo::kDisabled);
    const double cached_s = batched_wall(pp::DeltaMemo::kEnabled);

    // Clean start on the same protocol: the registry starts narrow and the
    // convergence regime keeps revisiting the same pair types — the
    // memoized path's favourable regime, as the adversarial random_states
    // start (fresh identifiers everywhere, pair types almost never recur)
    // is its unfavourable one.  Both are reported.
    std::uint64_t clean_hits = 0, clean_misses = 0;
    const auto clean_wall = [&](pp::DeltaMemo memo) {
      pp::BatchedSimulator<core::DerandomizedElectLeader> bsim(
          dproto, seed + 4500, pp::BlockSampling::kAuto, memo);
      const auto start_t = Clock::now();
      bsim.step(mem_interactions);
      const double w = seconds_since(start_t);
      if (memo == pp::DeltaMemo::kEnabled) {
        clean_hits = bsim.delta_cache_hits();
        clean_misses = bsim.delta_cache_misses();
      }
      return w;
    };
    const double clean_uncached_s = clean_wall(pp::DeltaMemo::kDisabled);
    const double clean_cached_s = clean_wall(pp::DeltaMemo::kEnabled);

    util::Table t5({"start", "engine", "interactions", "wall_s", "Mint/s"});
    const auto add = [&](const char* start, const char* name, double wall) {
      t5.add_row({start, name,
                  util::fmt_int(static_cast<long long>(mem_interactions)),
                  util::fmt(wall, 2),
                  util::fmt(mem_interactions / 1e6 / std::max(1e-9, wall), 2)});
    };
    add("random_states", "naive", derand_naive_s);
    add("random_states", "batched (memo off)", uncached_s);
    add("random_states", "batched (memo on)", cached_s);
    add("clean", "batched (memo off)", clean_uncached_s);
    add("clean", "batched (memo on)", clean_cached_s);
    std::cout << "\n[5] Interned engine + memoized δ-cache "
                 "(DerandomizedElectLeader n=" << nmem << ", r=" << p.r
              << ", light, fixed work):\n";
    t5.print(std::cout);
    t5.print_csv(std::cout);
    const auto rate = [](std::uint64_t h, std::uint64_t m) {
      return h + m > 0 ? static_cast<double>(h) / static_cast<double>(h + m)
                       : 0.0;
    };
    std::cout << "δ-cache, random_states start: " << hits << " hits / "
              << misses << " misses ("
              << util::fmt(100.0 * rate(hits, misses), 1) << "% hit rate, "
              << entries << " resident pair types)\n"
              << "δ-cache, clean start: " << clean_hits << " hits / "
              << clean_misses << " misses ("
              << util::fmt(100.0 * rate(clean_hits, clean_misses), 1)
              << "% hit rate)\n"
              << "memoized vs uncached speedup: "
              << util::fmt(cached_s > 0 ? uncached_s / cached_s : 0.0, 2)
              << "x (random_states), "
              << util::fmt(
                     clean_cached_s > 0 ? clean_uncached_s / clean_cached_s
                                        : 0.0,
                     2)
              << "x (clean)\nnaive/batched(memoized) wall-clock ratio: "
              << util::fmt(cached_s > 0 ? derand_naive_s / cached_s : 0.0, 2)
              << " (>1 means the batched engine wins; honest either way)\n";

    // Epidemic parity gate: on the two-state workload the memoized engine
    // must at least match the uncached dense path (the PR 3 hot path) —
    // the cache would be a net loss if its lookups cost more than the δ
    // calls it replaces on narrow registries.
    pp::Epidemic eproto{nmem};
    const std::uint64_t epi_work = 50 * static_cast<std::uint64_t>(nmem);
    // min-of-3, alternating the two configurations, so a single scheduler
    // hiccup (or first-run cache warmup) cannot flip the gate on a shared
    // CI runner.
    const auto epidemic_wall = [&](pp::DeltaMemo memo) {
      pp::BatchedSimulator<pp::Epidemic> bsim(
          eproto, seed + 5000, pp::BlockSampling::kDense, memo);
      const auto start_t = Clock::now();
      bsim.step(epi_work);
      return seconds_since(start_t);
    };
    double epi_uncached_s = 1e300, epi_cached_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      epi_uncached_s =
          std::min(epi_uncached_s, epidemic_wall(pp::DeltaMemo::kDisabled));
      epi_cached_s =
          std::min(epi_cached_s, epidemic_wall(pp::DeltaMemo::kEnabled));
    }
    gate_ok = epi_cached_s <= 1.25 * epi_uncached_s + 0.02;
    std::cout << "epidemic parity gate (n=" << nmem << ", " << epi_work
              << " interactions, dense blocks): uncached "
              << util::fmt(epi_uncached_s, 3) << "s vs memoized "
              << util::fmt(epi_cached_s, 3) << "s — "
              << (gate_ok ? "PASS" : "FAIL (memoized engine slower)") << "\n";

    auto s5 = util::Json::object();
    s5.set("n", static_cast<std::uint64_t>(nmem));
    s5.set("interactions", static_cast<std::uint64_t>(mem_interactions));
    s5.set("derand_naive_wall_s", derand_naive_s);
    s5.set("derand_batched_uncached_wall_s", uncached_s);
    s5.set("derand_batched_memoized_wall_s", cached_s);
    s5.set("delta_cache_hits", hits);
    s5.set("delta_cache_misses", misses);
    s5.set("delta_cache_entries", entries);
    s5.set("clean_batched_uncached_wall_s", clean_uncached_s);
    s5.set("clean_batched_memoized_wall_s", clean_cached_s);
    s5.set("clean_delta_cache_hits", clean_hits);
    s5.set("clean_delta_cache_misses", clean_misses);
    s5.set("epidemic_uncached_wall_s", epi_uncached_s);
    s5.set("epidemic_memoized_wall_s", epi_cached_s);
    s5.set("epidemic_gate_ok", gate_ok);
    report.section("interned_memoized", std::move(s5));
  }

  // [6] Pair-type leap engine: the same Lemma A.2 measurement as section
  // 3 on the leaping engine.  Law parity first (the leap trajectory is
  // exactly distributed as the sequential one; the means must agree up to
  // sampling noise), wall clock second.
  bool leap_gate_ok = true;
  {
    t0 = Clock::now();
    const auto res = analysis::parallel_sweep(
        seed + 6000, trials,
        [&](std::uint64_t s) {
          return epidemic_time_leaping(nbig, s);
        },
        jobs);
    const double wall = seconds_since(t0);

    const double leap_ci = util::ci95_halfwidth(res.summary);
    const double batched_ci = util::ci95_halfwidth(batched_epi_summary);
    // Independent seed sets: the gap between the two means is within
    // 2·sqrt(ci_l² + ci_b²) with ≈95% probability when the laws agree; 3×
    // keeps shared-CI-runner flakiness out of the gate without letting a
    // real law divergence through.
    const double band =
        3.0 * std::sqrt(leap_ci * leap_ci + batched_ci * batched_ci);
    const bool law_ok =
        res.failures == 0 &&
        std::abs(res.summary.mean - batched_epi_summary.mean) <= band;
    // The leap engine exists to be faster on this workload; parity (with
    // the same slack as the memo gate) is the floor, not the target.
    const bool wall_ok = wall <= 1.25 * batched_epi_wall_s + 0.02;
    leap_gate_ok = law_ok && wall_ok;

    util::Table t6({"engine", "n", "epidemic(mean)", "ci95", "fails",
                    "wall_s"});
    t6.add_row({"batched", util::fmt_int(nbig),
                util::fmt(batched_epi_summary.mean, 0),
                util::fmt(batched_ci, 0), "0",
                util::fmt(batched_epi_wall_s, 2)});
    t6.add_row({"leaping", util::fmt_int(nbig),
                util::fmt(res.summary.mean, 0), util::fmt(leap_ci, 0),
                util::fmt_int(static_cast<long long>(res.failures)),
                util::fmt(wall, 2)});
    std::cout << "\n[6] Pair-type leap engine (Lemma A.2 epidemic, "
              << trials << " trials at n=" << nbig << "):\n";
    t6.print(std::cout);
    t6.print_csv(std::cout);
    std::cout << "leap-vs-batched parity gate: law "
              << (law_ok ? "PASS" : "FAIL") << " (|Δmean| "
              << util::fmt(std::abs(res.summary.mean -
                                    batched_epi_summary.mean),
                           0)
              << " vs band " << util::fmt(band, 0) << "), wall "
              << (wall_ok ? "PASS" : "FAIL") << " ("
              << util::fmt(wall, 2) << "s vs batched "
              << util::fmt(batched_epi_wall_s, 2) << "s)\n";

    // The headline point: n = 10^10 — 250× beyond the naive engine's
    // 32-bit population ceiling — converges in roughly a second because
    // the banded batch path resolves whole windows in O(1) draws.
    t0 = Clock::now();
    const auto head = analysis::epidemic_convergence(
        analysis::Engine::kLeaping, nleap, seed + 6500);
    const double head_wall = seconds_since(t0);
    const double nl = static_cast<double>(nleap);
    const double head_bound = 7.0 * nl * std::log(nl);
    const bool head_ok = head.converged &&
                         static_cast<double>(head.interactions) < head_bound;
    std::cout << "headline: n=" << nleap << " epidemic "
              << (head.converged ? "converged" : "DID NOT CONVERGE")
              << " at " << head.interactions << " interactions ("
              << util::fmt(static_cast<double>(head.interactions) /
                               (nl * std::log(nl)),
                           2)
              << "·n·ln n, w.h.p. bound " << (head_ok ? "HELD" : "EXCEEDED")
              << ") in " << util::fmt(head_wall, 2) << "s\n";

    auto s6 = util::Json::object();
    s6.set("n", static_cast<std::uint64_t>(nbig));
    s6.set("leap_mean_interactions", res.summary.mean);
    s6.set("batched_mean_interactions", batched_epi_summary.mean);
    s6.set("failures", static_cast<std::uint64_t>(res.failures));
    s6.set("leap_wall_s", wall);
    s6.set("batched_wall_s", batched_epi_wall_s);
    s6.set("law_gate_ok", law_ok);
    s6.set("wall_gate_ok", wall_ok);
    s6.set("headline_n", nleap);
    s6.set("headline_interactions", head.interactions);
    s6.set("headline_converged", head.converged);
    s6.set("headline_bound_held", head_ok);
    s6.set("headline_wall_s", head_wall);
    report.section("leap_engine", std::move(s6));
  }

  // [7] Community lumping: the naive agent-array engine under
  // BlockedScheduler vs the lumped (community, state) engine, same islands
  // topology, same epidemic, exact probes.  Both estimate the same
  // hitting-time law (tests/test_community_counts.cpp pins the exact laws
  // at tiny n by total variation); here the means must agree within the
  // combined CI band at a scale where constants matter.
  bool comm_gate_ok = true;
  {
    const auto topology = analysis::topology_from_string("islands:4:1.0:0.1");
    const auto epi_on = [&](analysis::Engine engine, std::uint64_t s) {
      const auto r = analysis::epidemic_convergence(engine, ncomm, s, 0,
                                                    /*probe_every=*/1,
                                                    topology);
      return r.converged ? static_cast<double>(r.interactions) : -1.0;
    };
    t0 = Clock::now();
    const auto naive_res = analysis::parallel_sweep(
        seed + 7000, trials,
        [&](std::uint64_t s) { return epi_on(analysis::Engine::kNaive, s); },
        jobs);
    const double naive_wall = seconds_since(t0);
    t0 = Clock::now();
    const auto lumped_res = analysis::parallel_sweep(
        seed + 7500, trials,
        [&](std::uint64_t s) { return epi_on(analysis::Engine::kBatched, s); },
        jobs);
    const double lumped_wall = seconds_since(t0);

    const double naive_ci = util::ci95_halfwidth(naive_res.summary);
    const double lumped_ci = util::ci95_halfwidth(lumped_res.summary);
    const double band =
        3.0 * std::sqrt(naive_ci * naive_ci + lumped_ci * lumped_ci);
    const double gap =
        std::abs(naive_res.summary.mean - lumped_res.summary.mean);
    comm_gate_ok = naive_res.failures == 0 && lumped_res.failures == 0 &&
                   gap <= band;

    util::Table t7({"engine", "n", "epidemic(mean)", "ci95", "fails",
                    "wall_s"});
    t7.add_row({"naive (BlockedScheduler)", util::fmt_int(ncomm),
                util::fmt(naive_res.summary.mean, 0),
                util::fmt(naive_ci, 0),
                util::fmt_int(static_cast<long long>(naive_res.failures)),
                util::fmt(naive_wall, 2)});
    t7.add_row({"batched (lumped)", util::fmt_int(ncomm),
                util::fmt(lumped_res.summary.mean, 0),
                util::fmt(lumped_ci, 0),
                util::fmt_int(static_cast<long long>(lumped_res.failures)),
                util::fmt(lumped_wall, 2)});
    std::cout << "\n[7] Community lumping law parity (epidemic on "
                 "islands:4:1.0:0.1, "
              << trials << " trials at n=" << ncomm << ", exact probes):\n";
    t7.print(std::cout);
    t7.print_csv(std::cout);
    std::cout << "naive-vs-lumped law gate: "
              << (comm_gate_ok ? "PASS" : "FAIL") << " (|Δmean| "
              << util::fmt(gap, 0) << " vs band " << util::fmt(band, 0)
              << ")\n";

    auto s7 = util::Json::object();
    s7.set("n", static_cast<std::uint64_t>(ncomm));
    s7.set("topology", "islands:4:1.0:0.1");
    s7.set("naive_mean_interactions", naive_res.summary.mean);
    s7.set("lumped_mean_interactions", lumped_res.summary.mean);
    s7.set("naive_failures", static_cast<std::uint64_t>(naive_res.failures));
    s7.set("lumped_failures",
           static_cast<std::uint64_t>(lumped_res.failures));
    s7.set("naive_wall_s", naive_wall);
    s7.set("lumped_wall_s", lumped_wall);
    s7.set("law_gate_ok", comm_gate_ok);
    report.section("community_lumping", std::move(s7));
  }

  // [8] Observability overhead: the memoized epidemic path of section 5,
  // plain vs observed.  Both runs step in identical chunks (so the engine
  // work is the same machine code either way); the observed run adds what
  // the journal layer actually costs per probe — an EngineMetrics snapshot
  // and a Journal::tick (which only *emits* when its interaction gate
  // passes).  min-of-3, alternating, same slack form as the other gates.
  bool obs_gate_ok = true;
  {
    pp::Epidemic eproto{nmem};
    const std::uint64_t epi_work = 50 * static_cast<std::uint64_t>(nmem);
    const std::uint64_t chunk = nmem;
    const std::string sink =
        json_path.empty() ? "/dev/null" : json_path + ".journal.jsonl";

    obs::EngineMetrics observed_metrics;
    const auto epidemic_wall = [&](bool observed) {
      pp::BatchedSimulator<pp::Epidemic> bsim(
          eproto, seed + 8000, pp::BlockSampling::kDense,
          pp::DeltaMemo::kEnabled);
      obs::Journal::Options jopts;
      jopts.path = sink;
      jopts.every_interactions = epi_work / 4;
      jopts.budget = epi_work;
      jopts.run = "parallel_sweep_s8";
      obs::Journal journal(jopts);
      const auto start_t = Clock::now();
      for (std::uint64_t done = 0; done < epi_work; done += chunk) {
        bsim.step(std::min<std::uint64_t>(chunk, epi_work - done));
        if (observed) journal.tick(bsim.interactions(), bsim.metrics());
      }
      const double w = seconds_since(start_t);
      if (observed) observed_metrics = bsim.metrics();
      return w;
    };
    double plain_s = 1e300, observed_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      plain_s = std::min(plain_s, epidemic_wall(false));
      observed_s = std::min(observed_s, epidemic_wall(true));
    }
    obs_gate_ok = observed_s <= 1.03 * plain_s + 0.02;
    const double ratio = plain_s > 0 ? observed_s / plain_s : 0.0;
    std::cout << "\n[8] Observability overhead (memoized epidemic n=" << nmem
              << ", " << epi_work << " interactions, " << epi_work / chunk
              << " probes): plain " << util::fmt(plain_s, 3)
              << "s vs observed " << util::fmt(observed_s, 3) << "s (ratio "
              << util::fmt(ratio, 3) << ") — "
              << (obs_gate_ok ? "PASS (< 3% + 20ms slack)"
                              : "FAIL (metrics layer too hot)")
              << "\n";

    auto s8 = util::Json::object();
    s8.set("n", static_cast<std::uint64_t>(nmem));
    s8.set("interactions", epi_work);
    s8.set("plain_wall_s", plain_s);
    s8.set("observed_wall_s", observed_s);
    s8.set("overhead_ratio", ratio);
    s8.set("gate_ok", obs_gate_ok);
    s8.set("final_metrics", observed_metrics.to_json());
    report.section("observability_overhead", std::move(s8));
  }

  // [9] Sharded single-run engine: parity and single-run speedup.
  bool sharded_parity_ok = true;
  bool sharded_gate_ok = true;
  {
    // (a) T = 1 parity: --engine=sharded:1 delegates to a real
    // BatchedSimulator, so a full adversarial stabilization must return
    // the exact same result — interactions, leader count, and engine
    // counters alike.  Always gated, like section 1's determinism check:
    // if this breaks, the sharded engine's claim to exactness is void.
    const core::Params p9 =
        core::Params::make(2048, 64, core::MessageMultiplicity::kLight);
    const auto budget9 = analysis::default_budget(p9);
    const auto run_b = analysis::stabilize(
        analysis::Engine::kBatched, analysis::StartKind::kAdversarial, p9,
        core::Corruption::kRandomStates, seed + 9000, budget9);
    const auto run_s = analysis::stabilize(
        analysis::EngineSpec(analysis::Engine::kSharded, 1),
        analysis::StartKind::kAdversarial, p9,
        core::Corruption::kRandomStates, seed + 9000, budget9);
    sharded_parity_ok =
        run_b.converged == run_s.converged &&
        run_b.interactions == run_s.interactions &&
        run_b.leaders == run_s.leaders &&
        run_b.metrics.blocks_dense == run_s.metrics.blocks_dense &&
        run_b.metrics.blocks_fenwick == run_s.metrics.blocks_fenwick &&
        run_b.metrics.collision_resolutions ==
            run_s.metrics.collision_resolutions;
    std::cout << "\n[9] Sharded engine:\n"
              << "sharded:1 vs batched parity (ElectLeader n=" << p9.n
              << ", random_states start, full stabilization): "
              << (sharded_parity_ok ? "PASS" : "FAIL — BUG") << " ("
              << run_s.interactions << " vs " << run_b.interactions
              << " interactions)\n";

    // (b) The headline: ONE adversarial ElectLeader run at q ≈ n = --nfen
    // (the section-4 workload — per-draw Fenwick territory, no dense
    // bulk path, δ-cache useless), batched vs sharded:4, fixed work.
    // Phases A–C go wide; the serial remainder (shard-label draws,
    // collision resolution, merges) bounds the ratio per Amdahl, so the
    // gate asks for 1.25× — the honest measured number is reported and
    // recorded either way — and only on hosts with ≥ 4 cores.
    const core::Params pf = core::Params::make(
        nfen, std::min(64u, std::max(1u, nfen / 2)),
        core::MessageMultiplicity::kLight);
    util::Rng gen9(util::substream(seed + 9200, 77));
    const auto adversarial9 = core::make_adversarial_config(
        pf, core::Corruption::kRandomStates, gen9);
    core::ElectLeader fproto(pf);
    const std::size_t shard_t = 4;

    const auto batched_one_run = [&] {
      pp::CountsConfiguration<core::ElectLeader> counts(adversarial9);
      pp::BatchedSimulator<core::ElectLeader> bsim(fproto, std::move(counts),
                                                   seed + 9200);
      const auto start_t = Clock::now();
      bsim.step(fen_interactions);
      return seconds_since(start_t);
    };
    obs::EngineMetrics shard_final;
    const auto sharded_one_run = [&] {
      pp::ShardedSimulator<core::ElectLeader> ssim(
          fproto, pp::CountsConfiguration<core::ElectLeader>(adversarial9),
          seed + 9200, shard_t);
      const auto start_t = Clock::now();
      ssim.step(fen_interactions);
      const double w = seconds_since(start_t);
      shard_final = ssim.metrics();
      return w;
    };
    double batched_one_s = 1e300, sharded_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      batched_one_s = std::min(batched_one_s, batched_one_run());
      sharded_s = std::min(sharded_s, sharded_one_run());
    }
    const double shard_speedup =
        sharded_s > 0 ? batched_one_s / sharded_s : 0.0;
    const unsigned cores = std::thread::hardware_concurrency();
    const bool enough_cores = cores >= 4;

    util::Table t9({"engine", "interactions", "wall_s", "Mint/s"});
    const auto add9 = [&](const char* name, double wall) {
      t9.add_row({name, util::fmt_int(static_cast<long long>(fen_interactions)),
                  util::fmt(wall, 2),
                  util::fmt(fen_interactions / 1e6 / std::max(1e-9, wall), 2)});
    };
    add9("batched (one run)", batched_one_s);
    add9("sharded:4 (one run)", sharded_s);
    std::cout << "single-run speedup at q ~ n (ElectLeader n=" << nfen
              << ", r=" << pf.r << ", random_states start, fixed work):\n";
    t9.print(std::cout);
    t9.print_csv(std::cout);
    std::cout << "cross-shard fraction "
              << util::fmt(shard_final.interactions > 0
                               ? static_cast<double>(
                                     shard_final.cross_shard_interactions) /
                                     static_cast<double>(
                                         shard_final.interactions)
                               : 0.0,
                           3)
              << " (expect ~ 1 - 1/T = 0.75), collisions "
              << shard_final.collision_resolutions << "\n";
    if (enough_cores) {
      sharded_gate_ok = 1.25 * sharded_s <= batched_one_s + 0.02;
      std::cout << "sharded:4 vs batched single-run speedup: "
                << util::fmt(shard_speedup, 2) << "x — gate (>= 1.25x) "
                << (sharded_gate_ok ? "PASS"
                                    : "FAIL (sharding lost on this host)")
                << "\n";
    } else {
      std::cout << "sharded:4 vs batched single-run speedup: "
                << util::fmt(shard_speedup, 2) << "x — gate SKIPPED (host has "
                << cores << " hardware threads; the gate needs >= 4)\n";
    }

    auto s9 = util::Json::object();
    s9.set("parity_n", static_cast<std::uint64_t>(p9.n));
    s9.set("parity_ok", sharded_parity_ok);
    s9.set("sharded_n", static_cast<std::uint64_t>(nfen));
    s9.set("sharded_t", static_cast<std::uint64_t>(shard_t));
    s9.set("hardware_threads", static_cast<std::uint64_t>(cores));
    s9.set("batched_one_run_wall_s", batched_one_s);
    s9.set("sharded_wall_s", sharded_s);
    s9.set("sharded_speedup", shard_speedup);
    s9.set("sharded_gate_applied", enough_cores);
    s9.set("sharded_gate_ok", sharded_gate_ok);
    s9.set("cross_shard_interactions", shard_final.cross_shard_interactions);
    s9.set("intra_shard_interactions", shard_final.intra_shard_interactions);
    s9.set("collision_resolutions", shard_final.collision_resolutions);
    report.section("sharded", std::move(s9));
  }

  report.write_if(json_path, std::cout);

  // The determinism check and the sharded:1 parity check are this binary's
  // reason to exist — both fail loudly (CI runs it on every push).
  // --gate-perf additionally fails the run when the memoized engine
  // regresses on the epidemic workload, the leap engine loses law or
  // wall-clock parity with the batched engine, the lumped community engine
  // drifts from the naive blocked-scheduler law, the observability layer
  // costs more than 3% on the hottest path, or (on ≥ 4-core hosts) the
  // sharded engine fails to beat the batched engine by 1.25× on a single
  // adversarial run at q ≈ n.
  return (ok && sharded_parity_ok &&
          (!gate_perf || (gate_ok && leap_gate_ok && comm_gate_ok &&
                          obs_gate_ok && sharded_gate_ok)))
             ? 0
             : 1;
}
