// Clocks around the library's layers, from outside the library.
//
// The traced pass of the benchmark runs the same trajectories as the
// untraced pass, through wrapper protocols that forward every transition
// to the library's own δ (core::ElectLeader::interact, pp::Epidemic) and
// time it on the way.  A wrapper keeps the library's State type, so the
// engines, the registry hashes and the RNG draws are exactly those of the
// untraced run; the benchmark checks that per seed (interactions, and for
// the soak the registry fingerprint and cycle count) and fails otherwise.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/agent.hpp"
#include "core/detect_collision.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "core/safety.hpp"
#include "pp/counts.hpp"
#include "pp/epidemic.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Cost of the clock reads around one timed call, measured once at start
/// (calibrate_clock) and subtracted from every per-call estimate.
inline double g_clock_overhead_ns = 0.0;

/// Calls of one kind: every call is counted, one in `every` is timed
/// (a steady_clock pair costs tens of ns, which would swamp a 30 ns
/// ranker interaction if every call were timed).
struct CallStat {
  std::uint64_t every = 1;
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  std::uint64_t ns = 0;

  double ns_per_call() const {
    if (timed == 0) return 0.0;
    return std::max(0.0, static_cast<double>(ns) / timed -
                             g_clock_overhead_ns);
  }
  /// Estimated total time of all calls, scaling the timed sample up.
  double est_total_ns() const { return ns_per_call() * calls; }

  template <typename F>
  void run(F&& f) {
    if (calls++ % every != 0) {
      f();
      return;
    }
    const auto t0 = Clock::now();
    f();
    ns += ns_since(t0);
    ++timed;
  }
};

/// Sets g_clock_overhead_ns: the smallest mean cost of an empty timed
/// call over a few batches.
inline void calibrate_clock() {
  double best = 1e9;
  for (int batch = 0; batch < 5; ++batch) {
    CallStat empty;
    for (int i = 0; i < 20000; ++i) empty.run([] {});
    best = std::min(best, static_cast<double>(empty.ns) / empty.timed);
  }
  g_clock_overhead_ns = best;
}

/// Pair classes of ElectLeader_r's δ, decided from the roles before the
/// call: any resetter → PropagateReset; two rankers → AssignRanks; two
/// verifiers → StableVerify; a ranker meeting a verifier → the role
/// transition of Protocol 1 lines 6–8.
enum PairClass { kReset = 0, kRank = 1, kVerify = 2, kTransition = 3 };
inline constexpr std::array<const char*, 4> kPairClassNames = {
    "reset", "rank", "verify", "transition"};

inline PairClass classify(const ssle::core::Agent& u,
                          const ssle::core::Agent& v) {
  using ssle::core::Role;
  if (u.role == Role::kResetting || v.role == Role::kResetting) return kReset;
  if (u.role == Role::kRanking && v.role == Role::kRanking) return kRank;
  if (u.role == Role::kVerifying && v.role == Role::kVerifying) return kVerify;
  return kTransition;
}

/// Everything the traced pass accumulates.  One instance per traced pass;
/// the wrapper protocols hold a pointer to it.
struct Tracer {
  std::array<CallStat, 4> pair{CallStat{16}, CallStat{64}, CallStat{1},
                               CallStat{16}};
  CallStat epidemic_delta{64};

  // Side calls on copies of verifier pairs (never touch the run).
  std::uint64_t side_every = 32;
  std::uint64_t side_seen = 0;
  CallStat detect_collision;
  CallStat balance_load;
  std::uint64_t side_ns = 0;  ///< copies + side calls, all wall
  ssle::util::Rng side_rng{0x51de5eedULL};

  CallStat safety;           ///< core::is_safe_configuration in the probe
  std::uint64_t probe_ns = 0;  ///< whole probe predicate (⊇ safety)

  CallStat fault_callback;  ///< FaultModel corrupt_state / join_state
  CallStat encode;          ///< checkpoint per-state encodes in the soak
  std::uint64_t saves = 0;  ///< checkpoints the soak wrote
  bool dirty = true;        ///< an interaction ran since the last encode

  double delta_est_ns() const {
    double t = epidemic_delta.est_total_ns();
    for (const auto& c : pair) t += c.est_total_ns();
    return t;
  }
};

/// core::ElectLeader with clocks: same State, same δ, same RNG draws.
class TracedElectLeader {
 public:
  using State = ssle::core::Agent;

  TracedElectLeader(const ssle::core::ElectLeader& inner, Tracer* tracer)
      : inner_(&inner), tracer_(tracer) {}

  std::uint32_t population_size() const { return inner_->population_size(); }
  State initial_state(std::uint32_t agent) const {
    return inner_->initial_state(agent);
  }

  void interact(State& u, State& v, ssle::util::Rng& rng) const {
    tracer_->dirty = true;
    const PairClass c = classify(u, v);
    if (c == kVerify) side_calls(u, v);
    tracer_->pair[c].run([&] { inner_->interact(u, v, rng); });
  }

 private:
  /// Times DetectCollision and BalanceLoad on copies of one verifier pair
  /// in side_every, when the generations match (the only case in which
  /// StableVerify calls DetectCollision).  The copies and the side RNG
  /// keep the run itself unperturbed.
  void side_calls(const State& u, const State& v) const {
    if (u.sv.generation != v.sv.generation) return;
    if (tracer_->side_seen++ % tracer_->side_every != 0) return;
    const auto t0 = Clock::now();
    const auto& params = inner_->params();
    {
      State cu = u;
      State cv = v;
      tracer_->detect_collision.run([&] {
        ssle::core::detect_collision(params, cu.rank, cu.sv.dc, cv.rank,
                                     cv.sv.dc, tracer_->side_rng);
      });
    }
    if (params.group_of(u.rank) == params.group_of(v.rank) &&
        !u.sv.dc.error && !v.sv.dc.error) {
      State cu = u;
      State cv = v;
      tracer_->balance_load.run([&] {
        ssle::core::balance_load(params, cu.rank, cu.sv.dc, cv.sv.dc);
      });
    }
    tracer_->side_ns += ns_since(t0);
  }

  const ssle::core::ElectLeader* inner_;
  Tracer* tracer_;
};

/// pp::Epidemic with clocks; keeps the leap-eligibility declarations.
struct TracedEpidemic {
  using State = int;
  static constexpr bool kDeterministicInteract = true;
  static constexpr bool kNarrowRegistry = true;

  ssle::pp::Epidemic inner;
  Tracer* tracer;

  std::uint32_t population_size() const { return inner.population_size(); }
  State initial_state(std::uint32_t agent) const {
    return inner.initial_state(agent);
  }
  void interact(State& u, State& v, ssle::util::Rng& rng) const {
    tracer->epidemic_delta.run([&] { inner.interact(u, v, rng); });
  }
};

/// The counts-native safe predicate for the traced soak's registry type.
/// core::is_safe_configuration has counts overloads only for the library's
/// own protocol types, so this mirrors their multiset pre-checks (n
/// agents, each count 1, all verifiers, distinct ranks in [1, n], one
/// generation) and then calls the library's message-system scan, exactly
/// as the library does.  The benchmark's reproduction check pins it to the
/// library's decisions: a different decision changes the soak trajectory.
inline bool counts_safe(const ssle::core::Params& params,
                        const ssle::pp::CountsConfiguration<TracedElectLeader>&
                            counts) {
  using ssle::core::Agent;
  using ssle::core::Role;
  if (counts.population_size() != params.n || params.n == 0) return false;
  std::vector<bool> seen(params.n + 1, false);
  bool ok = true;
  bool first = true;
  std::uint32_t generation = 0;
  counts.for_each([&](const Agent& a, std::uint64_t count) {
    if (!ok) return;
    if (count != 1 || a.role != Role::kVerifying || a.rank < 1 ||
        a.rank > params.n || seen[a.rank]) {
      ok = false;
      return;
    }
    seen[a.rank] = true;
    if (first) {
      generation = a.sv.generation;
      first = false;
    } else if (a.sv.generation != generation) {
      ok = false;
    }
  });
  return ok &&
         ssle::core::message_system_consistent(params, counts.to_states());
}

}  // namespace perfbench
