// Stabilization / convergence measurement for ElectLeader_r and baselines.
//
// The paper's measurement matrix — clean-start convergence (Theorem 1.1),
// recovery from arbitrary corruption (Lemma 6.3) and the Lemma A.2
// epidemic — runs through two entry points:
//
//   stabilize(engine, start, params, corruption, seed, budget, topology)
//   epidemic_convergence(engine, n, seed, budget, probe_every, topology)
//
// with engine ∈ {naive, batched, leaping, sharded[:T]} × topology ∈
// {complete, islands:K, multipartite:K, ring}; the overloads without a
// topology are the complete graph.  Each (engine, topology) pair routes to
// an engine that simulates it exactly (see Engine and Topology below), and
// one run loop per workload does the probing, tracing, journaling and
// checkpointing on whichever engine runs.  Adversarial starts project
// core::make_adversarial_config through the counts representation on the
// counts engines (the per-agent array is counted into state classes and
// discarded), so every adversarial figure can run at n = 10^5+ instead of
// being stuck at naive-engine scale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/agent.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "obs/metrics.hpp"
#include "pp/graph.hpp"
#include "pp/simulator.hpp"

namespace ssle::obs {
class Journal;
}  // namespace ssle::obs

namespace ssle::analysis {

class Trace;

struct StabilizationResult {
  bool converged = false;
  std::uint64_t interactions = 0;
  double parallel_time = 0.0;
  std::uint32_t leaders = 0;  ///< leader count at the end
  /// Engine counter snapshot at the end of the run (obs/metrics.hpp):
  /// which engine actually ran (after routing), and what it did.
  obs::EngineMetrics metrics;
};

/// Observability hooks for stabilize(): evaluated at the same probe grid as
/// the safe predicate, on whichever engine the request routes to.  The
/// trace records a counts-native census + safety flag per probe (O(q) while
/// the run is unsafe — affordable at n = 10^6+ on the counts engines); the
/// journal emits heartbeat events with the engine's live counters.  Both
/// are optional and may be combined; `probe_every` of 0 keeps the engines'
/// default probe grid (n interactions).
struct ProbeOptions {
  Trace* trace = nullptr;
  obs::Journal* journal = nullptr;
  std::uint64_t probe_every = 0;
  /// Crash-safe checkpointing (obs/checkpoint.hpp), counts engines only:
  /// when checkpoint_path is nonempty and checkpoint_every > 0, the engine
  /// atomically saves a checkpoint every checkpoint_every interactions (on
  /// the probe grid) and resumes from an existing file at the path.  Note
  /// that saving canonicalizes the registry, so a checkpointed run's
  /// trajectory matches OTHER checkpointed runs (in particular its own
  /// kill−9/resume), not an uncheckpointed run.  Engines without a
  /// checkpoint format — naive, the ring, and the community engine on
  /// blocked topologies — run uncheckpointed, with one stderr note naming
  /// the engine and the topology.
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
};

/// Which simulation engine a measurement should run on.
/// Graph-restricted workloads (pp::GraphScheduler) are naive-only by
/// design — pp::BatchedSimulator enforces that with a static_assert on
/// its scheduler type.
///
/// kLeaping selects pp::LeapingSimulator where the workload is eligible
/// (deterministic δ AND a narrow registry, pp::LeapEligible).  ElectLeader_r
/// draws randomness in δ and DerandomizedElectLeader keeps q ≈ n distinct
/// states, so neither is leap-eligible: stabilize() and
/// stabilize_derandomized() route kLeaping to the batched engine (the
/// nearest exact engine) rather than failing — `--engine=leaping` is safe
/// to pass to every bench, and pays off on the workloads that can leap
/// (epidemic_convergence below).
///
/// kSharded selects pp::ShardedSimulator: the batched block machinery with
/// one run's blocks fanned out over T shards on a worker pool — exact for
/// any T, bit-identical to kBatched at T = 1.  Uniform (complete-topology)
/// workloads only: blocked topologies reroute loudly to the community
/// batched engine, the ring to naive.
enum class Engine { kNaive, kBatched, kLeaping, kSharded };

/// An engine request: the engine kind plus its parameters (today just the
/// sharded engine's shard count).  Implicitly interconvertible with Engine
/// so existing call sites — `stabilize(Engine::kBatched, ...)`,
/// `switch (engine)`, `engine == Engine::kNaive` — keep working unchanged;
/// only code that must preserve the shard count (CLI plumbing) needs to
/// hold the EngineSpec itself.
struct EngineSpec {
  Engine kind = Engine::kBatched;
  std::size_t shards = 0;  ///< sharded engine: T (0 = default_shard_count())

  EngineSpec() = default;
  /*implicit*/ EngineSpec(Engine k) : kind(k) {}
  EngineSpec(Engine k, std::size_t t) : kind(k), shards(t) {}
  /*implicit*/ operator Engine() const { return kind; }
};

/// Which initial configuration a measurement starts from: the protocol's
/// clean initial configuration, or an adversarial configuration drawn by
/// core::make_adversarial_config (self-stabilization quantifies over
/// arbitrary starts).
enum class StartKind { kClean, kAdversarial };

/// Which interaction topology a measurement runs on.  The Engine × Topology
/// dispatch in stabilize()/epidemic_convergence() routes each combination
/// to an engine that simulates it *exactly*:
///
///   * kComplete      — the classical model; every engine.
///   * kIslands       — K cliques (intra weight) bridged all-to-all (inter
///                      weight); blocked (pp::BlockedTopology), so naive
///                      runs pp::BlockedScheduler and batched/leaping run
///                      the lumped (community, state) engine
///                      (pp::CommunityCountsConfiguration) — the only
///                      engine for it beyond naive-feasible n.
///   * kMultipartite  — complete K-partite (inter edges only); blocked,
///                      same routing as islands.
///   * kRing          — the cycle graph: NOT blocked (no community lumping
///                      exists — each agent's neighborhood is private), so
///                      only the naive agent-array engine is exact.  A
///                      batched/leaping request routes to naive with a loud
///                      stderr note; population sizes beyond the naive
///                      engine's uint32 limit are a hard error naming the
///                      topology, because no engine supports that point.
struct Topology {
  enum class Kind { kComplete, kIslands, kMultipartite, kRing };
  Kind kind = Kind::kComplete;
  std::uint32_t communities = 1;  ///< K (blocked kinds only)
  double intra = 1.0;             ///< islands intra-community edge weight
  double inter = 0.05;            ///< islands inter-community edge weight
  std::string spec = "complete";  ///< the canonical CLI spelling
};

/// Parses a `--topology=` CLI value:
///   complete | ring | islands:K | islands:K:intra:inter | multipartite:K
/// Exits with a clear error on anything else (K and the weights are
/// validated here; sizes are validated against n by blocked_topology).
Topology topology_from_string(const std::string& spec);
const char* topology_name(const Topology& topology);

/// True when the topology admits the (community, state) lumping — i.e. the
/// counts engines can run it exactly (pp::LumpableTopology is the engine-
/// side concept; this is the analysis-side routing predicate).
bool topology_is_lumpable(const Topology& topology);

/// The pp::BlockedTopology descriptor for a lumpable topology at
/// population size n (exits with a clear error when n is too small for K
/// communities).  Must not be called for kRing — the ring is not blocked.
pp::BlockedTopology blocked_topology(const Topology& topology,
                                     std::uint64_t n);

/// Parses a `--engine=` CLI value
/// ("naive" | "batched" | "leaping" | "sharded" | "sharded:T"); exits with
/// a clear error on anything else.  "sharded" alone picks
/// pp::default_shard_count() shards at run time.
EngineSpec engine_from_string(const std::string& name);
const char* engine_name(Engine engine);

/// Parses a `--start=` CLI value ("clean" | "adversarial"); exits with a
/// clear error on anything else.
StartKind start_from_string(const std::string& name);
const char* start_name(StartKind start);

/// Parses a `--mult=` CLI value ("faithful" | "light"); exits with a
/// clear error on anything else (a typo'd "light" must not silently run
/// the far more expensive faithful sweep).
core::MessageMultiplicity multiplicity_from_string(const std::string& name);
const char* multiplicity_name(core::MessageMultiplicity mult);

/// Runs ElectLeader_r on the chosen engine from the chosen start until the
/// safe predicate holds (or the budget is exhausted).  `corruption` is
/// consulted only for StartKind::kAdversarial; the adversarial
/// configuration is drawn from a seed-derived stream, identically for both
/// engines, so naive and batched runs start from the same distribution
/// (the trajectories themselves agree statistically, never bit-wise).
///
/// Engine guidance: core::Agent hashes, so the batched registry always
/// takes its indexed path, and its Fenwick-indexed block sampling costs
/// O(L·log q) per length-L block even at q ≈ n distinct states — but
/// ElectLeader_r keeps q ≈ n live states (FastLE identifiers, ranks), so
/// counts compress little and per-interaction state copies/hashes remain;
/// bench_parallel_sweep measures the honest wall-clock ratio.  The batched
/// engine is what makes n = 10^5–10^6 rows executable and is strictly
/// preferable for count-compressible workloads.
StabilizationResult stabilize(EngineSpec engine, StartKind start,
                              const core::Params& params,
                              core::Corruption corruption, std::uint64_t seed,
                              std::uint64_t max_interactions,
                              const ProbeOptions& probes = {});

/// Clean-start convenience overload.  Deliberately takes no StartKind:
/// an adversarial measurement must name its corruption class, so there
/// is no way to ask for an adversarial start and silently get kNone.
StabilizationResult stabilize(EngineSpec engine, const core::Params& params,
                              std::uint64_t seed,
                              std::uint64_t max_interactions);

/// Engine × Topology dispatch (see Topology above): runs ElectLeader_r on
/// the chosen topology, with each combination routed to an exact engine.
/// The overloads without a topology are this one on kComplete; blocked
/// topologies run BlockedScheduler (naive) or the lumped community engine
/// (batched/leaping — leaping has no community leap path yet and routes to
/// the community batched engine, mirroring its ineligible-protocol
/// routing); kRing is naive-only (loud reroute).  Both engines of a
/// blocked topology start from the same agent→community layout, so their
/// laws agree (pinned by tiny-n TV tests).
StabilizationResult stabilize(EngineSpec engine, StartKind start,
                              const core::Params& params,
                              core::Corruption corruption, std::uint64_t seed,
                              std::uint64_t max_interactions,
                              const Topology& topology,
                              const ProbeOptions& probes = {});

/// Runs core::DerandomizedElectLeader (paper App. B: ElectLeader_r with a
/// *deterministic* transition function) from a clean start on the chosen
/// engine until the safe predicate holds.  On the batched engine the
/// deterministic-δ opt-in routes every interaction through the memoized
/// (id, id) → (id, id) transition cache (pp/delta_cache.hpp) — this is the
/// measurement entry point for that path, used by bench_parallel_sweep §5
/// and the CI smoke.
StabilizationResult stabilize_derandomized(EngineSpec engine,
                                           const core::Params& params,
                                           std::uint64_t seed,
                                           std::uint64_t max_interactions);

/// Runs ElectLeader_r from an explicit per-agent configuration on the
/// naive engine (the building block for mid-run-corruption tests and any
/// measurement that needs agent identity).
StabilizationResult stabilize_from(const core::Params& params,
                                   std::vector<core::Agent> config,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions,
                                   const ProbeOptions& probes = {});

/// A generous default interaction budget for (n, r):
/// c · (n²/r) · log n, scaled to dominate the protocol's constants.
std::uint64_t default_budget(const core::Params& params);

/// Lemma A.2 acceptance workload: the one-way epidemic from one infected
/// agent, run to full infection on the chosen engine.  Returns the raw
/// RunResult (interactions at the first probe where infection is total).
/// `n` is 64-bit — the leap engine runs this at n = 10^10, beyond the
/// uint32 population sizes of the agent-array engines — so the counts
/// configuration is built directly from {1 infected, n−1 susceptible}
/// (O(1), never an O(n) agent loop).  The naive engine materializes n
/// agents and is rejected (exit 2) above uint32.  `max_interactions` of 0
/// means the standard 64 · n · ⌈log2 n⌉ epidemic budget; `probe_every` of
/// 0 means the engines' default probe grid (n) — pass 1 for exact hit
/// times when fitting constants at small n (bench_f9).
/// The trailing `journal` (when non-null) receives a heartbeat with the
/// engine's counter snapshot at every probe — the cheap way to watch a
/// n = 10^10 leap run make progress.
pp::RunResult epidemic_convergence(EngineSpec engine, std::uint64_t n,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions = 0,
                                   std::uint64_t probe_every = 0,
                                   obs::Journal* journal = nullptr);

/// Engine × Topology epidemic: one infected agent (agent 0, community 0)
/// run to full infection.  The uniform overload is this one on kComplete;
/// blocked topologies route naive → BlockedScheduler and batched/leaping →
/// the lumped community engine, whose O(K) configuration keeps n = 10^6+
/// feasible (an islands edge list at that n would hold ~5·10^11 edges).
/// kRing runs the cycle graph on the naive engine (batched/leaping reroute
/// loudly; n beyond uint32 is a hard error naming the topology).
/// `max_interactions` of 0 scales the default budget to the topology: the
/// blocked default is 8× the complete-graph 64·n·⌈log2 n⌉ (crossing
/// sparse inter-community cuts), and the ring default is 16·n² (the cycle
/// spreads by boundary contact — Θ(n²) interactions, paper §2 conductance).
pp::RunResult epidemic_convergence(EngineSpec engine, std::uint64_t n,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions,
                                   std::uint64_t probe_every,
                                   const Topology& topology,
                                   obs::Journal* journal = nullptr);

}  // namespace ssle::analysis
