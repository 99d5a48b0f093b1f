#include "analysis/measure.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <utility>

#include "analysis/trace.hpp"
#include "core/derandomized.hpp"
#include "core/safety.hpp"
#include "core/snapshot.hpp"
#include "obs/checkpoint.hpp"
#include "obs/journal.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/community_counts.hpp"
#include "pp/epidemic.hpp"
#include "pp/graph.hpp"
#include "pp/leaping_simulator.hpp"
#include "pp/sharded_simulator.hpp"
#include "pp/simulator.hpp"

namespace ssle::analysis {

std::uint64_t default_budget(const core::Params& params) {
  const double n = params.n;
  const double r = params.r;
  const double L = std::log2(n) + 1.0;
  return static_cast<std::uint64_t>(150.0 * (n * n / r) * L) + 200000;
}

namespace {

// --- the Engine × Topology routing table ----------------------------------

/// Engine routing for a topology request, loud on every degrade: the ring
/// has no community lumping (each agent's neighborhood is private to it),
/// so the counts engines reroute to naive; on a blocked topology the
/// sharded engine's birthday-block partition assumes the uniform pair law,
/// which community weighting breaks, so it reroutes to the community
/// batched engine.
EngineSpec route_topology_engine(EngineSpec engine, const Topology& topology) {
  if (topology.kind == Topology::Kind::kRing && engine != Engine::kNaive) {
    std::fprintf(stderr,
                 "note: topology '%s' has no lumped configuration; routing "
                 "--engine=%s to the naive agent-array engine\n",
                 topology_name(topology), engine_name(engine));
    return Engine::kNaive;
  }
  if (topology.kind != Topology::Kind::kComplete &&
      engine == Engine::kSharded) {
    std::fprintf(stderr,
                 "note: topology '%s' is community-weighted; the sharded "
                 "engine's uniform block partition does not apply — routing "
                 "--engine=sharded to the community batched engine\n",
                 topology_name(topology));
    return Engine::kBatched;
  }
  return engine;
}

/// Builds the engine that runs `engine` on the complete topology and hands
/// it to `run`.  kLeaping runs the leap engine only for leap-eligible
/// protocols (pp::LeapEligible) and otherwise the batched engine, the
/// nearest exact one.  `start` supplies the initial configuration in the
/// form each engine takes: population() for the agent-array engine,
/// counts() for the counts engines.
template <typename P, typename Start, typename Run>
auto on_uniform_engine(EngineSpec engine, const P& protocol,
                       std::uint64_t seed, Start& start, const Run& run) {
  switch (engine.kind) {
    case Engine::kNaive: {
      pp::Simulator<P> sim(protocol, start.population(), seed);
      return run(sim);
    }
    case Engine::kSharded: {
      pp::ShardedSimulator<P> sim(protocol, start.counts(), seed,
                                  engine.shards);
      return run(sim);
    }
    case Engine::kLeaping:
      if constexpr (pp::LeapEligible<P>) {
        pp::LeapingSimulator<P> sim(protocol, start.counts(), seed);
        return run(sim);
      }
      break;
    case Engine::kBatched:
      break;
  }
  pp::BatchedSimulator<P> sim(protocol, start.counts(), seed);
  return run(sim);
}

/// The full Engine × Topology table (see Topology in measure.hpp): the
/// complete topology is on_uniform_engine; the ring runs the naive engine
/// over the cycle graph; a blocked topology runs the naive engine under
/// pp::BlockedScheduler, or the lumped (community, state) engine for every
/// counts engine, built from start.community(blocked).
template <typename P, typename Start, typename Run>
auto on_engine(EngineSpec engine, const Topology& topology, const P& protocol,
               std::uint64_t n, std::uint64_t seed, Start& start,
               const Run& run) {
  if (topology.kind == Topology::Kind::kComplete) {
    return on_uniform_engine(engine, protocol, seed, start, run);
  }
  engine = route_topology_engine(engine, topology);
  if (topology.kind == Topology::Kind::kRing) {
    pp::Simulator<P, pp::GraphScheduler> sim(
        protocol, start.population(),
        pp::GraphScheduler(pp::Graph::cycle(static_cast<std::uint32_t>(n)),
                           util::substream(seed, 1)),
        seed);
    return run(sim);
  }
  pp::BlockedTopology blocked = blocked_topology(topology, n);
  if (engine == Engine::kNaive) {
    pp::Simulator<P, pp::BlockedScheduler> sim(
        protocol, start.population(),
        pp::BlockedScheduler(std::move(blocked), util::substream(seed, 1)),
        seed);
    return run(sim);
  }
  pp::BatchedSimulator<P, pp::CommunityCountsConfiguration<P>> sim(
      protocol, start.community(std::move(blocked)), seed);
  return run(sim);
}

/// A start given as per-agent states (agent i in community_of_agent(i) on
/// blocked topologies) or, without states, the protocol's clean
/// configuration.  Every engine starts from the same agents in the same
/// insertion order, so runs differ only in the scheduling law.
template <typename P>
struct AgentStart {
  const P& protocol;
  std::optional<std::vector<typename P::State>> states;

  pp::Population<P> population() {
    return states ? pp::Population<P>(std::move(*states))
                  : pp::Population<P>(protocol);
  }
  pp::CountsConfiguration<P> counts() const {
    return states ? pp::CountsConfiguration<P>(*states)
                  : pp::CountsConfiguration<P>(protocol);
  }
  pp::CommunityCountsConfiguration<P> community(
      pp::BlockedTopology blocked) const {
    return states ? pp::CommunityCountsConfiguration<P>(*states,
                                                        std::move(blocked))
                  : pp::CommunityCountsConfiguration<P>(protocol,
                                                        std::move(blocked));
  }
};

/// The engine's current configuration: the agent population or the counts
/// registry.
template <typename Sim>
decltype(auto) configuration_of(Sim& sim) {
  if constexpr (requires { sim.config(); }) {
    return sim.config();
  } else {
    return sim.population();
  }
}

/// What the ElectLeader_r predicates, trace and census read: the agent
/// array of a population, a counts registry as is.
template <typename C>
const auto& probe_view(const C& config) {
  if constexpr (requires { config.states(); }) {
    return config.states();
  } else {
    return config;
  }
}

template <typename P, typename Sim>
StabilizationResult stabilization_result(Sim& sim, const pp::RunResult& run,
                                         std::uint32_t n) {
  StabilizationResult res;
  res.converged = run.converged;
  res.interactions = run.interactions;
  res.parallel_time = run.parallel_time(n);
  const auto& view = probe_view(configuration_of(sim));
  if constexpr (requires { view.count_if(P::is_leader); }) {
    res.leaders = static_cast<std::uint32_t>(view.count_if(P::is_leader));
  } else {
    res.leaders = static_cast<std::uint32_t>(
        std::count_if(view.begin(), view.end(), P::is_leader));
  }
  res.metrics = sim.metrics();
  return res;
}

// --- the ElectLeader_r run loop -------------------------------------------

/// Checkpoint identity + codec for ElectLeader_r (ProbeOptions.checkpoint_*):
/// the protocol label restore checks, and the per-state snapshot stanza
/// codec (core/snapshot.hpp).
constexpr const char* kElectLeaderLabel = "elect_leader";

std::string encode_elect_leader(const core::Agent& a) {
  return core::snapshot_write_agent(a);
}

std::optional<core::Agent> decode_elect_leader(const std::string& text) {
  return core::snapshot_read_agent(text);
}

/// Checkpoints are counts-native: the uniform batched and sharded engines
/// have a checkpoint format (obs/checkpoint.hpp); the agent-array engines
/// and the community engine do not.
template <typename Sim>
constexpr bool kCheckpointable = requires(Sim& sim) {
  obs::make_checkpoint(sim, kElectLeaderLabel, encode_elect_leader);
};

/// Runs ElectLeader_r on `sim` until the safe predicate holds at a probe.
/// Every probe records the trace, ticks the journal, checks safety and —
/// on a checkpointable engine — saves every checkpoint_every interactions.
/// A checkpointable engine first resumes from an existing checkpoint at
/// the path; any other engine notes that it runs uncheckpointed.
template <typename Sim>
StabilizationResult run_elect_leader(Sim& sim, const core::Params& params,
                                     std::uint64_t max_interactions,
                                     const ProbeOptions& probes,
                                     const Topology& topology) {
  const bool checkpointing =
      !probes.checkpoint_path.empty() && probes.checkpoint_every > 0;
  std::uint64_t last_saved = 0;
  if constexpr (kCheckpointable<Sim>) {
    auto doc = checkpointing ? obs::checkpoint_load(probes.checkpoint_path)
                             : std::nullopt;
    if (doc) {
      if (!obs::restore_checkpoint(sim, *doc, kElectLeaderLabel,
                                   decode_elect_leader)) {
        std::fprintf(stderr,
                     "error: checkpoint at %s does not restore into this "
                     "engine/protocol\n",
                     probes.checkpoint_path.c_str());
        std::exit(2);
      }
      last_saved = sim.interactions();
      // run_until budgets are relative to the engine's interaction count:
      // a resumed run only owes the remainder of the original budget.
      max_interactions -= std::min(max_interactions, sim.interactions());
    }
  } else if (!probes.checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "note: checkpoints are counts-native (batched or sharded "
                 "engine, complete topology); the %s engine on topology "
                 "'%s' runs uncheckpointed\n",
                 sim.metrics().engine, topology_name(topology));
  }

  const auto probe = [&](const auto& config, std::uint64_t t) {
    const auto& view = probe_view(config);
    if (probes.trace) probes.trace->record(t, view);
    if (probes.journal) probes.journal->tick(t, sim.metrics());
    // Safety first: saving canonicalizes the engine, which may rebuild the
    // very configuration `config` refers to.
    const bool safe = core::is_safe_configuration(params, view);
    if constexpr (kCheckpointable<Sim>) {
      if (checkpointing && t >= last_saved + probes.checkpoint_every &&
          obs::checkpoint_save(probes.checkpoint_path,
                               obs::make_checkpoint(sim, kElectLeaderLabel,
                                                    encode_elect_leader))) {
        last_saved = t;
      }
    }
    return safe;
  };
  const auto run =
      sim.run_until(probe, max_interactions,
                    probes.probe_every ? probes.probe_every : params.n);
  return stabilization_result<core::ElectLeader>(sim, run, params.n);
}

StabilizationResult stabilize_agents(
    EngineSpec engine, const Topology& topology, const core::Params& params,
    std::optional<std::vector<core::Agent>> agents, std::uint64_t seed,
    std::uint64_t max_interactions, const ProbeOptions& probes) {
  const core::ElectLeader protocol(params);
  AgentStart<core::ElectLeader> start{protocol, std::move(agents)};
  return on_engine(engine, topology, protocol, params.n, seed, start,
                   [&](auto& sim) {
                     return run_elect_leader(sim, params, max_interactions,
                                             probes, topology);
                   });
}

}  // namespace

StabilizationResult stabilize_from(const core::Params& params,
                                   std::vector<core::Agent> config,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions,
                                   const ProbeOptions& probes) {
  return stabilize_agents(Engine::kNaive, Topology{}, params,
                          std::move(config), seed, max_interactions, probes);
}

StabilizationResult stabilize(EngineSpec engine, StartKind start,
                              const core::Params& params,
                              core::Corruption corruption, std::uint64_t seed,
                              std::uint64_t max_interactions,
                              const ProbeOptions& probes) {
  return stabilize(engine, start, params, corruption, seed, max_interactions,
                   Topology{}, probes);
}

StabilizationResult stabilize(EngineSpec engine, const core::Params& params,
                              std::uint64_t seed,
                              std::uint64_t max_interactions) {
  return stabilize(engine, StartKind::kClean, params, core::Corruption::kNone,
                   seed, max_interactions, Topology{});
}

StabilizationResult stabilize(EngineSpec engine, StartKind start,
                              const core::Params& params,
                              core::Corruption corruption, std::uint64_t seed,
                              std::uint64_t max_interactions,
                              const Topology& topology,
                              const ProbeOptions& probes) {
  std::optional<std::vector<core::Agent>> agents;
  if (start == StartKind::kAdversarial) {
    // Every engine draws the same configuration from the same seed-derived
    // stream (substream 77, distinct from the simulation streams), so the
    // start itself is engine-independent.  The counts engines keep only
    // its multiset (any agent labelling is dynamics-equivalent under the
    // uniform scheduler).
    util::Rng rng(util::substream(seed, 77));
    agents = core::make_adversarial_config(params, corruption, rng);
  }
  return stabilize_agents(engine, topology, params, std::move(agents), seed,
                          max_interactions, probes);
}

namespace {

/// Safety of DerandomizedElectLeader: every agent a verifier, then the
/// ElectLeader_r predicate over the inner agents.
bool derandomized_safe(
    const core::Params& params,
    const pp::Population<core::DerandomizedElectLeader>& pop) {
  std::vector<core::Agent> agents;
  agents.reserve(pop.size());
  for (std::uint32_t i = 0; i < pop.size(); ++i) {
    if (pop[i].agent.role != core::Role::kVerifying) return false;
    agents.push_back(pop[i].agent);
  }
  return core::is_safe_configuration(params, agents);
}

/// The counts projection's version: the multiset-checkable parts run first
/// (every agent a verifier; in a safe configuration all ranks — hence all
/// agents — are distinct, so every live class must have count 1), and only
/// then is the O(n) agent expansion paid for the message-system scan.
bool derandomized_safe(
    const core::Params& params,
    const pp::CountsConfiguration<core::DerandomizedElectLeader>& counts) {
  if (counts.population_size() != params.n) return false;
  if (counts.num_live_states() != params.n) return false;
  bool all_verifiers = true;
  counts.for_each([&](const core::DerandomizedElectLeader::State& s,
                      std::uint64_t c) {
    all_verifiers &= c == 1 && s.agent.role == core::Role::kVerifying;
  });
  if (!all_verifiers) return false;
  std::vector<core::Agent> agents;
  agents.reserve(params.n);
  counts.for_each([&](const core::DerandomizedElectLeader::State& s,
                      std::uint64_t c) {
    for (std::uint64_t i = 0; i < c; ++i) agents.push_back(s.agent);
  });
  return core::is_safe_configuration(params, agents);
}

}  // namespace

StabilizationResult stabilize_derandomized(EngineSpec engine,
                                           const core::Params& params,
                                           std::uint64_t seed,
                                           std::uint64_t max_interactions) {
  // kLeaping runs batched: the deterministic δ qualifies, but q ≈ n
  // distinct states (FastLE identifiers, ranks) fail the narrow-registry
  // half of pp::LeapEligible — and with almost every pair type active
  // there are no null runs to leap anyway.
  const core::DerandomizedElectLeader protocol(params);
  AgentStart<core::DerandomizedElectLeader> start{protocol, std::nullopt};
  return on_uniform_engine(engine, protocol, seed, start, [&](auto& sim) {
    const auto run = sim.run_until(
        [&](const auto& config, std::uint64_t) {
          return derandomized_safe(params, config);
        },
        max_interactions, /*probe_every=*/params.n);
    return stabilization_result<core::DerandomizedElectLeader>(sim, run,
                                                               params.n);
  });
}

// --- CLI spellings ----------------------------------------------------------

namespace {

/// Strict whole-token unsigned parse: digits only (std::from_chars takes
/// no sign, no whitespace and no trailing garbage, and rejects overflow).
template <typename T>
std::optional<T> parse_digits(std::string_view token) {
  T v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (token.empty() || ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

EngineSpec engine_from_string(const std::string& name) {
  if (name == "naive") return Engine::kNaive;
  if (name == "batched") return Engine::kBatched;
  if (name == "leaping") return Engine::kLeaping;
  if (name == "sharded") return EngineSpec(Engine::kSharded, 0);
  constexpr std::string_view kSharded = "sharded:";
  if (name.starts_with(kSharded)) {
    const auto shards =
        parse_digits<std::size_t>(std::string_view(name).substr(kSharded.size()));
    if (shards && *shards >= 1) return EngineSpec(Engine::kSharded, *shards);
  }
  std::fprintf(stderr,
               "error: --engine=%s is not a valid engine "
               "(naive|batched|leaping|sharded[:T])\n",
               name.c_str());
  std::exit(2);
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kNaive:
      return "naive";
    case Engine::kBatched:
      return "batched";
    case Engine::kLeaping:
      return "leaping";
    case Engine::kSharded:
      return "sharded";
  }
  return "unknown";
}

StartKind start_from_string(const std::string& name) {
  if (name == "clean") return StartKind::kClean;
  if (name == "adversarial") return StartKind::kAdversarial;
  std::fprintf(stderr,
               "error: --start=%s is not a valid start (clean|adversarial)\n",
               name.c_str());
  std::exit(2);
}

const char* start_name(StartKind start) {
  return start == StartKind::kClean ? "clean" : "adversarial";
}

Topology topology_from_string(const std::string& spec) {
  Topology t;
  t.spec = spec;
  if (spec == "complete") {
    t.kind = Topology::Kind::kComplete;
    return t;
  }
  if (spec == "ring") {
    t.kind = Topology::Kind::kRing;
    return t;
  }
  // family:K[:intra:inter] — K is digits only, and the %c sentinel rejects
  // trailing garbage after the weights (a typo'd spec must not silently
  // run a different topology).
  const std::string_view s(spec);
  const std::size_t k_begin = s.find(':') + 1;  // npos + 1 == 0: no family
  const std::size_t k_end = s.find(':', k_begin);
  const std::string_view family = s.substr(0, k_begin ? k_begin - 1 : 0);
  const auto k = parse_digits<std::uint32_t>(
      k_begin ? s.substr(k_begin, k_end - k_begin) : std::string_view());
  double intra = 1.0;
  double inter = 0.05;
  char tail = 0;
  if (k && family == "islands" &&
      (k_end == std::string_view::npos ||
       std::sscanf(spec.c_str() + k_end + 1, "%lf:%lf%c", &intra, &inter,
                   &tail) == 2)) {
    t.kind = Topology::Kind::kIslands;
  } else if (k && family == "multipartite" &&
             k_end == std::string_view::npos) {
    t.kind = Topology::Kind::kMultipartite;
    intra = 0.0;
    inter = 1.0;
  } else {
    std::fprintf(stderr,
                 "error: --topology=%s is not a valid topology "
                 "(complete|ring|islands:K|islands:K:intra:inter|"
                 "multipartite:K)\n",
                 spec.c_str());
    std::exit(2);
  }
  t.communities = *k;
  t.intra = intra;
  t.inter = inter;
  const auto reject = [&spec](const char* why) {
    std::fprintf(stderr, "error: --topology=%s: %s\n", spec.c_str(), why);
    std::exit(2);
  };
  if (*k == 0) reject("K must be >= 1");
  if (t.kind == Topology::Kind::kMultipartite && *k < 2) {
    reject("a complete multipartite graph needs K >= 2 blocks (K=1 has no "
           "edges)");
  }
  if (intra < 0.0 || inter < 0.0) reject("edge weights must be >= 0");
  if (t.kind == Topology::Kind::kIslands && *k > 1 && inter <= 0.0) {
    reject("K > 1 islands with inter weight 0 are disconnected");
  }
  if (t.kind == Topology::Kind::kIslands && *k == 1 && intra <= 0.0) {
    reject("a single island with intra weight 0 has no edges");
  }
  return t;
}

const char* topology_name(const Topology& topology) {
  return topology.spec.c_str();
}

bool topology_is_lumpable(const Topology& topology) {
  return topology.kind != Topology::Kind::kRing;
}

pp::BlockedTopology blocked_topology(const Topology& topology,
                                     std::uint64_t n) {
  switch (topology.kind) {
    case Topology::Kind::kComplete:
      return pp::BlockedTopology::complete(n);
    case Topology::Kind::kIslands:
      return pp::BlockedTopology::islands(n, topology.communities,
                                          topology.intra, topology.inter);
    case Topology::Kind::kMultipartite:
      return pp::BlockedTopology::multipartite(n, topology.communities);
    case Topology::Kind::kRing:
      break;
  }
  std::fprintf(stderr,
               "error: topology '%s' is not blocked — it has no lumped "
               "(community, state) configuration\n",
               topology_name(topology));
  std::exit(2);
}

// --- the Lemma A.2 epidemic -------------------------------------------------

namespace {

/// The default budget: 64 · n · ⌈log2 n⌉ on the complete graph; 8× that on
/// a blocked topology (spreading must cross the possibly low-weight
/// inter-community cut, but each crossing is a one-time event against a
/// Θ(n log n) backbone); 16 · n² on the ring, which spreads by boundary
/// contact.
std::uint64_t epidemic_budget(const Topology& topology, std::uint64_t n) {
  if (topology.kind == Topology::Kind::kRing) {
    const long double b =
        16.0L * static_cast<long double>(n) * static_cast<long double>(n);
    return b > 1.8e19L ? ~std::uint64_t{0} : static_cast<std::uint64_t>(b);
  }
  std::uint64_t log2ceil = 0;
  while ((std::uint64_t{1} << log2ceil) < n) ++log2ceil;
  const std::uint64_t complete = 64ull * n * std::max<std::uint64_t>(1, log2ceil);
  return topology.kind == Topology::Kind::kComplete ? complete : 8 * complete;
}

/// The epidemic's start, {1 infected (agent 0, community 0), n − 1
/// susceptible}: O(1) as counts and O(K) as community counts — never an
/// O(n) agent loop, so n = 10^10 costs nothing to set up.
struct EpidemicStart {
  const pp::Epidemic& protocol;
  std::uint64_t n;

  pp::Population<pp::Epidemic> population() const {
    return pp::Population<pp::Epidemic>(protocol);
  }
  pp::CountsConfiguration<pp::Epidemic> counts() const {
    pp::CountsConfiguration<pp::Epidemic> counts(std::vector<int>{1});
    counts.add(0, n - 1);
    return counts;
  }
  pp::CommunityCountsConfiguration<pp::Epidemic> community(
      pp::BlockedTopology blocked) const {
    pp::CommunityCountsConfiguration<pp::Epidemic> counts(blocked);
    counts.add_in(0, 1, 1);
    for (std::uint32_t c = 0; c < blocked.communities(); ++c) {
      const std::uint64_t susceptible = blocked.size(c) - (c == 0 ? 1 : 0);
      if (susceptible > 0) counts.add_in(c, 0, susceptible);
    }
    return counts;
  }
};

bool all_infected(const pp::Population<pp::Epidemic>& pop) {
  return std::find(pop.states().begin(), pop.states().end(), 0) ==
         pop.states().end();
}

template <typename Counts>
bool all_infected(const Counts& counts) {
  return counts.count_of(0) == 0;
}

}  // namespace

pp::RunResult epidemic_convergence(EngineSpec engine, std::uint64_t n,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions,
                                   std::uint64_t probe_every,
                                   obs::Journal* journal) {
  return epidemic_convergence(engine, n, seed, max_interactions, probe_every,
                              Topology{}, journal);
}

pp::RunResult epidemic_convergence(EngineSpec engine, std::uint64_t n,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions,
                                   std::uint64_t probe_every,
                                   const Topology& topology,
                                   obs::Journal* journal) {
  if (n < 2) return {0, true};
  const bool ring = topology.kind == Topology::Kind::kRing;
  if (n > 0xffffffffull && (engine == Engine::kNaive || ring)) {
    std::fprintf(stderr,
                 "error: --engine=%s cannot run topology '%s' at n=%llu: the "
                 "naive engine materializes n agents (uint32 limit)%s\n",
                 engine_name(engine), topology_name(topology),
                 static_cast<unsigned long long>(n),
                 ring ? " and the ring has no lumped configuration, so no "
                        "engine supports this point"
                      : "; use --engine=batched or --engine=leaping, whose "
                        "counts hold O(K·q) counters");
    std::exit(2);
  }
  if (max_interactions == 0) max_interactions = epidemic_budget(topology, n);
  // The protocol object's n is only consulted when an agent-array engine
  // builds its population, which the check above keeps within uint32.
  const pp::Epidemic protocol{
      static_cast<std::uint32_t>(std::min<std::uint64_t>(n, 0xffffffffull))};
  EpidemicStart start{protocol, n};
  return on_engine(engine, topology, protocol, n, seed, start, [&](auto& sim) {
    return sim.run_until(
        [&](const auto& config, std::uint64_t t) {
          if (journal) journal->tick(t, sim.metrics());
          return all_infected(config);
        },
        max_interactions, probe_every);
  });
}

core::MessageMultiplicity multiplicity_from_string(const std::string& name) {
  if (name == "faithful") return core::MessageMultiplicity::kFaithful;
  if (name == "light") return core::MessageMultiplicity::kLight;
  std::fprintf(
      stderr,
      "error: --mult=%s is not a valid multiplicity (faithful|light)\n",
      name.c_str());
  std::exit(2);
}

const char* multiplicity_name(core::MessageMultiplicity mult) {
  return mult == core::MessageMultiplicity::kFaithful ? "faithful" : "light";
}

}  // namespace ssle::analysis
