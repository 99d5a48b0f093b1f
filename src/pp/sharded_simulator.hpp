// Sharded single-run engine: one giant run across all the cores.
//
// Every other engine in this repository gives ONE run to ONE core;
// analysis::parallel_sweep only parallelizes across trials.  For the paper's
// adversarial single-run regimes (recovery from a worst-case configuration
// at q ≈ n = 10^5+, where one trajectory takes minutes) that leaves the
// machine idle.  ShardedSimulator partitions the population into T disjoint
// shards — each a full CountsConfiguration with its own registry, Fenwick
// index, δ-cache and RNG streams — and advances the SAME collision-free
// birthday blocks as BatchedSimulator, with the per-block work fanned out
// over a persistent util::ThreadPool:
//
//   phase 0 (serial)    Draw the block length L from the shared
//                       BlockLengthSampler (the union's first-collision
//                       law), then the shard label of each of the 2L slots
//                       by sequential without-replacement draws over the
//                       shards' remaining populations — the exact
//                       multivariate-hypergeometric chain rule.  Slots
//                       pair up as interactions; each shard receives a
//                       script of its ops in slot order (intra-shard
//                       interaction, or "draw one side of cross pair #c").
//   phase A (parallel)  Each shard settles the previous block's parked
//                       outputs, then runs its script: agents are drawn
//                       uniformly without replacement from the shard's own
//                       counts through its Fenwick index; intra-shard δs
//                       apply immediately (memoized for deterministic δ)
//                       with outputs parked in the shard's used multiset;
//                       cross-pair draws record the drawn class id.
//   phase B (parallel)  Cross-pair δs.  Under uniform pairing a fraction
//                       1 - 1/T of interactions cross shards — the
//                       MAJORITY for T ≥ 2 — so resolving them serially
//                       would forfeit the speedup to Amdahl's law.  The
//                       pairs are split into T fixed index chunks (fixed →
//                       the chunk→rng binding is hardware-independent),
//                       each chunk running δ into the pair's own slots.
//   phase C (parallel)  Each shard re-interns its cross outputs (registry
//                       writes are shard-local) and parks them used.
//   phase D (serial)    The colliding interaction, when the block ends in
//                       one: sides via the shared pick_collision_sides,
//                       participants drawn from the UNION used/unused
//                       pools (walk shard totals, then within-shard), δ on
//                       the engine's collision stream, outputs returned.
//   phase E (deferred)  Parked outputs merge back into shard counts at the
//                       START of the next block's phase A (saving one pool
//                       dispatch per block); settle_all() runs the merge
//                       serially before any probe or config read.
//
// Exactness: conditioned on the labels, the slot agents are uniform
// without replacement within each shard, independently across shards
// (exchangeability), and parked outputs are not redrawable — so a block
// realizes exactly the batched engine's conditional in-block law, and
// blocks remain stopping times of the counts chain.  The engine is
// statistically indistinguishable from every other engine for ANY T
// (tests/test_sharded_simulator.cpp, TV law vs naive), and per-seed
// deterministic for any T on any hardware: every phase's randomness comes
// from per-shard / per-chunk streams split off the run seed
// (util::Rng::split), and chunk boundaries depend only on T.  Different T
// give different (equally exact) trajectories; T = 1 delegates to a real
// BatchedSimulator and is BIT-IDENTICAL to --engine=batched on the same
// seed.
//
// What sharding does NOT give you: per-shard δ-caches cannot memoize
// cross-pair transitions (the two sides live in different registries, and
// id-pair keys are only meaningful within one), so deterministic-δ
// protocols pay a δ evaluation + two hashed re-interns per cross pair
// where the batched engine would hit its cache.  Dense small-q workloads
// (memoized epidemics) should stay on --engine=batched: the bulk pair-type
// path there is orders of magnitude ahead of anything per-agent.  Sharding
// pays off when single-run wall-clock is dominated by per-draw work at
// large q — the Fenwick-floor regime.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/counts.hpp"
#include "pp/delta_cache.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ssle::pp {

/// Default shard count T when the caller passes 0: the machine's
/// concurrency, clamped to [1, 8] (beyond ~8 shards the serial label walk
/// and per-block dispatch overhead outgrow the per-shard win).
std::size_t default_shard_count();

template <Protocol P>
class ShardedSimulator {
 public:
  using State = typename P::State;
  using Config = CountsConfiguration<P>;
  using Predicate =
      std::function<bool(const Config&, std::uint64_t /*interactions*/)>;

  /// `shard_count` = 0 picks default_shard_count().
  ShardedSimulator(const P& protocol, Config config, std::uint64_t seed,
                   std::size_t shard_count = 0)
      : protocol_(protocol),
        n_(config.population_size()),
        rng_(util::substream(seed, 1)),
        collision_agent_rng_(util::substream(seed, 2)) {
    std::size_t T = shard_count == 0 ? default_shard_count() : shard_count;
    if (T < 1) T = 1;
    if (T == 1) {
      // One shard is the batched engine, exactly: same seed, same
      // substreams, same block machinery — bit-identical trajectories.
      inner_.emplace(protocol_, std::move(config), seed);
      return;
    }
    shards_.resize(T);
    chunks_.resize(T);
    util::Rng stream_root(util::substream(seed, 3));
    for (std::size_t j = 0; j < T; ++j) {
      shards_[j].rng = stream_root.split(2 * j);
      shards_[j].agent_rng = stream_root.split(2 * j + 1);
      chunks_[j].rng = stream_root.split(2 * T + j);
    }
    // Partition the initial counts: each class splits as evenly as
    // possible, remainders rotating across shards so no shard
    // systematically outweighs the rest.  ANY deterministic partition is
    // exact — the tracked law is the union counts process, and agents are
    // exchangeable — the split only affects load balance.
    const std::uint32_t q = config.num_states();
    for (std::uint32_t idx = 0; idx < q; ++idx) {
      const std::uint64_t c = config.count(idx);
      if (c == 0) continue;
      const std::uint64_t base = c / T;
      const std::uint64_t rem = c % T;
      for (std::size_t j = 0; j < T; ++j) {
        const std::uint64_t share = base + ((j + idx) % T < rem ? 1 : 0);
        if (share > 0) shards_[j].config.add(config.state(idx), share);
      }
    }
    shard_pop_.resize(T);
    for (std::size_t j = 0; j < T; ++j) {
      shard_pop_[j] = shards_[j].config.population_size();
    }
    remaining_.resize(T);
    pool_.emplace(T - 1);  // the calling thread is the T-th executor
  }

  ShardedSimulator(const P& protocol, std::uint64_t seed,
                   std::size_t shard_count = 0)
      : ShardedSimulator(protocol, Config(protocol), seed, shard_count) {}

  /// Executes exactly `count` interactions (same contract as the batched
  /// engine: n < 2 counts no-op steps).
  void step(std::uint64_t count = 1) {
    if (inner_) {
      inner_->step(count);
      return;
    }
    if (n_ < 2) {
      interactions_ += count;
      return;
    }
    std::uint64_t done = 0;
    while (done < count) done += run_block(count - done);
    interactions_ += count;
  }

  /// Same contract as BatchedSimulator::run_until.  Probes observe the
  /// settled merged configuration (an O(Σ q_j) rebuild per probe — cheap
  /// against the Θ(n) interactions a probe interval covers).
  RunResult run_until(const Predicate& done, std::uint64_t max_interactions,
                      std::uint64_t probe_every = 0) {
    if (inner_) return inner_->run_until(done, max_interactions, probe_every);
    if (probe_every == 0) probe_every = std::max<std::uint64_t>(1, n_);
    if (done(config(), interactions_)) return {interactions_, true};
    const std::uint64_t limit = interactions_ + max_interactions;
    while (interactions_ < limit) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(probe_every, limit - interactions_);
      step(chunk);
      if (done(config(), interactions_)) return {interactions_, true};
    }
    return {interactions_, false};
  }

  std::uint64_t interactions() const {
    return inner_ ? inner_->interactions() : interactions_;
  }
  const P& protocol() const { return protocol_; }
  std::size_t shard_count() const { return inner_ ? 1 : shards_.size(); }

  /// The merged (whole-population) configuration: parked outputs settled,
  /// shard counts summed into one registry.  Rebuilt on demand; the
  /// reference stays valid until the next step()/config() call.
  const Config& config() {
    if (inner_) return inner_->config();
    settle_all();
    merged_.emplace(std::vector<State>{});
    for (Shard& sh : shards_) {
      sh.config.for_each(
          [&](const State& s, std::uint64_t c) { merged_->add(s, c); });
    }
    return *merged_;
  }

  /// Engine-level snapshot.  Registry / δ-cache / block counters are the
  /// merge (obs::EngineMetrics::merge) of the per-shard snapshots;
  /// interaction accounting is engine-level, satisfying
  ///   intra_shard_interactions + cross_shard_interactions +
  ///   collision_resolutions == interactions  (n ≥ 2), and
  ///   intra_shard_interactions == Σ_j shard_metrics(j).interactions.
  obs::EngineMetrics metrics() const {
    if (inner_) {
      obs::EngineMetrics m = inner_->metrics();
      m.engine = "sharded";
      m.shards = 1;
      m.intra_shard_interactions = m.interactions - m.collision_resolutions;
      return m;
    }
    obs::EngineMetrics m;
    std::uint64_t intra = 0;
    for (std::size_t j = 0; j < shards_.size(); ++j) {
      m += shard_metrics(j);
      intra += shards_[j].intra;
    }
    m.engine = "sharded";
    m.population = n_;
    m.shards = shards_.size();
    m.interactions = interactions_;
    m.interactions_iterated = interactions_;
    m.intra_shard_interactions = intra;
    m.cross_shard_interactions = cross_total_;
    m.collision_resolutions = collisions_;
    return m;
  }

  /// One shard's own snapshot (T ≥ 2 only): `interactions` counts the
  /// intra-shard interactions it resolved, the registry/cache/block fields
  /// are its private machinery.  Feeds the engine-level merge and the
  /// reconciliation tests.
  obs::EngineMetrics shard_metrics(std::size_t j) const {
    assert(!inner_ && j < shards_.size());
    const Shard& sh = shards_[j];
    obs::EngineMetrics m;
    m.engine = "shard";
    m.interactions = sh.intra;
    m.interactions_iterated = sh.intra;
    m.blocks_fenwick = sh.fenwick_blocks;
    m.fenwick_point_updates = sh.config.fenwick_updates();
    m.fenwick_samples = sh.config.fenwick_samples();
    m.registry_live_states = sh.config.num_live_states();
    m.registry_allocated_states = sh.config.num_allocated_states();
    m.registry_capacity = sh.config.num_states();
    m.registry_compactions = sh.config.compactions();
    m.registry_version = sh.config.registry_version();
    m.delta_cache_hits = sh.cache_hits;
    m.delta_cache_misses = sh.cache_misses;
    m.delta_cache_clears = sh.cache_clears;
    m.delta_cache_entries = sh.cache.size();
    return m;
  }

  /// Total colliding interactions resolved (engine stream, phase D).
  std::uint64_t collision_resolutions() const {
    return inner_ ? inner_->collision_resolutions() : collisions_;
  }
  /// Total cross-shard interactions resolved (phases B + C).
  std::uint64_t cross_shard_interactions() const {
    return inner_ ? 0 : cross_total_;
  }

  // --- checkpoint/resume support (obs/checkpoint.hpp) --------------------
  // The batched engine's canonicalize-then-serialize discipline (see
  // pp/batched_simulator.hpp), applied per shard: each shard's registry is
  // rebuilt dense, each shard's RNG pair and each chunk's δ stream is
  // saved, and a restorer that re-adds every shard's (state, count) list in
  // order reconstructs bit-identical engine state.  Stream order for
  // rng_states():
  //   T = 1: delegates to the inner batched engine ([rng, agent_rng]);
  //   T ≥ 2: [engine rng_, collision_agent_rng_,
  //           shard_0.rng, shard_0.agent_rng, …, shard_{T-1}.agent_rng,
  //           chunk_0.rng, …, chunk_{T-1}.rng]   (2 + 3T entries).

  /// Settles parked outputs and rebuilds every shard registry into dense-id
  /// form, dropping id-keyed caches.  The continuation runs from exactly
  /// the form the checkpoint serializes.
  void canonicalize() {
    if (inner_) {
      inner_->canonicalize();
      return;
    }
    settle_all();
    for (Shard& sh : shards_) {
      Config fresh{std::vector<State>{}};
      sh.config.for_each(
          [&](const State& s, std::uint64_t c) { fresh.add(s, c); });
      sh.config = std::move(fresh);
      sh.cache.clear();
      sh.used.assign(sh.config.num_states(), 0);
      sh.touched.clear();
    }
    merged_.reset();
  }

  std::vector<std::array<std::uint64_t, 4>> rng_states() const {
    if (inner_) return inner_->rng_states();
    std::vector<std::array<std::uint64_t, 4>> out;
    out.reserve(2 + 3 * shards_.size());
    out.push_back(rng_.state());
    out.push_back(collision_agent_rng_.state());
    for (const Shard& sh : shards_) {
      out.push_back(sh.rng.state());
      out.push_back(sh.agent_rng.state());
    }
    for (const ChunkCtx& cx : chunks_) out.push_back(cx.rng.state());
    return out;
  }

  bool set_rng_states(
      const std::vector<std::array<std::uint64_t, 4>>& states) {
    if (inner_) return inner_->set_rng_states(states);
    const std::size_t T = shards_.size();
    if (states.size() != 2 + 3 * T) return false;
    rng_.set_state(states[0]);
    collision_agent_rng_.set_state(states[1]);
    for (std::size_t j = 0; j < T; ++j) {
      shards_[j].rng.set_state(states[2 + 2 * j]);
      shards_[j].agent_rng.set_state(states[2 + 2 * j + 1]);
    }
    for (std::size_t j = 0; j < T; ++j) {
      chunks_[j].rng.set_state(states[2 + 2 * T + j]);
    }
    return true;
  }

  void set_interactions(std::uint64_t t) {
    if (inner_) {
      inner_->set_interactions(t);
      return;
    }
    interactions_ = t;
  }

  /// Settled registry of shard j, for the checkpoint writer (canonicalize()
  /// first, so the view is dense and parked outputs are merged).
  const Config& shard_config(std::size_t j) {
    if (inner_) {
      assert(j == 0);
      return inner_->config();
    }
    settle_shard(shards_[j]);
    return shards_[j].config;
  }

  /// Installs restored per-shard registries (one per shard, in the order
  /// shard_config() serialized them); false on shard-count mismatch.
  /// Follow with set_rng_states/set_interactions to finish the restore.
  bool restore_shard_configs(std::vector<Config> configs) {
    if (inner_) {
      if (configs.size() != 1) return false;
      inner_->config() = std::move(configs[0]);
      inner_->canonicalize();  // idempotent on a canonical registry; sizes
                               // the block scratch to the new registry
      return true;
    }
    if (configs.size() != shards_.size()) return false;
    n_ = 0;
    for (std::size_t j = 0; j < shards_.size(); ++j) {
      Shard& sh = shards_[j];
      sh.config = std::move(configs[j]);
      sh.cache.clear();
      sh.used.assign(sh.config.num_states(), 0);
      sh.touched.clear();
      sh.used_total = 0;
      sh.merge_pending = false;
      shard_pop_[j] = sh.config.population_size();
      n_ += shard_pop_[j];
    }
    merged_.reset();
    return true;
  }

 private:
  /// One cross-shard interaction: input class ids recorded by each side's
  /// shard in phase A, output states written by a phase-B chunk, re-interned
  /// by the owning shards in phase C.  Entries persist across blocks so the
  /// output states' heap buffers are reused.
  struct CrossPair {
    std::uint32_t shard_a = 0, shard_b = 0;
    std::uint32_t a_id = 0, b_id = 0;
    std::optional<State> out_a, out_b;
  };

  /// One shard: a private CountsConfiguration plus everything the batched
  /// engine keeps per run — scheduler/agent RNG streams, δ-cache, parked-
  /// output multiset.  All mutable state is touched by exactly one pool
  /// worker per phase (phases index shards), so the struct needs no
  /// synchronization.
  struct Shard {
    Config config{std::vector<State>{}};
    util::Rng rng{0};        ///< scheduler draws (split off the run seed)
    util::Rng agent_rng{0};  ///< intra-shard δ randomness
    DeltaCache cache;        ///< intra-shard (id, id) memo; never cross
    std::uint64_t cache_hits = 0, cache_misses = 0, cache_clears = 0;
    std::uint64_t intra = 0;        ///< intra-shard interactions resolved
    std::uint64_t fenwick_blocks = 0;

    // Block-scoped (phase A/C): the op script in slot order (kIntraOp, or
    // cross-pair slot code 2c | side) and the without-replacement draw
    // budget.
    std::vector<std::int64_t> script;
    std::uint64_t remaining = 0;

    // Parked outputs (the shard's slice of the block's used multiset),
    // merged back into config at the next phase A / settle_all.
    std::vector<std::uint64_t> used;
    std::vector<std::uint32_t> touched;
    std::uint64_t used_total = 0;
    bool merge_pending = false;

    // Persistent δ scratch (State need not be default-constructible).
    std::optional<State> scratch_a, scratch_b;
  };

  /// One phase-B executor: a fixed chunk index w owns cross pairs
  /// [w·C/T, (w+1)·C/T) every block, with its own δ stream and scratch —
  /// the binding depends only on T, never on thread scheduling, which is
  /// what makes sharded runs deterministic on any hardware.
  struct ChunkCtx {
    util::Rng rng{0};
    std::optional<State> scratch_a, scratch_b;
  };

  static constexpr std::int64_t kIntraOp = -1;

  static State& assign_scratch(std::optional<State>& slot, const State& src) {
    if (slot.has_value()) {
      *slot = src;
    } else {
      slot.emplace(src);
    }
    return *slot;
  }

  /// Runs one block of at most `cap` interactions; returns how many ran.
  std::uint64_t run_block(std::uint64_t cap) {
    if (!block_length_.ready_for(n_)) block_length_.build(n_);
    const auto [L, collided] = block_length_.draw(rng_, cap);

    // Phase 0: shard labels for the 2L slots.  Sequential without-
    // replacement draws over the remaining shard populations — the chain
    // rule of the multivariate hypergeometric, so the label vector has
    // exactly the law of "which shard does each of 2L uniformly-drawn
    // distinct agents belong to".  Slot t's draw is below(n - t), walked
    // against the ≤ T remaining counts.
    const std::size_t T = shards_.size();
    for (std::size_t j = 0; j < T; ++j) {
      remaining_[j] = shard_pop_[j];
      shards_[j].script.clear();
    }
    std::uint64_t total_rem = n_;
    cross_n_ = 0;
    std::uint32_t lab_a = 0;
    for (std::uint64_t t = 0; t < 2 * L; ++t) {
      std::uint64_t pos = rng_.below(total_rem);
      std::uint32_t lab = static_cast<std::uint32_t>(T) - 1;
      for (std::size_t j = 0; j < T; ++j) {
        if (pos < remaining_[j]) {
          lab = static_cast<std::uint32_t>(j);
          break;
        }
        pos -= remaining_[j];
      }
      --remaining_[lab];
      --total_rem;
      if ((t & 1) == 0) {
        lab_a = lab;
        continue;
      }
      // Slot pair (t-1, t) is one interaction: initiator from lab_a,
      // responder from lab.
      if (lab_a == lab) {
        shards_[lab].script.push_back(kIntraOp);
      } else {
        if (cross_n_ == cross_.size()) cross_.emplace_back();
        CrossPair& cp = cross_[cross_n_];
        cp.shard_a = lab_a;
        cp.shard_b = lab;
        shards_[lab_a].script.push_back(
            static_cast<std::int64_t>(2 * cross_n_));
        shards_[lab].script.push_back(
            static_cast<std::int64_t>(2 * cross_n_ + 1));
        ++cross_n_;
      }
    }

    // Phase A: per-shard settle + draws + intra δs (parallel over shards).
    pool_->run_indexed(T, [this](std::size_t j) { phase_a(shards_[j]); });

    if (cross_n_ > 0) {
      // Phase B: cross δs, T fixed chunks (parallel over chunks).
      pool_->run_indexed(T, [this](std::size_t w) { phase_b(w); });
      // Phase C: re-intern cross outputs (parallel over shards).
      pool_->run_indexed(T, [this](std::size_t j) { phase_c(shards_[j]); });
      cross_total_ += cross_n_;
    }

    if (collided) phase_d(L);

    // Phase E is deferred: parked outputs merge at the next block's
    // phase A (or settle_all before a probe).
    for (Shard& sh : shards_) sh.merge_pending = true;
    return L + (collided ? 1 : 0);
  }

  /// Phase A body for one shard (one pool worker).
  void phase_a(Shard& sh) {
    settle_shard(sh);
    if (sh.config.should_compact()) {
      sh.config.compact();
      if (sh.used.size() > sh.config.num_states()) {
        sh.used.resize(sh.config.num_states());
      }
      if constexpr (kDeterministicDelta<P>) {
        sh.cache.clear();
        ++sh.cache_clears;
      }
    }
    if (sh.script.empty()) return;

    sh.remaining = sh.config.population_size();
    ++sh.fenwick_blocks;

    for (const std::int64_t op : sh.script) {
      if (op == kIntraOp) {
        const std::uint32_t ia = shard_draw(sh);
        const std::uint32_t ib = shard_draw(sh);
        apply_intra(sh, ia, ib);
        ++sh.intra;
      } else {
        CrossPair& cp = cross_[static_cast<std::size_t>(op >> 1)];
        const std::uint32_t id = shard_draw(sh);
        if ((op & 1) != 0) {
          cp.b_id = id;
        } else {
          cp.a_id = id;
        }
      }
    }
  }

  /// One without-replacement agent draw from the shard (phase A): a
  /// uniform position resolved by a Fenwick descent.
  std::uint32_t shard_draw(Shard& sh) {
    const std::uint64_t pos = sh.rng.below(sh.remaining);
    --sh.remaining;
    const std::uint32_t idx = sh.config.sample_class(pos);
    sh.config.remove_at(idx, 1);
    return idx;
  }

  /// One intra-shard interaction: δ through the shard's cache / scratch,
  /// outputs parked in the shard's used multiset.
  void apply_intra(Shard& sh, std::uint32_t ia, std::uint32_t ib) {
    if constexpr (kDeterministicDelta<P>) {
      std::uint32_t oa, ob;
      const std::uint64_t key = DeltaCache::pack(ia, ib);
      std::uint64_t val;
      if (sh.cache.lookup(key, val)) {
        ++sh.cache_hits;
        std::tie(oa, ob) = DeltaCache::unpack(val);
      } else {
        ++sh.cache_misses;
        std::tie(oa, ob) = shard_delta(sh, ia, ib);
        sh.cache.insert(key, DeltaCache::pack(oa, ob));
      }
      record_used(sh, oa);
      record_used(sh, ob);
    } else {
      State& sa = assign_scratch(sh.scratch_a, sh.config.state(ia));
      State& sb = assign_scratch(sh.scratch_b, sh.config.state(ib));
      protocol_.interact(sa, sb, sh.agent_rng);
      record_used(sh, sh.config.index_near(sa, ia));
      record_used(sh, sh.config.index_near(sb, ib));
    }
  }

  std::pair<std::uint32_t, std::uint32_t> shard_delta(Shard& sh,
                                                      std::uint32_t ia,
                                                      std::uint32_t ib) {
    State& sa = assign_scratch(sh.scratch_a, sh.config.state(ia));
    State& sb = assign_scratch(sh.scratch_b, sh.config.state(ib));
    protocol_.interact(sa, sb, sh.agent_rng);
    return {sh.config.index_near(sa, ia), sh.config.index_near(sb, ib)};
  }

  void record_used(Shard& sh, std::uint32_t idx) {
    if (sh.used.size() <= idx) sh.used.resize(idx + 1, 0);
    if (sh.used[idx] == 0) sh.touched.push_back(idx);
    sh.used[idx] += 1;
    sh.used_total += 1;
  }

  /// Phase B body for chunk w: δ over this chunk's cross pairs.  Reads
  /// (only) the two shards' registries; writes (only) the pair's own
  /// output slots — no synchronization needed.
  void phase_b(std::size_t w) {
    const std::size_t T = shards_.size();
    ChunkCtx& cx = chunks_[w];
    const std::size_t lo = w * cross_n_ / T;
    const std::size_t hi = (w + 1) * cross_n_ / T;
    for (std::size_t i = lo; i < hi; ++i) {
      CrossPair& cp = cross_[i];
      State& sa =
          assign_scratch(cx.scratch_a, shards_[cp.shard_a].config.state(cp.a_id));
      State& sb =
          assign_scratch(cx.scratch_b, shards_[cp.shard_b].config.state(cp.b_id));
      protocol_.interact(sa, sb, cx.rng);
      assign_scratch(cp.out_a, sa);
      assign_scratch(cp.out_b, sb);
    }
  }

  /// Phase C body for one shard: re-intern this shard's cross outputs (in
  /// slot order) and park them in the used multiset.
  void phase_c(Shard& sh) {
    for (const std::int64_t op : sh.script) {
      if (op == kIntraOp) continue;
      const CrossPair& cp = cross_[static_cast<std::size_t>(op >> 1)];
      const bool side_b = (op & 1) != 0;
      const State& out = side_b ? *cp.out_b : *cp.out_a;
      const std::uint32_t hint = side_b ? cp.b_id : cp.a_id;
      record_used(sh, sh.config.index_near(out, hint));
    }
  }

  /// Phase D: the colliding interaction over the union pools.  At this
  /// point Σ_j shard used multisets hold exactly the 2L parked outputs and
  /// Σ_j shard configs exactly the n - 2L undrawn agents, so walking shard
  /// totals then drawing within the shard realizes a uniform draw from
  /// either union pool — the batched engine's conditional law verbatim.
  void phase_d(std::uint64_t L) {
    const std::uint64_t used_total = 2 * L;
    const std::uint64_t unused_total = n_ - used_total;
    const auto [init_used, resp_used] =
        pick_collision_sides(rng_, used_total, unused_total);

    std::pair<std::size_t, std::uint32_t> a, b;
    if (init_used) {
      a = draw_union_used(used_total);
      if (resp_used) {
        // Same pool: without replacement.
        Shard& sha = shards_[a.first];
        sha.used[a.second] -= 1;
        sha.used_total -= 1;
        b = draw_union_used(used_total - 1);
        sha.used[a.second] += 1;
        sha.used_total += 1;
      } else {
        b = draw_union_unused(unused_total);
      }
    } else {
      a = draw_union_unused(unused_total);
      b = draw_union_used(used_total);
    }

    consume(a, init_used);
    consume(b, resp_used);

    State& sa =
        assign_scratch(collision_a_, shards_[a.first].config.state(a.second));
    State& sb =
        assign_scratch(collision_b_, shards_[b.first].config.state(b.second));
    protocol_.interact(sa, sb, collision_agent_rng_);
    // The block ends here: outputs return straight to their shards' counts.
    Shard& sha = shards_[a.first];
    sha.config.add_at(sha.config.index_near(sa, a.second), 1);
    Shard& shb = shards_[b.first];
    shb.config.add_at(shb.config.index_near(sb, b.second), 1);
    ++collisions_;
  }

  std::pair<std::size_t, std::uint32_t> draw_union_used(std::uint64_t total) {
    std::uint64_t pos = rng_.below(total);
    for (std::size_t j = 0; j < shards_.size(); ++j) {
      Shard& sh = shards_[j];
      if (pos < sh.used_total) {
        for (const std::uint32_t idx : sh.touched) {
          if (pos < sh.used[idx]) return {j, idx};
          pos -= sh.used[idx];
        }
      }
      pos -= sh.used_total;
    }
    assert(false && "union used draw out of range");
    return {0, 0};
  }

  std::pair<std::size_t, std::uint32_t> draw_union_unused(
      std::uint64_t total) {
    std::uint64_t pos = rng_.below(total);
    for (std::size_t j = 0; j < shards_.size(); ++j) {
      Shard& sh = shards_[j];
      const std::uint64_t size = sh.config.population_size();
      if (pos < size) return {j, sh.config.sample_class(pos)};
      pos -= size;
    }
    assert(false && "union unused draw out of range");
    return {0, 0};
  }

  void consume(std::pair<std::size_t, std::uint32_t> pick, bool from_used) {
    Shard& sh = shards_[pick.first];
    if (from_used) {
      sh.used[pick.second] -= 1;
      sh.used_total -= 1;
    } else {
      sh.config.remove_at(pick.second, 1);
    }
  }

  /// Phase E / pre-probe: merge one shard's parked outputs back into its
  /// counts.  Idempotent — touched/used are cleared, so a second call (the
  /// next phase A after a settle_all) is a no-op.
  void settle_shard(Shard& sh) {
    if (!sh.merge_pending) return;
    for (const std::uint32_t idx : sh.touched) {
      if (sh.used[idx] > 0) sh.config.add_at(idx, sh.used[idx]);
      sh.used[idx] = 0;
    }
    sh.touched.clear();
    sh.used_total = 0;
    sh.merge_pending = false;
  }

  void settle_all() {
    for (Shard& sh : shards_) settle_shard(sh);
  }

  P protocol_;
  std::uint64_t n_ = 0;
  util::Rng rng_;                  ///< engine stream: blocks, labels, collisions
  util::Rng collision_agent_rng_;  ///< phase-D δ randomness
  std::optional<BatchedSimulator<P>> inner_;  ///< T = 1 delegation

  std::vector<Shard> shards_;
  std::vector<ChunkCtx> chunks_;
  std::vector<std::uint64_t> shard_pop_;  ///< fixed shard sizes n_j
  std::vector<std::uint64_t> remaining_;  ///< phase-0 label-draw scratch
  std::optional<util::ThreadPool> pool_;

  BlockLengthSampler block_length_;  ///< union first-collision law
  std::vector<CrossPair> cross_;     ///< persistent cross-pair slots
  std::size_t cross_n_ = 0;          ///< pairs live this block

  std::uint64_t interactions_ = 0;
  std::uint64_t cross_total_ = 0;
  std::uint64_t collisions_ = 0;

  std::optional<State> collision_a_, collision_b_;  ///< phase-D δ scratch
  std::optional<Config> merged_;  ///< probe view, rebuilt by config()
};

}  // namespace ssle::pp
