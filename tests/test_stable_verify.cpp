#include "core/stable_verify.hpp"

#include <gtest/gtest.h>

#include "core/detect_collision.hpp"
#include "core/propagate_reset.hpp"

namespace ssle::core {
namespace {

Agent make_verifier(const Params& p, std::uint32_t rank,
                    std::uint32_t generation = 0,
                    std::uint32_t probation = 0) {
  Agent a;
  a.role = Role::kVerifying;
  a.rank = rank;
  a.sv = sv_initial_state(p, rank);
  a.sv.generation = generation;
  a.sv.probation_timer = probation;
  return a;
}

TEST(SvInitialState, StartsOnProbationGenerationZero) {
  const Params p = Params::make(16, 8);
  const SvState s = sv_initial_state(p, 3);
  EXPECT_EQ(s.generation, 0u);
  EXPECT_EQ(s.probation_timer, p.probation_max);
  EXPECT_FALSE(s.dc.error);
}

TEST(SvInitialState, InPlaceResetEqualsFreshState) {
  // A ranker entering StableVerify reuses its stale verifier buffers: the
  // in-place reset must land on exactly q0,SV, whatever was there (another
  // group's bucket count, moved messages, ⊤, a later generation).
  const Params p = Params::make(17, 5);
  for (const std::uint32_t rank : {1u, 5u, 6u, 16u, 17u}) {
    for (const std::uint32_t stale_rank : {1u, 9u, 17u}) {
      SvState s = sv_initial_state(p, stale_rank);
      s.generation = 4;
      s.probation_timer = 0;
      s.dc.error = true;
      s.dc.signature = 77;
      s.dc.msgs.front().clear();
      s.dc.msgs.back().push_back({999, 5});
      s.dc.observations.push_back(3);
      sv_reset_state(p, rank, s);
      EXPECT_EQ(s, sv_initial_state(p, rank))
          << "rank " << rank << " stale rank " << stale_rank;
    }
  }
}

TEST(StableVerify, ProbationTimersDecrement) {
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 1, 0, 5);
  Agent v = make_verifier(p, 2, 0, 1);
  util::Rng rng(1);
  stable_verify(p, u, v, rng);
  EXPECT_EQ(u.sv.probation_timer, 4u);
  EXPECT_EQ(v.sv.probation_timer, 0u);
  stable_verify(p, u, v, rng);
  EXPECT_EQ(v.sv.probation_timer, 0u);  // clamped at zero
}

TEST(StableVerify, ErrorOffProbationSoftResets) {
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 4, 0, 0);
  Agent v = make_verifier(p, 4, 0, 0);  // duplicate rank → ⊤ on interaction
  util::Rng rng(2);
  const VerifyStats stats = stable_verify_counted(p, u, v, rng);
  EXPECT_GE(stats.soft_resets, 1u);
  EXPECT_EQ(stats.hard_resets, 0u);
  // Soft-reset agents advanced a generation and are on probation.
  for (const Agent* a : {&u, &v}) {
    if (a->sv.generation == 1) {
      EXPECT_EQ(a->sv.probation_timer, p.probation_max);
      EXPECT_FALSE(a->sv.dc.error);  // re-initialized at q0,DC
    }
  }
}

TEST(StableVerify, ErrorOnProbationHardResets) {
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 4, 0, 10);
  Agent v = make_verifier(p, 4, 0, 10);
  util::Rng rng(3);
  const VerifyStats stats = stable_verify_counted(p, u, v, rng);
  EXPECT_GE(stats.hard_resets, 1u);
  EXPECT_TRUE(u.role == Role::kResetting || v.role == Role::kResetting);
}

TEST(StableVerify, SuccessorGenerationAdoptedOffProbation) {
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 1, 0, 0);
  Agent v = make_verifier(p, 2, 1, p.probation_max);
  util::Rng rng(4);
  const VerifyStats stats = stable_verify_counted(p, u, v, rng);
  EXPECT_EQ(stats.soft_resets, 1u);
  EXPECT_EQ(u.sv.generation, 1u);  // u adopted v's generation
  EXPECT_EQ(u.sv.probation_timer, p.probation_max);
  EXPECT_EQ(u.role, Role::kVerifying);
  EXPECT_EQ(v.role, Role::kVerifying);
}

TEST(StableVerify, GenerationWrapsModuloSix) {
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 1, 5, 0);
  Agent v = make_verifier(p, 2, 0, p.probation_max);
  util::Rng rng(5);
  stable_verify(p, u, v, rng);
  EXPECT_EQ(u.sv.generation, 0u);  // 5 → 0 (mod 6)
  EXPECT_EQ(u.role, Role::kVerifying);
}

TEST(StableVerify, SuccessorGenerationOnProbationHardResets) {
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 1, 0, 50);  // behind but on probation
  Agent v = make_verifier(p, 2, 1, 0);
  util::Rng rng(6);
  const VerifyStats stats = stable_verify_counted(p, u, v, rng);
  EXPECT_GE(stats.hard_resets, 1u);
}

TEST(StableVerify, NonAdjacentGenerationsHardReset) {
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 1, 0, 0);
  Agent v = make_verifier(p, 2, 3, 0);
  util::Rng rng(7);
  const VerifyStats stats = stable_verify_counted(p, u, v, rng);
  EXPECT_GE(stats.hard_resets, 1u);
}

TEST(StableVerify, BackwardAdjacencyIsAsymmetric) {
  // v is one *behind* u; v should adopt u's generation, not vice versa.
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 1, 2, 0);
  Agent v = make_verifier(p, 2, 1, 0);
  util::Rng rng(8);
  stable_verify(p, u, v, rng);
  EXPECT_EQ(u.sv.generation, 2u);
  EXPECT_EQ(v.sv.generation, 2u);
  EXPECT_EQ(u.role, Role::kVerifying);
  EXPECT_EQ(v.role, Role::kVerifying);
}

TEST(StableVerify, SameGenerationCleanPairNoResets) {
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 1, 0, 0);
  Agent v = make_verifier(p, 2, 0, 0);
  util::Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const VerifyStats stats = stable_verify_counted(p, u, v, rng);
    ASSERT_EQ(stats.soft_resets, 0u);
    ASSERT_EQ(stats.hard_resets, 0u);
  }
  EXPECT_EQ(u.role, Role::kVerifying);
  EXPECT_EQ(v.role, Role::kVerifying);
}

TEST(StableVerify, DifferentGenerationSkipsDetectCollision) {
  // Same rank would raise ⊤ — but generations differ, so DetectCollision
  // must not run (Protocol 2 line 3 guard).
  const Params p = Params::make(16, 8);
  Agent u = make_verifier(p, 4, 0, 0);
  Agent v = make_verifier(p, 4, 1, p.probation_max);
  util::Rng rng(10);
  stable_verify(p, u, v, rng);
  EXPECT_FALSE(v.sv.dc.error);
}

}  // namespace
}  // namespace ssle::core
