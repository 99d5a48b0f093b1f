#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "core/detect_collision.hpp"
#include "pp/scheduler.hpp"
#include "util/rng.hpp"

namespace ssle::core {
namespace {

/// Multiset of (bucket, id, content) held by a state.
std::multiset<std::tuple<std::size_t, std::uint32_t, std::uint32_t>>
message_multiset(const DcState& a, const DcState& b) {
  std::multiset<std::tuple<std::size_t, std::uint32_t, std::uint32_t>> out;
  for (const DcState* s : {&a, &b}) {
    for (std::size_t k = 0; k < s->msgs.size(); ++k) {
      for (const Msg& m : s->msgs[k]) out.insert({k, m.id, m.content});
    }
  }
  return out;
}

TEST(BalanceLoad, ConservesMessagesExactly) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  const auto before = message_multiset(a, b);
  balance_load(p, 1, a, b);
  EXPECT_EQ(before, message_multiset(a, b));
}

TEST(BalanceLoad, SplitsEachContentClassWithinOne) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  // Restamp a's bucket-0 messages with two distinct contents.
  for (std::size_t i = 0; i < a.msgs[0].size(); ++i) {
    a.msgs[0][i].content = (i % 2 == 0) ? 7 : 9;
  }
  balance_load(p, 1, a, b);
  // Per (bucket, content) class the two agents' counts differ by ≤ 1.
  for (std::uint32_t content : {1u, 7u, 9u}) {
    for (std::size_t k = 0; k < a.msgs.size(); ++k) {
      const auto count = [&](const DcState& s) {
        return std::count_if(s.msgs[k].begin(), s.msgs[k].end(),
                             [&](const Msg& m) { return m.content == content; });
      };
      EXPECT_LE(std::abs(count(a) - count(b)), 1)
          << "content=" << content << " bucket=" << k;
    }
  }
}

TEST(BalanceLoad, KeepsBucketsSortedAndUnique) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  balance_load(p, 1, a, b);
  for (const DcState* s : {&a, &b}) {
    for (const auto& bucket : s->msgs) {
      for (std::size_t i = 1; i < bucket.size(); ++i) {
        EXPECT_LT(bucket[i - 1].id, bucket[i].id);
      }
    }
  }
}

TEST(BalanceLoad, EmptyAgentsNoCrash) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  for (auto& bucket : a.msgs) bucket.clear();
  for (auto& bucket : b.msgs) bucket.clear();
  balance_load(p, 1, a, b);
  EXPECT_EQ(dc_message_count(a), 0u);
  EXPECT_EQ(dc_message_count(b), 0u);
}

TEST(BalanceLoad, OneSidedLoadHalves) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  // Give everything to a.
  for (std::size_t k = 0; k < a.msgs.size(); ++k) {
    for (const Msg& m : b.msgs[k]) a.msgs[k].push_back(m);
    std::sort(a.msgs[k].begin(), a.msgs[k].end());
    b.msgs[k].clear();
  }
  const auto total = dc_message_count(a);
  balance_load(p, 1, a, b);
  EXPECT_EQ(dc_message_count(a) + dc_message_count(b), total);
  // All classes are uniform-content (content 1), so counts split evenly.
  EXPECT_LE(dc_message_count(a) > dc_message_count(b)
                ? dc_message_count(a) - dc_message_count(b)
                : dc_message_count(b) - dc_message_count(a),
            a.msgs.size());  // ≤ 1 per bucket
}

// --- Lemma E.6 behaviour: freshly stamped messages reach everyone ----------

TEST(BalanceLoad, SpreadDynamics) {
  // m agents, one rank's 2m² messages, one content class: after O(m log m)
  // pairwise balancing interactions every agent holds ≥ 1 message.
  const std::uint32_t m = 16;
  const Params p = Params::make(2 * m, m);  // one group of size 2m? no:
  // groups of size m when r = m and n = 2m → num_groups = 2.
  const std::uint32_t group = 0;
  const std::uint32_t rank = p.group_begin(group);

  // All messages start at agent 0.
  std::vector<DcState> agents(m);
  for (auto& s : agents) {
    s = dc_initial_state(p, rank);
    for (auto& bucket : s.msgs) bucket.clear();
  }
  const std::uint32_t ids = p.ids_per_rank(group);
  for (std::uint32_t j = 1; j <= ids; ++j) {
    agents[0].msgs[0].push_back({j, 1});
  }

  pp::UniformScheduler sched(m, 3);
  std::uint64_t t = 0;
  auto all_nonempty = [&] {
    return std::all_of(agents.begin(), agents.end(), [](const DcState& s) {
      return !s.msgs[0].empty();
    });
  };
  const std::uint64_t budget = 200ull * m * Params::log2ceil(m);
  while (t < budget && !all_nonempty()) {
    const auto [x, y] = sched.next();
    balance_load(p, rank, agents[x], agents[y]);
    ++t;
  }
  EXPECT_TRUE(all_nonempty());
  // Keep balancing for another O(m log m) stretch; loads then equalize to
  // within a small additive gap (Tight & Simple Load Balancing, Lemma E.6).
  for (std::uint64_t extra = 0; extra < budget; ++extra) {
    const auto [x, y] = sched.next();
    balance_load(p, rank, agents[x], agents[y]);
  }
  std::uint64_t mn = ~0ull, mx = 0;
  for (const auto& s : agents) {
    mn = std::min(mn, dc_message_count(s));
    mx = std::max(mx, dc_message_count(s));
  }
  EXPECT_LE(mx - mn, Params::log2ceil(m) + 2);
}

// --- Bit-identity against the original implementation ---------------------

/// The original Protocol 14 implementation (per-bucket class vectors, a
/// linear find_if, then std::sort of both outputs), kept verbatim as the
/// oracle for the allocation-free balance_load.  Its unstable sort orders
/// equal IDs arbitrarily, so the two agree only under balance_load's
/// precondition that no (bucket, ID) is held by both agents.
void balance_load_reference(const Params& params, std::uint32_t rank_u,
                            DcState& u, DcState& v) {
  const std::uint32_t m = params.group_size(params.group_of(rank_u));
  std::uint64_t u_total = 0;
  std::uint64_t v_total = 0;

  // Processed per rank of the group; inside a rank, runs of equal content
  // in the ID-sorted merged list form the (rank, content) classes of
  // Protocol 14, which are split ⌈·/2⌉ / ⌊·/2⌋ between the two agents,
  // the ceiling going to the currently lighter agent.
  std::vector<Msg> merged;
  for (std::uint32_t k = 0; k < m; ++k) {
    if (k >= u.msgs.size() || k >= v.msgs.size()) break;
    auto& a = u.msgs[k];
    auto& b = v.msgs[k];
    if (a.empty() && b.empty()) continue;

    merged.clear();
    merged.reserve(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(merged));
    a.clear();
    b.clear();

    // Group by content.  The merged list is sorted by ID; we bucket the
    // class members by content while preserving ID order within a class.
    // Classes are processed in order of first appearance (deterministic).
    std::vector<std::pair<std::uint32_t, std::vector<Msg>>> classes;
    for (const Msg& msg : merged) {
      auto it = std::find_if(classes.begin(), classes.end(),
                             [&](const auto& c) { return c.first == msg.content; });
      if (it == classes.end()) {
        classes.push_back({msg.content, {msg}});
      } else {
        it->second.push_back(msg);
      }
    }

    for (auto& [content, members] : classes) {
      const std::size_t ceil_half = (members.size() + 1) / 2;
      // "one agent receives the first half and the other the second half";
      // the larger share goes to whichever agent currently holds fewer
      // messages (keeps per-agent totals balanced, cf. §3.1).
      auto& first = (u_total <= v_total) ? a : b;
      auto& second = (u_total <= v_total) ? b : a;
      for (std::size_t i = 0; i < members.size(); ++i) {
        ((i < ceil_half) ? first : second).push_back(members[i]);
      }
      if (u_total <= v_total) {
        u_total += ceil_half;
        v_total += members.size() - ceil_half;
      } else {
        v_total += ceil_half;
        u_total += members.size() - ceil_half;
      }
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
  }
}

/// A random pair of DetectCollision states of one group, meeting
/// balance_load's precondition: every (bucket, ID) is held by u, by v or by
/// neither.  Per bucket the draw varies the share held, the balance between
/// u and v (including empty sides) and the number of content classes
/// (1, 2–3 or up to 64); v's bucket array is sometimes shorter than m.
struct RandomPair {
  Params params;
  std::uint32_t rank_u = 1;
  DcState u;
  DcState v;
};

RandomPair random_pair(util::Rng& rng) {
  static constexpr std::uint32_t kShapes[][2] = {
      {8, 2}, {8, 4}, {16, 4}, {16, 8}, {24, 8}, {32, 16}, {17, 5}};
  const auto& shape = kShapes[rng.below(std::size(kShapes))];
  RandomPair out{Params::make(shape[0], shape[1],
                              rng.below(2) == 0
                                  ? MessageMultiplicity::kFaithful
                                  : MessageMultiplicity::kLight)};
  const Params& p = out.params;
  out.rank_u = static_cast<std::uint32_t>(1 + rng.below(p.n));
  const std::uint32_t group = p.group_of(out.rank_u);
  const std::uint32_t m = p.group_size(group);
  const std::uint32_t ids = p.ids_per_rank(group);
  out.u.msgs.resize(m);
  out.v.msgs.resize(rng.below(4) == 0 ? rng.below(m + 1) : m);

  for (std::uint32_t k = 0; k < m; ++k) {
    const std::uint64_t shape_draw = rng.below(3);
    const auto num_classes = static_cast<std::uint32_t>(
        shape_draw == 0 ? 1 : shape_draw == 1 ? 2 + rng.below(2)
                                              : 1 + rng.below(64));
    std::vector<std::uint32_t> contents(num_classes);
    for (auto& c : contents) {
      c = static_cast<std::uint32_t>(1 + rng.below(1000));
    }
    const std::uint64_t held_per_mille = rng.below(1001);
    const std::uint64_t u_per_mille = rng.below(1001);
    for (std::uint32_t id = 1; id <= ids; ++id) {
      if (rng.below(1000) >= held_per_mille) continue;
      const Msg msg{id, contents[rng.below(num_classes)]};
      if (rng.below(1000) < u_per_mille) {
        out.u.msgs[k].push_back(msg);
      } else if (k < out.v.msgs.size()) {
        out.v.msgs[k].push_back(msg);
      }
    }
  }
  return out;
}

TEST(BalanceLoad, BitIdenticalToReferenceOnRandomPairs) {
  util::Rng rng(20250613);
  constexpr int kPairs = 12000;
  int mismatches = 0;
  for (int trial = 0; trial < kPairs; ++trial) {
    RandomPair pair = random_pair(rng);
    DcState u2 = pair.u;
    DcState v2 = pair.v;
    balance_load(pair.params, pair.rank_u, pair.u, pair.v);
    balance_load_reference(pair.params, pair.rank_u, u2, v2);
    if (!(pair.u == u2 && pair.v == v2)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0) << "of " << kPairs << " random pairs";
}

TEST(BalanceLoad, BitIdenticalToReferenceOverRepeatedMeetings) {
  // Outputs fed back in: a small group balanced pairwise many times, with
  // occasional restamps so that several content classes keep circulating.
  const Params p = Params::make(16, 8);
  const std::uint32_t m = p.group_size(0);
  std::vector<DcState> fast(m);
  for (std::uint32_t i = 0; i < m; ++i) fast[i] = dc_initial_state(p, i + 1);
  std::vector<DcState> ref = fast;
  pp::UniformScheduler sched(m, 11);
  util::Rng rng(12);
  for (int t = 0; t < 20000; ++t) {
    const auto [x, y] = sched.next();
    if (rng.below(8) == 0) {
      const auto k = rng.below(m);
      const auto content = static_cast<std::uint32_t>(1 + rng.below(5));
      for (Msg& msg : fast[x].msgs[k]) msg.content = content;
      for (Msg& msg : ref[x].msgs[k]) msg.content = content;
    }
    balance_load(p, x + 1, fast[x], fast[y]);
    balance_load_reference(p, x + 1, ref[x], ref[y]);
    ASSERT_EQ(fast[x], ref[x]) << "interaction " << t;
    ASSERT_EQ(fast[y], ref[y]) << "interaction " << t;
  }
}

TEST(BalanceLoad, SharedIdKeepsUsCopyFirst) {
  // Outside the precondition: ID 5 held by both agents with different
  // contents.  Class 9 (first seen at ID 2) sends IDs 2 and 5 to u and IDs
  // 8 and 9 to v; class 7 then goes to u, which ends up with both copies of
  // ID 5 — u's own copy first.
  const Params p = Params::make(8, 4);
  DcState u;
  DcState v;
  u.msgs.resize(p.group_size(0));
  v.msgs.resize(p.group_size(0));
  u.msgs[0] = {{5, 7}};
  v.msgs[0] = {{2, 9}, {5, 9}, {8, 9}, {9, 9}};
  balance_load(p, 1, u, v);
  EXPECT_EQ(u.msgs[0], (std::vector<Msg>{{2, 9}, {5, 7}, {5, 9}}));
  EXPECT_EQ(v.msgs[0], (std::vector<Msg>{{8, 9}, {9, 9}}));
}

}  // namespace
}  // namespace ssle::core
