#include "core/detect_collision.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <vector>

namespace ssle::core {

namespace {

/// Index of `rank` within its group, 0-based, for msgs bucket addressing.
std::uint32_t bucket_of(const Params& params, std::uint32_t rank) {
  return params.rank_in_group(rank) - 1;
}

}  // namespace

void dc_reset_state(const Params& params, std::uint32_t rank, DcState& s) {
  const std::uint32_t group = params.group_of(rank);
  const std::uint32_t m = params.group_size(group);
  const std::uint32_t ids = params.ids_per_rank(group);
  const std::uint32_t pos = params.rank_in_group(rank);  // 1-based

  s.error = false;
  s.signature = 1;
  s.counter = 1;
  s.observations.assign(ids, 1);
  s.msgs.resize(m);

  // Pre-mixed slice: agent at position pos holds IDs
  // [(pos-1)·slice + 1, pos·slice] of every rank of its group, where
  // slice = ids / m (the last position also takes the remainder IDs).
  const std::uint32_t slice = ids / m;
  const std::uint32_t lo = (pos - 1) * slice + 1;
  const std::uint32_t hi = (pos == m) ? ids : pos * slice;
  for (auto& bucket : s.msgs) {
    bucket.clear();
    bucket.reserve(hi - lo + 1);
    for (std::uint32_t j = lo; j <= hi; ++j) bucket.push_back({j, 1});
  }
}

DcState dc_initial_state(const Params& params, std::uint32_t rank) {
  DcState s;
  dc_reset_state(params, rank, s);
  return s;
}

bool dc_obvious_collision(const Params& params, std::uint32_t rank_u,
                          const DcState& u, std::uint32_t rank_v,
                          const DcState& v) {
  if (rank_u == rank_v) return true;
  const std::uint32_t m = params.group_size(params.group_of(rank_u));
  // Two copies of the same circulating message (same governing rank, same
  // ID) held by u and v simultaneously.
  for (std::uint32_t k = 0; k < m; ++k) {
    if (k >= u.msgs.size() || k >= v.msgs.size()) break;
    const auto& a = u.msgs[k];
    const auto& b = v.msgs[k];
    // Buckets are ID-sorted: an empty side or disjoint ID ranges (the
    // common case once halving has left each agent contiguous runs) share
    // nothing.
    if (a.empty() || b.empty()) continue;
    if (a.back().id < b.front().id || b.back().id < a.front().id) continue;
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].id == b[j].id) return true;
      if (a[i].id < b[j].id) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return false;
}

void check_message_consistency(const Params& params, std::uint32_t rank_u,
                               DcState& u, DcState& v) {
  const std::uint32_t k = bucket_of(params, rank_u);
  if (k >= v.msgs.size()) return;
  for (const Msg& msg : v.msgs[k]) {
    const std::uint32_t j = msg.id - 1;
    if (j < u.observations.size() && msg.content != u.observations[j]) {
      u.error = true;
      v.error = true;
      return;
    }
  }
}

void update_messages(const Params& params, std::uint32_t rank_u, DcState& u,
                     DcState& v, util::Rng& rng) {
  const std::uint32_t group = params.group_of(rank_u);
  const std::uint32_t k = bucket_of(params, rank_u);

  // Protocol 13 lines 1–8: refresh the signature every c_sig·log m of u's
  // own interactions and restamp u's held copies of its own messages.
  ++u.counter;
  if (u.counter >= params.signature_period(group)) {
    u.signature = static_cast<std::uint32_t>(
        1 + rng.below(params.signature_space(group)));
    u.counter = 1;
    if (k < u.msgs.size()) {
      for (Msg& msg : u.msgs[k]) {
        msg.content = u.signature;
        const std::uint32_t j = msg.id - 1;
        if (j < u.observations.size()) u.observations[j] = u.signature;
      }
    }
  }

  // Protocol 13 lines 9–12: restamp v's messages governed by u's rank with
  // u's current signature, recording the new contents in u's observations.
  if (k < v.msgs.size()) {
    for (Msg& msg : v.msgs[k]) {
      msg.content = u.signature;
      const std::uint32_t j = msg.id - 1;
      if (j < u.observations.size()) u.observations[j] = u.signature;
    }
  }
}

void balance_load(const Params& params, std::uint32_t rank_u, DcState& u,
                  DcState& v) {
  const std::uint32_t m = params.group_size(params.group_of(rank_u));
  std::uint64_t u_total = 0;
  std::uint64_t v_total = 0;

  /// One (rank, content) class of the bucket being split.
  struct ContentClass {
    std::uint32_t content = 0;
    std::uint32_t size = 0;       ///< members in the merged bucket
    std::uint32_t ceil_left = 0;  ///< ⌈size/2⌉ share not yet handed out
    bool u_first = false;         ///< u receives the ⌈·/2⌉ share
  };
  // Per-thread scratch, reused across calls so that the steady state
  // allocates nothing; per thread because one const protocol object is
  // shared by parallel runs and shards.
  thread_local std::vector<Msg> merged;
  thread_local std::vector<std::uint32_t> class_of;
  thread_local std::vector<ContentClass> classes;

  // Processed per rank of the group; inside a rank, the messages of equal
  // content form the (rank, content) classes of Protocol 14, taken in order
  // of first appearance in the ID-sorted merged list.  Each class is split
  // ⌈·/2⌉ / ⌊·/2⌋ between the two agents ("one agent receives the first
  // half and the other the second half"), the ceiling going to whichever
  // agent currently holds fewer messages (keeps per-agent totals balanced,
  // cf. §3.1).
  for (std::uint32_t k = 0; k < m; ++k) {
    if (k >= u.msgs.size() || k >= v.msgs.size()) break;
    auto& a = u.msgs[k];
    auto& b = v.msgs[k];
    if (a.empty() && b.empty()) continue;

    // One class (≥ 99.5% of buckets while recovering from a no_leader
    // start at n = 128, r = 32): the lighter agent takes the first ⌈M/2⌉
    // of the M messages in ID order, the other agent the rest.  The test
    // is an OR of XORs with no early exit, so it vectorizes.
    const std::uint32_t first_content = (a.empty() ? b : a).front().content;
    std::uint32_t other_bits = 0;
    for (const Msg& msg : a) other_bits |= msg.content ^ first_content;
    for (const Msg& msg : b) other_bits |= msg.content ^ first_content;
    if (other_bits == 0) {
      const auto total = static_cast<std::uint32_t>(a.size() + b.size());
      const std::uint32_t ceil_half = (total + 1) / 2;
      const bool u_first = u_total <= v_total;
      auto& first = u_first ? a : b;
      auto& second = u_first ? b : a;
      (u_first ? u_total : v_total) += ceil_half;
      (u_first ? v_total : u_total) += total - ceil_half;

      if (a.empty() || b.empty() || a.back().id < b.front().id ||
          b.back().id < a.front().id) {
        // ID-disjoint (≥ 99.7% of bucket pairs in that regime): the merged
        // list is the lower run followed by the upper one.  Give the lighter agent the
        // lower run (an O(1) swap), then move only the difference between
        // its size and ⌈M/2⌉ across the boundary.  A non-empty run facing
        // an empty side counts as the lower one.  The exact reserves keep
        // capacities at the largest share held, as assign() would, rather
        // than letting insert() double them.
        if (first.empty() ||
            (!second.empty() && second.back().id < first.front().id)) {
          first.swap(second);
        }
        if (first.size() > ceil_half) {
          second.reserve(total - ceil_half);
          second.insert(second.begin(), first.begin() + ceil_half,
                        first.end());
          first.resize(ceil_half);
        } else if (first.size() < ceil_half) {
          const auto moved =
              static_cast<std::ptrdiff_t>(ceil_half - first.size());
          first.reserve(ceil_half);
          first.insert(first.end(), second.begin(), second.begin() + moved);
          second.erase(second.begin(), second.begin() + moved);
        }
        continue;
      }

      merged.clear();
      std::merge(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
      first.assign(merged.begin(), merged.begin() + ceil_half);
      second.assign(merged.begin() + ceil_half, merged.end());
      continue;
    }

    merged.clear();
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(merged));
    const std::uint32_t total = static_cast<std::uint32_t>(merged.size());

    // Pass 1: find the classes and fix each one's side, in order of first
    // appearance, from the running totals.
    classes.clear();
    class_of.resize(total);
    for (std::uint32_t i = 0; i < total; ++i) {
      std::uint32_t c = 0;
      while (c < classes.size() && classes[c].content != merged[i].content) {
        ++c;
      }
      if (c == classes.size()) classes.push_back({merged[i].content});
      ++classes[c].size;
      class_of[i] = c;
    }
    for (ContentClass& cls : classes) {
      cls.ceil_left = (cls.size + 1) / 2;
      cls.u_first = u_total <= v_total;
      (cls.u_first ? u_total : v_total) += cls.ceil_left;
      (cls.u_first ? v_total : u_total) += cls.size - cls.ceil_left;
    }

    // Pass 2: one walk in ID order; a class's first ⌈·/2⌉ members go to its
    // first side, the rest to the other, so both outputs stay ID-sorted.
    a.clear();
    b.clear();
    for (std::uint32_t i = 0; i < total; ++i) {
      ContentClass& cls = classes[class_of[i]];
      const bool to_first = cls.ceil_left > 0;
      if (to_first) --cls.ceil_left;
      ((cls.u_first == to_first) ? a : b).push_back(merged[i]);
    }
  }
}

std::uint64_t dc_message_count(const DcState& u) {
  std::uint64_t total = 0;
  for (const auto& bucket : u.msgs) total += bucket.size();
  return total;
}

void detect_collision(const Params& params, std::uint32_t rank_u, DcState& u,
                      std::uint32_t rank_v, DcState& v, util::Rng& rng) {
  // Protocol 3 line 1–2: only same-group agents interact non-trivially.
  if (params.group_of(rank_u) != params.group_of(rank_v)) return;
  if (u.error || v.error) {
    // ⊤ is absorbing within DetectCollision; the StableVerify wrapper is
    // responsible for reacting to it (Protocol 2 lines 5–8).
    u.error = v.error = true;
    return;
  }

  // Lines 3–4: obvious collision — shared rank or duplicated message.
  if (dc_obvious_collision(params, rank_u, u, rank_v, v)) {
    u.error = v.error = true;
    return;
  }

  // Line 5: mutual consistency checks (may raise ⊤).
  check_message_consistency(params, rank_u, u, v);
  check_message_consistency(params, rank_v, v, u);
  if (u.error || v.error) {
    u.error = v.error = true;
    return;
  }

  // Lines 6–7: restamp + spread.
  update_messages(params, rank_u, u, v, rng);
  update_messages(params, rank_v, v, u, rng);
  if (params.load_balancing_enabled) {
    balance_load(params, rank_u, u, v);
  }
}

}  // namespace ssle::core
