#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include "core/adversary.hpp"
#include "core/elect_leader.hpp"

namespace ssle::core {
namespace {

/// read(write(a)) == a for every agent of the configuration.
void expect_round_trips(const std::vector<Agent>& config,
                        const std::string& what) {
  for (const Agent& a : config) {
    const auto back = snapshot_read_agent(snapshot_write_agent(a));
    ASSERT_TRUE(back.has_value()) << what;
    EXPECT_EQ(*back, a) << what;
  }
}

/// The stanza of an agent from a safe configuration: every sub-state
/// populated (rank, channel, message buckets).
std::string safe_stanza() {
  const Params p = Params::make(8, 4);
  return snapshot_write_agent(make_safe_config(p).front());
}

TEST(Snapshot, RoundTripsSafeConfig) {
  const Params p = Params::make(16, 8);
  expect_round_trips(make_safe_config(p), "safe");
}

TEST(Snapshot, RoundTripsCleanStart) {
  const Params p = Params::make(8, 2);
  ElectLeader protocol(p);
  std::vector<Agent> config;
  for (std::uint32_t i = 0; i < p.n; ++i) {
    config.push_back(protocol.initial_state(i));
  }
  expect_round_trips(config, "clean");
}

class SnapshotCorruptions : public ::testing::TestWithParam<Corruption> {};

TEST_P(SnapshotCorruptions, RoundTripsEveryCorruptionClass) {
  const Params p = Params::make(12, 4);
  util::Rng rng(5);
  expect_round_trips(make_adversarial_config(p, GetParam(), rng),
                     corruption_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, SnapshotCorruptions, ::testing::ValuesIn(all_corruptions()),
    [](const ::testing::TestParamInfo<Corruption>& info) {
      return corruption_name(info.param);
    });

TEST(Snapshot, RejectsWrongHeader) {
  // A stanza opens with its "agent" tag; anything else is not a stanza.
  EXPECT_FALSE(snapshot_read_agent("garbage").has_value());
  EXPECT_FALSE(snapshot_read_agent("").has_value());
  std::string text = safe_stanza();
  ASSERT_EQ(text.rfind("agent ", 0), 0u);
  text.replace(0, 5, "agnet");
  EXPECT_FALSE(snapshot_read_agent(text).has_value());
}

TEST(Snapshot, RejectsTruncatedInput) {
  const std::string text = safe_stanza();
  for (const double frac : {0.3, 0.7, 0.95}) {
    const auto cut = text.substr(0, static_cast<std::size_t>(
                                        text.size() * frac));
    EXPECT_FALSE(snapshot_read_agent(cut).has_value()) << frac;
  }
}

TEST(Snapshot, RejectsCorruptedField) {
  std::string text = safe_stanza();
  const auto pos = text.find("role=");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "role=9");  // invalid role value
  EXPECT_FALSE(snapshot_read_agent(text).has_value());
}

// Replaces the value of the first `key=` occurrence with `value`.
std::string with_field(std::string text, const std::string& key,
                       const std::string& value) {
  const auto pos = text.find(key);
  EXPECT_NE(pos, std::string::npos) << key;
  const auto begin = pos + key.size();
  auto end = begin;
  while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
  text.replace(begin, end - begin, value);
  return text;
}

TEST(Snapshot, RejectsDuplicatedAgentStanza) {
  // A second stanza after the first is trailing garbage: the parse must
  // fail rather than silently drop or absorb it.
  const std::string text = safe_stanza();
  EXPECT_FALSE(snapshot_read_agent(text + text).has_value());
  EXPECT_FALSE(snapshot_read_agent(text + " x").has_value());
}

TEST(Snapshot, RejectsCountOverflowAndNegativeFields) {
  const std::string text = safe_stanza();
  // 2^32: one past the uint32 fields' range — must not wrap.
  EXPECT_FALSE(
      snapshot_read_agent(with_field(text, " rank=", "4294967296"))
          .has_value());
  // Negative values must not wrap through unsigned parsing either.
  EXPECT_FALSE(
      snapshot_read_agent(with_field(text, " rank=", "-1")).has_value());
  // Absurd container sizes are rejected before any allocation.
  EXPECT_FALSE(
      snapshot_read_agent(with_field(text, " chan_n=", "4000000000"))
          .has_value());
  EXPECT_FALSE(
      snapshot_read_agent(with_field(text, " buckets=", "4000000000"))
          .has_value());
}

TEST(Snapshot, AgentStanzaCodecRoundTrips) {
  const Params p = Params::make(12, 4);
  util::Rng rng(17);
  for (const Corruption c : all_corruptions()) {
    for (const Agent& a : make_adversarial_config(p, c, rng)) {
      const std::string stanza = snapshot_write_agent(a);
      const auto back = snapshot_read_agent(stanza);
      ASSERT_TRUE(back.has_value()) << corruption_name(c);
      EXPECT_EQ(*back, a) << corruption_name(c);
      // Strictness: trailing garbage and truncation both reject.
      EXPECT_FALSE(snapshot_read_agent(stanza + " x").has_value());
      EXPECT_FALSE(
          snapshot_read_agent(stanza.substr(0, stanza.size() / 2)).has_value());
    }
  }
}

TEST(Snapshot, RoundTripPropertyOverRandomConfigs) {
  // Property sweep: every corruption class × several seeds drives the
  // writer through randomized field values (identifiers, channels, message
  // buckets); read(write(agent)) must be the identity on all of them.
  const Params p = Params::make(10, 4);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    for (const Corruption c : all_corruptions()) {
      expect_round_trips(make_adversarial_config(p, c, rng),
                         std::string(corruption_name(c)) + " seed " +
                             std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace ssle::core
