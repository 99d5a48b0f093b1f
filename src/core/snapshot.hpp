// Agent snapshots: serialize/restore one ElectLeader_r agent as a
// line-based text stanza.
//
// The stanza is the per-class key codec of the counts-native checkpoint
// (obs/checkpoint.hpp), so it is the one persistence format for agent
// state.  Parsing is strict: any malformed field yields std::nullopt rather
// than a partially initialized agent.
#pragma once

#include <optional>
#include <string>

#include "core/agent.hpp"

namespace ssle::core {

/// Serializes ONE agent as its snapshot stanza — the per-class key codec
/// the counts-native checkpoint (obs/checkpoint.hpp) uses to store
/// ElectLeader_r registry entries.
std::string snapshot_write_agent(const Agent& a);

/// Parses exactly one stanza produced by snapshot_write_agent.  Strict:
/// any malformed field or trailing non-whitespace yields std::nullopt.
std::optional<Agent> snapshot_read_agent(const std::string& text);

}  // namespace ssle::core
