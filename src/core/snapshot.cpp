#include "core/snapshot.hpp"

#include <charconv>
#include <sstream>

namespace ssle::core {

namespace {

void write_u64(std::ostringstream& os, const char* key, std::uint64_t v) {
  os << ' ' << key << '=' << v;
}

/// Parses "key=value" returning value; fails if the key does not match.
bool read_u64(std::istringstream& is, const char* key, std::uint64_t* out) {
  std::string token;
  if (!(is >> token)) return false;
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return false;
  const char* begin = token.data() + prefix.size();
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end;
}

bool read_u32(std::istringstream& is, const char* key, std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!read_u64(is, key, &v) || v > 0xFFFFFFFFull) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

/// Strict uint32 parse of a whole token (from_chars: no sign, no wrap —
/// unlike std::stoul, which silently wraps "-1" to ULONG_MAX).
bool parse_u32_token(const std::string& token, std::uint32_t* out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end && !token.empty();
}

void write_agent(std::ostringstream& os, const Agent& a) {
  os << "agent";
  write_u64(os, "role", static_cast<std::uint64_t>(a.role));
  write_u64(os, "rank", a.rank);
  write_u64(os, "countdown", a.countdown);
  write_u64(os, "reset_count", a.reset.reset_count);
  write_u64(os, "delay_timer", a.reset.delay_timer);
  os << '\n';

  // AssignRanks sub-state.
  os << "ar";
  write_u64(os, "type", static_cast<std::uint64_t>(a.ar.type));
  write_u64(os, "drawn", a.ar.le.drawn ? 1 : 0);
  write_u64(os, "id", a.ar.le.identifier);
  write_u64(os, "min_id", a.ar.le.min_identifier);
  write_u64(os, "le_count", a.ar.le.le_count);
  write_u64(os, "done", a.ar.le.leader_done ? 1 : 0);
  write_u64(os, "bit", a.ar.le.leader_bit ? 1 : 0);
  write_u64(os, "low", a.ar.low_badge);
  write_u64(os, "high", a.ar.high_badge);
  write_u64(os, "dep", a.ar.deputy_id);
  write_u64(os, "ctr", a.ar.counter);
  write_u64(os, "lab_d", a.ar.label.deputy);
  write_u64(os, "lab_i", a.ar.label.index);
  write_u64(os, "sleep", a.ar.sleep_timer);
  write_u64(os, "ar_rank", a.ar.rank);
  write_u64(os, "chan_n", a.ar.channel.size());
  for (const auto c : a.ar.channel) os << ' ' << c;
  os << '\n';

  // StableVerify / DetectCollision sub-state.
  os << "sv";
  write_u64(os, "gen", a.sv.generation);
  write_u64(os, "prob", a.sv.probation_timer);
  write_u64(os, "err", a.sv.dc.error ? 1 : 0);
  write_u64(os, "sig", a.sv.dc.signature);
  write_u64(os, "ctr", a.sv.dc.counter);
  write_u64(os, "obs_n", a.sv.dc.observations.size());
  for (const auto o : a.sv.dc.observations) os << ' ' << o;
  write_u64(os, "buckets", a.sv.dc.msgs.size());
  os << '\n';
  for (const auto& bucket : a.sv.dc.msgs) {
    os << "msgs n=" << bucket.size();
    for (const Msg& m : bucket) os << ' ' << m.id << ':' << m.content;
    os << '\n';
  }
}

std::optional<Agent> read_agent(std::istringstream& is) {
  Agent a;
  std::string tag;
  std::uint64_t u64 = 0;
  std::uint32_t u32 = 0;

  if (!(is >> tag) || tag != "agent") return std::nullopt;
  if (!read_u64(is, "role", &u64) || u64 > 2) return std::nullopt;
  a.role = static_cast<Role>(u64);
  if (!read_u32(is, "rank", &a.rank)) return std::nullopt;
  if (!read_u32(is, "countdown", &a.countdown)) return std::nullopt;
  if (!read_u32(is, "reset_count", &a.reset.reset_count)) return std::nullopt;
  if (!read_u32(is, "delay_timer", &a.reset.delay_timer)) return std::nullopt;

  if (!(is >> tag) || tag != "ar") return std::nullopt;
  if (!read_u64(is, "type", &u64) || u64 > 5) return std::nullopt;
  a.ar.type = static_cast<ArType>(u64);
  if (!read_u64(is, "drawn", &u64)) return std::nullopt;
  a.ar.le.drawn = u64 != 0;
  if (!read_u64(is, "id", &a.ar.le.identifier)) return std::nullopt;
  if (!read_u64(is, "min_id", &a.ar.le.min_identifier)) return std::nullopt;
  if (!read_u32(is, "le_count", &a.ar.le.le_count)) return std::nullopt;
  if (!read_u64(is, "done", &u64)) return std::nullopt;
  a.ar.le.leader_done = u64 != 0;
  if (!read_u64(is, "bit", &u64)) return std::nullopt;
  a.ar.le.leader_bit = u64 != 0;
  if (!read_u32(is, "low", &a.ar.low_badge)) return std::nullopt;
  if (!read_u32(is, "high", &a.ar.high_badge)) return std::nullopt;
  if (!read_u32(is, "dep", &a.ar.deputy_id)) return std::nullopt;
  if (!read_u32(is, "ctr", &a.ar.counter)) return std::nullopt;
  if (!read_u32(is, "lab_d", &a.ar.label.deputy)) return std::nullopt;
  if (!read_u32(is, "lab_i", &a.ar.label.index)) return std::nullopt;
  if (!read_u32(is, "sleep", &a.ar.sleep_timer)) return std::nullopt;
  if (!read_u32(is, "ar_rank", &a.ar.rank)) return std::nullopt;
  if (!read_u32(is, "chan_n", &u32)) return std::nullopt;
  if (u32 > (1u << 20)) return std::nullopt;
  a.ar.channel.resize(u32);
  for (auto& c : a.ar.channel) {
    if (!(is >> c)) return std::nullopt;
  }

  if (!(is >> tag) || tag != "sv") return std::nullopt;
  if (!read_u32(is, "gen", &a.sv.generation)) return std::nullopt;
  if (!read_u32(is, "prob", &a.sv.probation_timer)) return std::nullopt;
  if (!read_u64(is, "err", &u64)) return std::nullopt;
  a.sv.dc.error = u64 != 0;
  if (!read_u32(is, "sig", &a.sv.dc.signature)) return std::nullopt;
  if (!read_u32(is, "ctr", &a.sv.dc.counter)) return std::nullopt;
  if (!read_u32(is, "obs_n", &u32)) return std::nullopt;
  if (u32 > (1u << 26)) return std::nullopt;
  a.sv.dc.observations.resize(u32);
  for (auto& o : a.sv.dc.observations) {
    if (!(is >> o)) return std::nullopt;
  }
  if (!read_u32(is, "buckets", &u32)) return std::nullopt;
  if (u32 > (1u << 20)) return std::nullopt;
  a.sv.dc.msgs.resize(u32);
  for (auto& bucket : a.sv.dc.msgs) {
    std::string line_tag;
    std::uint32_t count = 0;
    if (!(is >> line_tag) || line_tag != "msgs") return std::nullopt;
    if (!read_u32(is, "n", &count) || count > (1u << 26)) return std::nullopt;
    bucket.resize(count);
    for (Msg& m : bucket) {
      std::string pair;
      if (!(is >> pair)) return std::nullopt;
      const auto colon = pair.find(':');
      if (colon == std::string::npos) return std::nullopt;
      if (!parse_u32_token(pair.substr(0, colon), &m.id)) return std::nullopt;
      if (!parse_u32_token(pair.substr(colon + 1), &m.content)) {
        return std::nullopt;
      }
    }
  }
  return a;
}

/// Whether the stream holds nothing but whitespace from here on — the
/// trailing-garbage check that rejects an extra or duplicated stanza.
bool at_clean_end(std::istringstream& is) {
  std::string extra;
  return !(is >> extra);
}

}  // namespace

std::string snapshot_write_agent(const Agent& a) {
  std::ostringstream os;
  write_agent(os, a);
  return os.str();
}

std::optional<Agent> snapshot_read_agent(const std::string& text) {
  std::istringstream is(text);
  auto agent = read_agent(is);
  if (!agent || !at_clean_end(is)) return std::nullopt;
  return agent;
}

}  // namespace ssle::core
