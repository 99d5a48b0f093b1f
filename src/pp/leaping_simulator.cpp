#include "pp/leaping_simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "pp/log_combinatorics.hpp"

namespace ssle::pp {
namespace {

/// BTRD's validity floor on trials·min(p, 1−p) (Hörmann's n·p ≥ 10).
/// Below it the mode-centered inversion visits O(σ) ≤ O(√10) points.
constexpr double kBtrdMinMean = 10.0;

/// Count from a non-negative integral double, clamped to `trials`.  Near
/// and above 2^53 the double may have rounded past `trials` (or, at
/// trials ≈ 2^64, out of uint64's range, where the cast is undefined).
std::uint64_t to_count(double k, std::uint64_t trials) {
  if (k >= 0x1p64) return trials;
  return std::min(static_cast<std::uint64_t>(k), trials);
}

/// Hörmann's Stirling correction fc(k) = ln k! − (k + ½)·ln(k + 1) +
/// (k + 1) − ½·ln 2π: exact table below 10, three-term series beyond
/// (absolute error < 4e-11 at k = 10, shrinking as k^-7).
double stirling_tail(double k) {
  static constexpr std::array<double, 10> kTable = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10.0) return kTable[static_cast<std::size_t>(k)];
  const double inv = 1.0 / (k + 1.0);
  const double inv2 = inv * inv;
  return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0) * inv2) * inv2) * inv;
}

/// Hörmann's BTRD (transformed rejection with decomposition, J. Stat.
/// Comput. Simul. 46, 1993) for trials·p ≥ 10 and p ≤ ½: O(1) expected
/// uniforms per draw (~1.2 at large trials·p) and no log on the ~80% of
/// draws that land in the tight centre box (step 1).
std::uint64_t sample_binomial_btrd(util::Rng& rng, std::uint64_t trials,
                                   double p) {
  const double n = static_cast<double>(trials);
  const double q = 1.0 - p;
  const double npq = n * p * q;
  const double spq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = n * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  const double m = std::floor((n + 1.0) * p);
  const double r = p / q;
  const double nr = (n + 1.0) * r;
  while (true) {
    // Step 1: the centre box, accepted without a pmf evaluation.
    double v = rng.real();
    double u;
    if (v <= u_rv_r) {
      u = v / v_r - 0.43;
      const double k = std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c);
      if (k >= 0.0 && k <= n) return to_count(k, trials);
      continue;  // unreachable for trials·p ≥ 10; rejecting keeps it exact
    }
    // Step 2: a point (u, v) of the hat outside the box.
    if (v >= v_r) {
      u = rng.real() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = rng.real() * v_r;
    }
    // Step 3.0: transform, range check, scale v to the pmf ratio.
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (!(k >= 0.0 && k <= n)) continue;  // also rejects us = 0 (±inf)
    v = v * alpha / (a / (us * us) + b);
    const double km = std::abs(k - m);
    if (km <= 15.0) {
      // Step 3.1: f(k)/f(m) by the pmf recurrence.  The loops count km
      // steps in an int: above 2^53 a double index stops advancing.
      const int steps = static_cast<int>(km);
      double f = 1.0;
      if (m < k) {
        for (int i = 1; i <= steps; ++i) f *= nr / (m + i) - r;
      } else {
        for (int i = 1; i <= steps; ++i) v *= nr / (k + i) - r;
      }
      if (v <= f) return to_count(k, trials);
      continue;
    }
    // Step 3.2: squeeze on the log ratio's normal approximation.
    v = std::log(v);
    const double rho =
        (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
    const double t = -km * km / (2.0 * npq);
    if (v < t - rho) return to_count(k, trials);
    if (v > t + rho) continue;
    // Step 3.3: exact log f(k)/f(m).  Hörmann's (n+1)·ln(nm/nk) term is
    // taken as log1p((k − m)/nk): k − m is exact, while nm/nk rounds to
    // within ε of 1 and the (n+1) factor (10^10 on the leap path) would
    // blow that ε up to ~1e-6 of log-pmf.
    const double nm = n - m + 1.0;
    const double nk = n - k + 1.0;
    const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) +
                     stirling_tail(m) + stirling_tail(n - m);
    if (v <= h + (n + 1.0) * std::log1p((k - m) / nk) +
                 (k + 0.5) * std::log(nk * r / (k + 1.0)) -
                 stirling_tail(k) - stirling_tail(n - k)) {
      return to_count(k, trials);
    }
  }
}

}  // namespace

std::uint64_t sample_binomial(util::Rng& rng, std::uint64_t trials,
                              double p) {
  if (trials == 0 || !(p > 0.0)) return 0;  // NaN p included
  if (p >= 1.0) return trials;
  const double nd = static_cast<double>(trials);
  if (nd * std::min(p, 1.0 - p) >= kBtrdMinMean) {
    // 1 − p is exact for p ≥ ½ (Sterbenz), and the inner draw is ≤ trials.
    return p <= 0.5 ? sample_binomial_btrd(rng, trials, p)
                    : trials - sample_binomial_btrd(rng, trials, 1.0 - p);
  }

  // Small mean on the lighter side: inverse transform expanding outward
  // from the mode ⌊(trials+1)·p⌋, using the pmf recurrence p(k+1)/p(k) = (trials−k)/(k+1) · p/(1−p);
  // expected number of visited support points is O(standard deviation).
  // The pmf at the mode is computed once in log space (log_choose handles
  // trials ~ 10^10 where C(trials, k) overflows everything).
  const std::uint64_t mode = to_count(std::floor((nd + 1.0) * p), trials);

  const double log_pmode = log_choose(trials, mode) +
                           static_cast<double>(mode) * std::log(p) +
                           (nd - static_cast<double>(mode)) * std::log1p(-p);
  double u = rng.real();
  const double p_mode = std::exp(log_pmode);
  u -= p_mode;
  if (u < 0.0) return mode;

  const double odds = p / (1.0 - p);
  double p_up = p_mode;
  double p_down = p_mode;
  std::uint64_t k_up = mode;
  std::uint64_t k_down = mode;
  while (k_up < trials || k_down > 0) {
    if (k_up < trials) {
      const double k = static_cast<double>(k_up);
      p_up *= (nd - k) / (k + 1.0) * odds;
      ++k_up;
      u -= p_up;
      if (u < 0.0) return k_up;
    }
    if (k_down > 0) {
      const double k = static_cast<double>(k_down);
      p_down *= k / ((nd - k + 1.0) * odds);
      --k_down;
      u -= p_down;
      if (u < 0.0) return k_down;
    }
    // Unlike the hypergeometric (support bounded by min(draws, successes))
    // the binomial support runs to `trials`: once both running pmfs have
    // decayed to zero the remaining mass is below double resolution and
    // walking further is pure waste — attribute the residue to the heavier
    // outermost *visited* point, an O(double-epsilon) overweight of that
    // endpoint (same tail policy as sample_hypergeometric).
    if (p_up < 1e-300 && p_down < 1e-300) break;
  }
  return p_up >= p_down ? k_up : k_down;
}

}  // namespace ssle::pp
