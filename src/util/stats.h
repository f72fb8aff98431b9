// Small statistics toolkit used by the security experiments.
//
// The paper's security notion (Section 1.4) is perfect indistinguishability
// of adversary views across inputs.  For the algebraic layer (Theorem 2.1) we
// verify uniformity exactly on small fields; for compiled end-to-end
// algorithms we verify statistically over many seeded executions, using
// chi-square goodness-of-fit and total-variation distance between empirical
// view distributions.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace mobile::util {

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] Summary summarize(const std::vector<double>& xs);

/// Chi-square statistic of observed counts against a uniform distribution
/// over `bins` categories.  Returns the statistic; degrees of freedom is
/// bins - 1.
[[nodiscard]] double chiSquareUniform(const std::vector<std::uint64_t>& counts);

/// Upper-tail critical value of the chi-square distribution with `dof`
/// degrees of freedom at significance ~0.999 (i.e. the test rejects with
/// probability ~1e-3 under the null).  Uses the Wilson-Hilferty cube
/// approximation, accurate enough for pass/fail experiment gating.
[[nodiscard]] double chiSquareCritical999(std::size_t dof);

/// Critical value for the MAX of `comparisons` independent chi-square
/// statistics (Bonferroni at overall level ~1e-3): the per-test tail is
/// 0.001/comparisons.  Use when gating on the worst lane of a sweep.
[[nodiscard]] double chiSquareCriticalMax(std::size_t dof,
                                          std::size_t comparisons);

/// Total-variation distance between two empirical distributions given as
/// count maps over an arbitrary key space.
[[nodiscard]] double totalVariation(
    const std::map<std::uint64_t, std::uint64_t>& a,
    const std::map<std::uint64_t, std::uint64_t>& b);

/// Least-squares slope of log(y) against log(x); used to estimate scaling
/// exponents ("shape" checks) in the benchmark tables.  Ignores non-positive
/// entries.
[[nodiscard]] double logLogSlope(const std::vector<double>& x,
                                 const std::vector<double>& y);

}  // namespace mobile::util
