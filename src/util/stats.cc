#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mobile::util {

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = xs.size() > 1
                 ? std::sqrt(var / static_cast<double>(xs.size() - 1))
                 : 0.0;
  return s;
}

double chiSquareUniform(const std::vector<std::uint64_t>& counts) {
  if (counts.empty()) return 0.0;
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  if (total == 0) return 0.0;
  const double expected =
      static_cast<double>(total) / static_cast<double>(counts.size());
  double stat = 0.0;
  for (auto c : counts) {
    const double d = static_cast<double>(c) - expected;
    stat += d * d / expected;
  }
  return stat;
}

namespace {
double wilsonHilferty(std::size_t dof, double z) {
  if (dof == 0) return 0.0;
  const double k = static_cast<double>(dof);
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}
}  // namespace

double chiSquareCritical999(std::size_t dof) {
  // z_{0.999} ~= 3.0902.
  return wilsonHilferty(dof, 3.0902);
}

double chiSquareCriticalMax(std::size_t dof, std::size_t comparisons) {
  // Normal upper quantile for tail p = 0.001/comparisons via the standard
  // asymptotic z ~= sqrt(2 ln(1/p)) - (ln ln(1/p) + ln 4pi)/(2 sqrt(2
  // ln(1/p))).
  const double p =
      0.001 / static_cast<double>(std::max<std::size_t>(1, comparisons));
  const double l = std::log(1.0 / p);
  const double s = std::sqrt(2.0 * l);
  const double z =
      s - (std::log(l) + std::log(4.0 * 3.14159265358979)) / (2.0 * s);
  return wilsonHilferty(dof, z);
}

double totalVariation(const std::map<std::uint64_t, std::uint64_t>& a,
                      const std::map<std::uint64_t, std::uint64_t>& b) {
  std::uint64_t na = 0, nb = 0;
  for (const auto& [k, v] : a) na += v;
  for (const auto& [k, v] : b) nb += v;
  if (na == 0 || nb == 0) return (na == nb) ? 0.0 : 1.0;
  double tv = 0.0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    double pa = 0.0, pb = 0.0;
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      pa = static_cast<double>(ia->second) / static_cast<double>(na);
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      pb = static_cast<double>(ib->second) / static_cast<double>(nb);
      ++ib;
    } else {
      pa = static_cast<double>(ia->second) / static_cast<double>(na);
      pb = static_cast<double>(ib->second) / static_cast<double>(nb);
      ++ia;
      ++ib;
    }
    tv += std::abs(pa - pb);
  }
  return tv / 2.0;
}

double logLogSlope(const std::vector<double>& x, const std::vector<double>& y) {
  std::vector<double> lx, ly;
  for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
    if (x[i] > 0.0 && y[i] > 0.0) {
      lx.push_back(std::log(x[i]));
      ly.push_back(std::log(y[i]));
    }
  }
  if (lx.size() < 2) return 0.0;
  const Summary sx = summarize(lx);
  const Summary sy = summarize(ly);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < lx.size(); ++i) {
    num += (lx[i] - sx.mean) * (ly[i] - sy.mean);
    den += (lx[i] - sx.mean) * (lx[i] - sx.mean);
  }
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace mobile::util
