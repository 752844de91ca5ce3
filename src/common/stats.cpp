#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace fibersim {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::min() const {
  FS_REQUIRE(count_ > 0, "min() of empty accumulator");
  return min_;
}

double Accumulator::max() const {
  FS_REQUIRE(count_ > 0, "max() of empty accumulator");
  return max_;
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double percentile(std::vector<double> values, double q) {
  FS_REQUIRE(!values.empty(), "percentile of empty series");
  FS_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double geometric_mean(const std::vector<double>& values) {
  FS_REQUIRE(!values.empty(), "geometric_mean of empty series");
  double log_sum = 0.0;
  for (double v : values) {
    FS_REQUIRE(v > 0.0, "geometric_mean requires positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double relative_spread(const std::vector<double>& values) {
  FS_REQUIRE(!values.empty(), "relative_spread of empty series");
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  FS_REQUIRE(*lo > 0.0, "relative_spread requires positive values");
  return (*hi - *lo) / *lo;
}

}  // namespace fibersim
