// Streaming and batch statistics used by the experiment reports.
#pragma once

#include <cstddef>
#include <vector>

namespace fibersim {

/// Welford streaming accumulator: count / mean / variance / min / max.
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const;
  double max() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double sum() const { return count_ ? mean_ * static_cast<double>(count_) : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation; `q` in [0,1]. Copies and sorts.
double percentile(std::vector<double> values, double q);

/// Geometric mean; all values must be > 0.
double geometric_mean(const std::vector<double>& values);

/// Relative spread of a series: (max-min)/min. Used to test the paper's
/// "allocation method has little impact" claim quantitatively.
double relative_spread(const std::vector<double>& values);

}  // namespace fibersim
