#include "ml/dataset.h"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/prng.h"

namespace bfsx::ml {

void Dataset::add(std::vector<double> features, double target) {
  if (!x.empty() && features.size() != x.front().size()) {
    throw std::invalid_argument("Dataset::add: inconsistent feature width");
  }
  x.push_back(std::move(features));
  y.push_back(target);
}

void Dataset::validate() const {
  if (x.size() != y.size()) {
    throw std::invalid_argument("Dataset: |x| != |y|");
  }
  for (const auto& row : x) {
    if (row.size() != x.front().size()) {
      throw std::invalid_argument("Dataset: ragged rows");
    }
  }
}

Standardizer Standardizer::fit(const Dataset& data) {
  data.validate();
  if (data.size() == 0) {
    throw std::invalid_argument("Standardizer::fit: empty dataset");
  }
  const std::size_t d = data.num_features();
  const auto n = static_cast<double>(data.size());
  Standardizer s;
  s.mean_.assign(d, 0.0);
  s.stddev_.assign(d, 0.0);
  for (const auto& row : data.x) {
    for (std::size_t j = 0; j < d; ++j) s.mean_[j] += row[j];
  }
  for (std::size_t j = 0; j < d; ++j) s.mean_[j] /= n;
  for (const auto& row : data.x) {
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = row[j] - s.mean_[j];
      s.stddev_[j] += diff * diff;
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    s.stddev_[j] = std::sqrt(s.stddev_[j] / n);
    if (s.stddev_[j] < 1e-12) s.stddev_[j] = 1.0;  // constant column
  }
  return s;
}

std::vector<double> Standardizer::transform(
    std::span<const double> sample) const {
  if (sample.size() != mean_.size()) {
    throw std::invalid_argument("Standardizer::transform: width mismatch");
  }
  std::vector<double> out(sample.size());
  for (std::size_t j = 0; j < sample.size(); ++j) {
    out[j] = (sample[j] - mean_[j]) / stddev_[j];
  }
  return out;
}

Dataset Standardizer::transform_all(const Dataset& data) const {
  Dataset out;
  out.y = data.y;
  out.x.reserve(data.size());
  for (const auto& row : data.x) out.x.push_back(transform(row));
  return out;
}

Standardizer Standardizer::from_moments(std::vector<double> means,
                                        std::vector<double> stddevs) {
  if (means.size() != stddevs.size()) {
    throw std::invalid_argument("Standardizer::from_moments: size mismatch");
  }
  Standardizer s;
  s.mean_ = std::move(means);
  s.stddev_ = std::move(stddevs);
  return s;
}

SplitResult train_test_split(const Dataset& data, double train_fraction,
                             std::uint64_t seed) {
  data.validate();
  if (train_fraction < 0.0 || train_fraction > 1.0) {
    throw std::invalid_argument("train_test_split: fraction out of [0,1]");
  }
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  graph::Xoshiro256ss rng(seed);
  for (std::size_t i = idx.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_bounded(i));
    std::swap(idx[i - 1], idx[j]);
  }
  const auto cut = static_cast<std::size_t>(
      train_fraction * static_cast<double>(data.size()));
  SplitResult r;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    auto& dst = (k < cut) ? r.train : r.test;
    dst.add(data.x[idx[k]], data.y[idx[k]]);
  }
  return r;
}

}  // namespace bfsx::ml
