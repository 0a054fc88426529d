#include "src/surrogate/surrogate.h"

#include <algorithm>
#include <utility>

#include "src/surrogate/gaussian_process.h"
#include "src/surrogate/random_forest.h"

namespace hypertune {

std::vector<Prediction> Surrogate::PredictBatch(const Matrix& x) const {
  std::vector<Prediction> out;
  out.reserve(x.rows());
  std::vector<double> row(x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* src = x.row(r);
    row.assign(src, src + x.cols());
    out.push_back(Predict(row));
  }
  return out;
}

std::vector<size_t> CapTrainingSet(const std::vector<double>& values,
                                   size_t max_points) {
  std::vector<size_t> keep;
  if (values.size() <= max_points) {
    keep.resize(values.size());
    for (size_t i = 0; i < values.size(); ++i) keep[i] = i;
    return keep;
  }
  std::vector<size_t> by_value(values.size());
  for (size_t i = 0; i < values.size(); ++i) by_value[i] = i;
  std::sort(by_value.begin(), by_value.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<bool> selected(values.size(), false);
  size_t kept = 0;
  for (size_t i = 0; i < max_points / 2; ++i) {
    selected[by_value[i]] = true;
    ++kept;
  }
  for (size_t i = values.size(); i > 0 && kept < max_points; --i) {
    if (!selected[i - 1]) {
      selected[i - 1] = true;
      ++kept;
    }
  }
  keep.reserve(kept);
  for (size_t i = 0; i < values.size(); ++i) {
    if (selected[i]) keep.push_back(i);
  }
  return keep;
}

std::unique_ptr<Surrogate> MakeSurrogate(
    SurrogateKind kind, uint64_t seed, std::vector<bool> categorical,
    std::shared_ptr<KernelBlockCache> kernel_cache) {
  if (kind == SurrogateKind::kGaussianProcess) {
    GaussianProcessOptions gp;
    gp.seed = seed;
    gp.kernel_cache = std::move(kernel_cache);
    return std::make_unique<GaussianProcess>(gp);
  }
  RandomForestOptions rf;
  rf.seed = seed;
  auto forest = std::make_unique<RandomForest>(rf);
  forest->SetCategoricalFeatures(std::move(categorical));
  return forest;
}

}  // namespace hypertune
