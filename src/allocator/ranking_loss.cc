#include "src/allocator/ranking_loss.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace hypertune {

int64_t CountMisrankedPairs(const std::vector<double>& predictions,
                            const std::vector<double>& truths) {
  HT_CHECK(predictions.size() == truths.size())
      << "ranking loss: size mismatch";
  int64_t loss = 0;
  size_t n = predictions.size();
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < n; ++k) {
      bool pred_less = predictions[j] < predictions[k];
      bool true_less = truths[j] < truths[k];
      if (pred_less != true_less) ++loss;
    }
  }
  return loss;
}

PairDisagreements::PairDisagreements(const std::vector<double>& predictions,
                                     const std::vector<double>& truths)
    : n_(predictions.size()), disagree_(n_ * n_) {
  HT_CHECK(predictions.size() == truths.size())
      << "ranking loss: size mismatch";
  for (size_t j = 0; j < n_; ++j) {
    for (size_t k = 0; k < n_; ++k) {
      bool pred_less = predictions[j] < predictions[k];
      bool true_less = truths[j] < truths[k];
      disagree_[j * n_ + k] = pred_less != true_less ? 1 : 0;
    }
  }
}

int64_t PairDisagreements::Loss(const std::vector<int32_t>& counts) const {
  HT_CHECK(counts.size() == n_) << "ranking loss: count size mismatch";
  int64_t loss = 0;
  for (size_t j = 0; j < n_; ++j) {
    if (counts[j] == 0) continue;
    const int32_t* row = disagree_.data() + j * n_;
    // A row sum is at most sum(counts), the resample size.
    int32_t row_loss = 0;
    for (size_t k = 0; k < n_; ++k) row_loss += row[k] * counts[k];
    loss += static_cast<int64_t>(counts[j]) * row_loss;
  }
  return loss;
}

Matrix EncodeMeasurements(const ConfigurationSpace& space,
                          const std::vector<Measurement>& measurements) {
  Matrix x(measurements.size(), space.size());
  for (size_t i = 0; i < measurements.size(); ++i) {
    space.EncodeInto(measurements[i].config, x.row(i));
  }
  return x;
}

std::unique_ptr<Surrogate> FitSurrogate(const ConfigurationSpace& space,
                                        const std::vector<Measurement>& fit_on,
                                        const SurrogateFactory& factory) {
  if (fit_on.size() < 2) return nullptr;
  std::vector<double> y;
  y.reserve(fit_on.size());
  for (const Measurement& m : fit_on) y.push_back(m.objective);
  std::unique_ptr<Surrogate> model = factory();
  if (!model->Fit(EncodeMeasurements(space, fit_on), y).ok()) return nullptr;
  return model;
}

std::vector<double> PredictMeans(const Surrogate* model, const Matrix& eval_x) {
  if (model == nullptr) return {};
  std::vector<double> means;
  means.reserve(eval_x.rows());
  for (const Prediction& p : model->PredictBatch(eval_x)) {
    means.push_back(p.mean);
  }
  return means;
}

std::vector<double> CrossValidationPredictions(const Matrix& x,
                                               const std::vector<double>& y,
                                               int folds,
                                               const SurrogateFactory& factory,
                                               uint64_t seed) {
  HT_CHECK(x.rows() == y.size()) << "cross-validation: |x| != |y|";
  size_t n = x.rows();
  if (folds < 2 || n < static_cast<size_t>(folds)) return {};

  // Shuffled fold assignment for an unbiased split.
  Rng rng(CombineSeeds(seed, n));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);

  std::vector<double> predictions(n, 0.0);
  for (int fold = 0; fold < folds; ++fold) {
    std::vector<size_t> train;
    std::vector<double> train_y;
    std::vector<size_t> held_out;
    for (size_t pos = 0; pos < n; ++pos) {
      size_t idx = order[pos];
      if (static_cast<int>(pos % static_cast<size_t>(folds)) == fold) {
        held_out.push_back(idx);
      } else {
        train.push_back(idx);
        train_y.push_back(y[idx]);
      }
    }
    if (train.size() < 2) return {};
    std::unique_ptr<Surrogate> model = factory();
    if (!model->Fit(x.SelectRows(train), train_y).ok()) return {};
    std::vector<double> means =
        PredictMeans(model.get(), x.SelectRows(held_out));
    for (size_t i = 0; i < held_out.size(); ++i) {
      predictions[held_out[i]] = means[i];
    }
  }
  return predictions;
}

}  // namespace hypertune
