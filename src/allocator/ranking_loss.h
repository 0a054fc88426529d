#ifndef HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_
#define HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/config/space.h"
#include "src/runtime/measurement_store.h"
#include "src/surrogate/surrogate.h"

namespace hypertune {

/// Factory producing fresh, unfitted surrogates (one per base model fit).
using SurrogateFactory = std::function<std::unique_ptr<Surrogate>()>;

/// Eq. (1): number of mis-ranked pairs between `predictions` and ground
/// truth `truths` over all ordered pairs (j, k):
///   L = sum_j sum_k 1[(pred_j < pred_k) XOR (y_j < y_k)].
/// Requires equal sizes.
int64_t CountMisrankedPairs(const std::vector<double>& predictions,
                            const std::vector<double>& truths);

/// The ordered-pair disagreements of Eq. (1) between one set of
/// predictions and the truths, tabulated once so that every bootstrap
/// resample of Eq. (2) is scored without comparing values again: entry
/// (j, k) is 1[(pred_j < pred_k) XOR (y_j < y_k)].
class PairDisagreements {
 public:
  /// Requires equal sizes.
  PairDisagreements(const std::vector<double>& predictions,
                    const std::vector<double>& truths);

  /// Ranking loss on the resample that holds index i `counts[i]` times:
  /// sum_{j,k} counts[j] * counts[k] * disagree(j, k), the value
  /// CountMisrankedPairs takes on the resample's predictions and truths.
  /// Requires counts.size() == the size given at construction.
  int64_t Loss(const std::vector<int32_t>& counts) const;

 private:
  size_t n_;
  std::vector<int32_t> disagree_;  // row-major n x n
};

/// The configurations of `measurements` encoded through `space`, one row
/// each, in order.
Matrix EncodeMeasurements(const ConfigurationSpace& space,
                          const std::vector<Measurement>& measurements);

/// Fits a fresh surrogate on `fit_on`. Returns null when `fit_on` is too
/// small (< 2) or the fit fails.
std::unique_ptr<Surrogate> FitSurrogate(const ConfigurationSpace& space,
                                        const std::vector<Measurement>& fit_on,
                                        const SurrogateFactory& factory);

/// Mean predictions of `model` at the encoded rows of `eval_x` (one
/// PredictBatch pass); empty when `model` is null.
std::vector<double> PredictMeans(const Surrogate* model, const Matrix& eval_x);

/// K-fold cross-validated predictions of a surrogate on its own data
/// (§4.1: "for the base surrogate M_K trained on D_K directly, we adopt
/// 5-fold cross-validation"): design matrix `x` with targets `y`. Element
/// i is the prediction for row i from the fold that held it out. Returns
/// an empty vector when there are fewer rows than folds or a fold fit
/// fails.
std::vector<double> CrossValidationPredictions(const Matrix& x,
                                               const std::vector<double>& y,
                                               int folds,
                                               const SurrogateFactory& factory,
                                               uint64_t seed);

}  // namespace hypertune

#endif  // HYPERTUNE_ALLOCATOR_RANKING_LOSS_H_
