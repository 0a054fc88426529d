#ifndef HYPERTUNE_SURROGATE_SURROGATE_H_
#define HYPERTUNE_SURROGATE_SURROGATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/linalg/matrix.h"

namespace hypertune {

class KernelBlockCache;

/// Posterior prediction of a probabilistic surrogate at one input point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
};

/// Interface of probabilistic regression surrogates M: p(f | D).
///
/// This is the paper's "fit and predict APIs for surrogate model" (§4.3):
/// every optimizer interacts with surrogates only through this interface,
/// which is what makes the multi-fidelity ensemble and the drop-in
/// replacement of optimizers possible.
///
/// Fit and PredictBatch share one layout: a row-major Matrix with one
/// unit-cube-encoded configuration per row (ConfigurationSpace::EncodeInto).
/// Outputs are raw objective values with *lower is better* convention.
/// Implementations standardize targets internally.
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Fits the model on design matrix `x` (n rows, d columns) and targets
  /// `y` (n values). Refitting replaces previous state.
  [[nodiscard]] virtual Status Fit(const Matrix& x,
                                   const std::vector<double>& y) = 0;

  /// Posterior mean/variance at `x`. Requires fitted().
  virtual Prediction Predict(const std::vector<double>& x) const = 0;

  /// Posterior mean/variance for a batch of inputs, one encoded candidate
  /// per row of `x`. Requires fitted(). Result row i is bit-identical to
  /// Predict(row i) — implementations override this with a single-pass
  /// GEMM-shaped evaluation but must preserve per-candidate arithmetic
  /// order; the base implementation is the per-row loop itself.
  virtual std::vector<Prediction> PredictBatch(const Matrix& x) const;

  /// True once Fit succeeded with at least one observation.
  virtual bool fitted() const = 0;

  /// Number of observations the model was fitted on (0 if unfitted).
  virtual size_t num_observations() const = 0;
};

/// Positions of `values` kept when a training set is capped at
/// `max_points`: the best (lowest) half, then the most recent positions up
/// to the cap (data arrives in completion order), in ascending order. All
/// positions when values.size() <= max_points.
std::vector<size_t> CapTrainingSet(const std::vector<double>& values,
                                   size_t max_points);

/// Which probabilistic model a model-based sampler fits.
enum class SurrogateKind {
  kRandomForest,     ///< robust default for mixed/categorical spaces
  kGaussianProcess,  ///< preferable for small continuous spaces
};

/// A fresh, unfitted surrogate of `kind` with default options and `seed`.
/// The forest splits the dimensions flagged in `categorical` by equality
/// (ConfigurationSpace::CategoricalMask); the GP ignores the mask and shares
/// `kernel_cache` when it is set.
std::unique_ptr<Surrogate> MakeSurrogate(
    SurrogateKind kind, uint64_t seed, std::vector<bool> categorical,
    std::shared_ptr<KernelBlockCache> kernel_cache = nullptr);

}  // namespace hypertune

#endif  // HYPERTUNE_SURROGATE_SURROGATE_H_
