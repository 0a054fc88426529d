#ifndef HYPERTUNE_ALLOCATOR_FIDELITY_WEIGHTS_H_
#define HYPERTUNE_ALLOCATOR_FIDELITY_WEIGHTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/allocator/ranking_loss.h"
#include "src/common/status.h"
#include "src/config/space.h"
#include "src/runtime/measurement_store.h"
#include "src/runtime/wire_format.h"

namespace hypertune {

/// Options for the theta estimation of §4.1.
struct FidelityWeightsOptions {
  /// Bootstrap samples S drawn in the MCMC estimate of Eq. (2).
  int bootstrap_samples = 50;
  /// Folds for M_K's cross-validated ranking loss.
  int cv_folds = 5;
  /// Minimum measurements a low-fidelity group needs before its surrogate
  /// participates.
  size_t min_points_low = 3;
  /// Minimum |D_K| before ranking losses are meaningful; below this a
  /// data-availability fallback is used.
  size_t min_points_high = 5;
  /// Ranking losses are evaluated on at most this many D_K points (a
  /// seeded random subset) to bound the O(S * n^2) pair counting.
  size_t max_eval_points = 64;
  /// Low-fidelity base surrogates are fitted on at most this many points.
  size_t max_fit_points = 400;
  /// Recompute theta only after this many new measurements arrived since
  /// the last estimate (1 = every completion). Amortizes the surrogate
  /// refits; theta drifts slowly, so a small lag is harmless.
  uint64_t refresh_interval = 8;
  uint64_t seed = 0;
};

/// Counters of one theta estimator, for tests and diagnostics.
struct ThetaEstimateStats {
  /// Estimates computed (ranking-loss or fallback).
  uint64_t estimates = 0;
  /// Requests answered with the estimate already made at the same store
  /// version (possibly for another FidelityWeights sharing the estimator).
  uint64_t shared = 0;
  /// Low-fidelity base surrogates fitted, and reused because their capped
  /// group D_i was unchanged.
  uint64_t level_fits = 0;
  uint64_t level_fit_reuses = 0;
  /// Cross-validations of M_K run, and reused because the evaluation
  /// subset was unchanged.
  uint64_t cv_runs = 0;
  uint64_t cv_reuses = 0;
};

/// Estimates theta_1..K — the probability that base surrogate M_i (trained
/// on measurement group D_i) ranks configurations most consistently with
/// the ground-truth high-fidelity group D_K (Eq. 1 + Eq. 2).
///
/// Procedure (per §4.1): fit M_i on D_i for i < K and take its predictive
/// ranking on D_K's configurations; for M_K use 5-fold cross-validation.
/// Then draw S bootstrap resamples of D_K; sample s yields losses
/// l_{i,s}; theta_i is the fraction of samples in which M_i attains the
/// minimum loss (ties split uniformly at random).
///
/// Fallback before |D_K| >= min_points_high: theta is uniform over the
/// levels that already have min_points_low measurements (so early search is
/// guided by whatever fidelity has data), or uniform over all levels when
/// none do.
///
/// Two consumers read theta: the MFES ensemble surrogate (Eq. 3) and the
/// bracket selector (w = c o theta). Each owns a FidelityWeights with its
/// own refresh cadence: an instance serves its cached theta until
/// `refresh_interval` new measurements or 4 new D_K points arrived, and
/// that lag shapes the run's trajectory (see Snapshot). A fresh estimate is
/// a pure function of the store's measurements (its Rng is seeded from
/// data_version()), so the two instances can share one estimator
/// (ShareEstimatesWith), which does each piece of work once per input:
///   * a second request at the same store version returns the estimate
///     already made;
///   * M_i (i < K) stays fitted while its capped group D_i is unchanged,
///     and is only re-predicted at the new evaluation subset;
///   * M_K's cross-validated predictions stay while the evaluation subset
///     is unchanged.
/// Reuse is keyed on exact content (configuration values and objective
/// bits, in order), never on group sizes: MeasurementStore::Add overwrites
/// a re-measured configuration's objective in place.
///
/// Not thread-safe, and neither is a shared estimator: every instance that
/// shares one must be driven from one serialized caller (the scheduler's
/// decision path).
class FidelityWeights {
 public:
  FidelityWeights(const ConfigurationSpace* space,
                  FidelityWeightsOptions options);
  ~FidelityWeights();

  /// Returns theta (size = store.num_levels(), sums to 1).
  const std::vector<double>& ComputeTheta(const MeasurementStore& store);

  /// Makes this instance take its fresh estimates from `other`'s estimator
  /// (and its caches). Both must use the same space and the same options
  /// apart from refresh_interval; the refresh cadence stays per instance.
  void ShareEstimatesWith(const FidelityWeights& other);

  /// True when the last ComputeTheta used ranking losses (not the
  /// data-availability fallback). For tests and diagnostics.
  bool used_ranking_loss() const { return used_ranking_loss_; }

  /// Counters of the (possibly shared) estimator.
  const ThetaEstimateStats& estimate_stats() const;

  /// Serializes the theta cache. The cache is trajectory-bearing: theta is
  /// refreshed only every `refresh_interval` store versions, so a resumed
  /// run must keep serving the same (deliberately lagged) estimate the
  /// original run was holding — recomputing eagerly at the restore point
  /// would hand the bracket selector a different distribution and diverge
  /// from replay. Each recomputation itself is deterministic (seeded from
  /// the store version), so the cache fields are the entire mutable state;
  /// the estimator's reuse caches only save work and are not serialized.
  void Snapshot(WireEncoder* enc) const;

  /// Restores state produced by Snapshot() on an identically configured
  /// instance.
  [[nodiscard]] Status Restore(WireDecoder* dec);

 private:
  class Estimator;

  std::shared_ptr<Estimator> estimator_;
  uint64_t refresh_interval_;

  std::vector<double> cached_theta_;
  uint64_t cached_version_ = ~uint64_t{0};
  size_t cached_high_size_ = 0;
  int cached_levels_ = 0;
  bool used_ranking_loss_ = false;
};

}  // namespace hypertune

#endif  // HYPERTUNE_ALLOCATOR_FIDELITY_WEIGHTS_H_
