#include "src/allocator/fidelity_weights.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/surrogate/surrogate.h"

namespace hypertune {
namespace {

/// Positions of `data` kept when it is capped at `max_points` (see
/// CapTrainingSet).
std::vector<size_t> CapPositions(const std::vector<Measurement>& data,
                                 size_t max_points) {
  std::vector<double> objectives;
  objectives.reserve(data.size());
  for (const Measurement& m : data) objectives.push_back(m.objective);
  return CapTrainingSet(objectives, max_points);
}

/// Exact content key of a measurement sequence: every configuration value
/// and objective, in order, compared bit for bit.
std::vector<double> ContentKey(const std::vector<Measurement>& data,
                               const std::vector<size_t>& positions) {
  std::vector<double> key;
  for (size_t pos : positions) {
    const Measurement& m = data[pos];
    key.insert(key.end(), m.config.values().begin(), m.config.values().end());
    key.push_back(m.objective);
  }
  return key;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<Measurement> Select(const std::vector<Measurement>& data,
                                const std::vector<size_t>& positions) {
  std::vector<Measurement> out;
  out.reserve(positions.size());
  for (size_t pos : positions) out.push_back(data[pos]);
  return out;
}

}  // namespace

/// Computes fresh theta estimates and keeps what they were computed from,
/// so that work whose inputs did not change is not redone (see the class
/// comment of FidelityWeights).
class FidelityWeights::Estimator {
 public:
  Estimator(const ConfigurationSpace* space, FidelityWeightsOptions options)
      : space_(space), options_(options) {
    HT_CHECK(space_ != nullptr) << "FidelityWeights needs a space";
    factory_ = [seed = options_.seed, categorical = space_->CategoricalMask()] {
      return MakeSurrogate(SurrogateKind::kRandomForest, seed, categorical);
    };
  }

  /// True when `other` computes the same estimates: same space, and every
  /// option but the refresh cadence matches.
  bool SameAs(const Estimator& other) const {
    const FidelityWeightsOptions& o = other.options_;
    return other.space_ == space_ &&
           o.bootstrap_samples == options_.bootstrap_samples &&
           o.cv_folds == options_.cv_folds &&
           o.min_points_low == options_.min_points_low &&
           o.min_points_high == options_.min_points_high &&
           o.max_eval_points == options_.max_eval_points &&
           o.max_fit_points == options_.max_fit_points &&
           o.seed == options_.seed;
  }

  /// Writes the estimate for the store's current measurements.
  void Estimate(const MeasurementStore& store, std::vector<double>* theta,
                bool* used_ranking_loss);

  const ThetaEstimateStats& stats() const { return stats_; }

 private:
  /// A low-fidelity base surrogate and the exact data it was fitted on.
  struct LevelFit {
    std::vector<double> key;
    std::unique_ptr<Surrogate> model;  // null: too little data or failed
  };

  /// The ranking-loss estimate of Eq. (2); false when no surrogate
  /// produced predictions.
  bool RankingLossTheta(const MeasurementStore& store,
                        std::vector<double>* theta);

  const ConfigurationSpace* space_;
  FidelityWeightsOptions options_;
  SurrogateFactory factory_;
  ThetaEstimateStats stats_;

  /// The last estimate and the store state it describes (store ids start
  /// at 1).
  uint64_t last_store_ = 0;
  uint64_t last_version_ = 0;
  std::vector<double> last_theta_;
  bool last_used_ranking_loss_ = false;

  std::vector<LevelFit> level_fits_;  // levels 1..K-1; index 0 <-> level 1
  std::vector<double> cv_key_;
  std::vector<double> cv_predictions_;
};

void FidelityWeights::Estimator::Estimate(const MeasurementStore& store,
                                          std::vector<double>* theta,
                                          bool* used_ranking_loss) {
  const int num_levels = store.num_levels();
  if (last_store_ == store.id() && last_version_ == store.data_version()) {
    ++stats_.shared;
    *theta = last_theta_;
    *used_ranking_loss = last_used_ranking_loss_;
    return;
  }
  ++stats_.estimates;

  theta->assign(static_cast<size_t>(num_levels), 0.0);
  *used_ranking_loss = false;
  if (store.group(num_levels).size() < options_.min_points_high ||
      num_levels == 1) {
    // Data-availability fallback: uniform over levels that have data.
    size_t with_data = 0;
    for (int level = 1; level <= num_levels; ++level) {
      if (store.group(level).size() >= options_.min_points_low) ++with_data;
    }
    for (int level = 1; level <= num_levels; ++level) {
      if (with_data > 0) {
        (*theta)[static_cast<size_t>(level - 1)] =
            store.group(level).size() >= options_.min_points_low
                ? 1.0 / static_cast<double>(with_data)
                : 0.0;
      } else {
        (*theta)[static_cast<size_t>(level - 1)] =
            1.0 / static_cast<double>(num_levels);
      }
    }
  } else if (RankingLossTheta(store, theta)) {
    *used_ranking_loss = true;
  } else {
    // Every surrogate failed to produce predictions: trust D_K only.
    (*theta)[static_cast<size_t>(num_levels - 1)] = 1.0;
  }

  last_store_ = store.id();
  last_version_ = store.data_version();
  last_theta_ = *theta;
  last_used_ranking_loss_ = *used_ranking_loss;
}

bool FidelityWeights::Estimator::RankingLossTheta(
    const MeasurementStore& store, std::vector<double>* theta) {
  const int num_levels = store.num_levels();
  const auto& high_group = store.group(num_levels);
  Rng rng(CombineSeeds(options_.seed, store.data_version()));

  // Evaluation subset of D_K (caps the O(S n^2) pair counting).
  std::vector<size_t> eval_positions;
  if (high_group.size() <= options_.max_eval_points) {
    eval_positions.resize(high_group.size());
    for (size_t i = 0; i < high_group.size(); ++i) eval_positions[i] = i;
  } else {
    eval_positions = rng.SampleWithoutReplacement(high_group.size(),
                                                  options_.max_eval_points);
  }
  const std::vector<Measurement> eval_at = Select(high_group, eval_positions);
  const Matrix eval_x = EncodeMeasurements(*space_, eval_at);
  std::vector<double> truths;
  truths.reserve(eval_at.size());
  for (const Measurement& m : eval_at) truths.push_back(m.objective);

  // Predictions of each base surrogate at the evaluation subset.
  std::vector<std::vector<double>> predictions(
      static_cast<size_t>(num_levels));
  level_fits_.resize(static_cast<size_t>(num_levels - 1));
  for (int level = 1; level < num_levels; ++level) {
    const auto& group = store.group(level);
    const std::vector<size_t> kept =
        CapPositions(group, options_.max_fit_points);
    LevelFit& fit = level_fits_[static_cast<size_t>(level - 1)];
    std::vector<double> key = ContentKey(group, kept);
    if (SameBits(key, fit.key)) {
      ++stats_.level_fit_reuses;
    } else {
      ++stats_.level_fits;
      fit.model = FitSurrogate(*space_, Select(group, kept), factory_);
      fit.key = std::move(key);
    }
    predictions[static_cast<size_t>(level - 1)] =
        PredictMeans(fit.model.get(), eval_x);
  }
  std::vector<double> eval_key = ContentKey(high_group, eval_positions);
  if (SameBits(eval_key, cv_key_)) {
    ++stats_.cv_reuses;
  } else {
    ++stats_.cv_runs;
    cv_predictions_ = CrossValidationPredictions(
        eval_x, truths, options_.cv_folds, factory_, options_.seed);
    cv_key_ = std::move(eval_key);
  }
  predictions[static_cast<size_t>(num_levels - 1)] = cv_predictions_;

  std::vector<int> levels;
  std::vector<PairDisagreements> tables;
  for (int level = 1; level <= num_levels; ++level) {
    const auto& preds = predictions[static_cast<size_t>(level - 1)];
    if (preds.empty()) continue;
    levels.push_back(level);
    tables.emplace_back(preds, truths);
  }

  // Bootstrap "MCMC" estimate of Eq. (2): resample the evaluation subset;
  // the surrogate with minimum loss on a resample collects a vote; theta_i
  // is its vote share.
  const size_t n = eval_at.size();
  int votes_total = 0;
  std::vector<int> votes(static_cast<size_t>(num_levels), 0);
  std::vector<int32_t> counts(n);
  std::vector<int> winners;
  for (int s = 0; s < options_.bootstrap_samples; ++s) {
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      ++counts[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1))];
    }
    int64_t best_loss = std::numeric_limits<int64_t>::max();
    winners.clear();
    for (size_t t = 0; t < tables.size(); ++t) {
      int64_t loss = tables[t].Loss(counts);
      if (loss < best_loss) {
        best_loss = loss;
        winners.assign(1, levels[t]);
      } else if (loss == best_loss) {
        winners.push_back(levels[t]);
      }
    }
    if (winners.empty()) continue;
    int winner = winners[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(winners.size()) - 1))];
    ++votes[static_cast<size_t>(winner - 1)];
    ++votes_total;
  }
  if (votes_total == 0) return false;
  for (int level = 1; level <= num_levels; ++level) {
    (*theta)[static_cast<size_t>(level - 1)] =
        static_cast<double>(votes[static_cast<size_t>(level - 1)]) /
        static_cast<double>(votes_total);
  }
  return true;
}

FidelityWeights::FidelityWeights(const ConfigurationSpace* space,
                                 FidelityWeightsOptions options)
    : estimator_(std::make_shared<Estimator>(space, options)),
      refresh_interval_(options.refresh_interval) {}

FidelityWeights::~FidelityWeights() = default;

void FidelityWeights::ShareEstimatesWith(const FidelityWeights& other) {
  HT_CHECK(estimator_->SameAs(*other.estimator_))
      << "FidelityWeights: can only share an identically configured "
         "estimator";
  estimator_ = other.estimator_;
}

const ThetaEstimateStats& FidelityWeights::estimate_stats() const {
  return estimator_->stats();
}

void FidelityWeights::Snapshot(WireEncoder* enc) const {
  enc->PutDoubles(cached_theta_);
  enc->PutU64(cached_version_);
  enc->PutU64(static_cast<uint64_t>(cached_high_size_));
  enc->PutI32(cached_levels_);
  enc->PutBool(used_ranking_loss_);
}

Status FidelityWeights::Restore(WireDecoder* dec) {
  std::vector<double> theta;
  uint64_t version = 0;
  uint64_t high_size = 0;
  int32_t levels = 0;
  bool used = false;
  HT_RETURN_IF_ERROR(dec->GetDoubles(&theta));
  HT_RETURN_IF_ERROR(dec->GetU64(&version));
  HT_RETURN_IF_ERROR(dec->GetU64(&high_size));
  HT_RETURN_IF_ERROR(dec->GetI32(&levels));
  HT_RETURN_IF_ERROR(dec->GetBool(&used));
  if (levels < 0) {
    return Status::InvalidArgument("fidelity weights: negative level count");
  }
  cached_theta_ = std::move(theta);
  cached_version_ = version;
  cached_high_size_ = static_cast<size_t>(high_size);
  cached_levels_ = levels;
  used_ranking_loss_ = used;
  return Status::Ok();
}

const std::vector<double>& FidelityWeights::ComputeTheta(
    const MeasurementStore& store) {
  const int num_levels = store.num_levels();
  const size_t high_size = store.group(num_levels).size();
  // Reuse the cache unless the data changed enough: a fresh estimate is
  // forced when the ladder changed, and otherwise only after
  // `refresh_interval` new measurements or new high-fidelity data.
  if (cached_levels_ == num_levels && !cached_theta_.empty()) {
    bool high_grown = high_size >= cached_high_size_ + 4;
    bool stale = store.data_version() >= cached_version_ + refresh_interval_;
    if (!high_grown && !stale) return cached_theta_;
  }
  estimator_->Estimate(store, &cached_theta_, &used_ranking_loss_);
  cached_version_ = store.data_version();
  cached_high_size_ = high_size;
  cached_levels_ = num_levels;
  return cached_theta_;
}

}  // namespace hypertune
