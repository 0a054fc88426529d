#include "src/allocator/ranking_loss.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/allocator/fidelity_weights.h"
#include "src/common/rng.h"
#include "src/surrogate/random_forest.h"

namespace hypertune {
namespace {

SurrogateFactory RfFactory(uint64_t seed) {
  return [seed]() -> std::unique_ptr<Surrogate> {
    RandomForestOptions options;
    options.seed = seed;
    return std::make_unique<RandomForest>(options);
  };
}

TEST(CountMisrankedPairsTest, PerfectRankingHasZeroLoss) {
  EXPECT_EQ(CountMisrankedPairs({1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}), 0);
}

TEST(CountMisrankedPairsTest, ReversedRankingHasMaxLoss) {
  // All 6 ordered pairs with j != k are mis-ranked.
  EXPECT_EQ(CountMisrankedPairs({3.0, 2.0, 1.0}, {10.0, 20.0, 30.0}), 6);
}

TEST(CountMisrankedPairsTest, SingleSwapCountsTwice) {
  // Ordered-pair double counting: one swapped adjacent pair -> loss 2.
  EXPECT_EQ(CountMisrankedPairs({2.0, 1.0, 3.0}, {10.0, 20.0, 30.0}), 2);
}

TEST(CountMisrankedPairsTest, EmptyInputs) {
  EXPECT_EQ(CountMisrankedPairs({}, {}), 0);
}

TEST(PairDisagreementsTest, SubsetRestrictsPairs) {
  PairDisagreements table({3.0, 2.0, 1.0}, {10.0, 20.0, 30.0});
  // Only indices {0, 1}: the pair (0, 1) is mis-ranked in both directions.
  EXPECT_EQ(table.Loss({1, 1, 0}), 2);
  // Repeated index contributes self-pairs, which never mis-rank.
  EXPECT_EQ(table.Loss({2, 0, 0}), 0);
}

TEST(PairDisagreementsTest, MatchesCountOnExpandedResamples) {
  // Ties in both predictions and truths make the table asymmetric.
  Rng rng(21);
  const size_t n = 40;
  std::vector<double> pred(n), truth(n);
  for (size_t i = 0; i < n; ++i) {
    pred[i] = static_cast<double>(rng.UniformInt(0, 9));
    truth[i] = static_cast<double>(rng.UniformInt(0, 14));
  }
  PairDisagreements table(pred, truth);
  for (int s = 0; s < 20; ++s) {
    std::vector<int32_t> counts(n, 0);
    std::vector<double> resampled_pred, resampled_truth;
    for (size_t i = 0; i < n; ++i) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, n - 1));
      ++counts[pick];
      resampled_pred.push_back(pred[pick]);
      resampled_truth.push_back(truth[pick]);
    }
    EXPECT_EQ(table.Loss(counts),
              CountMisrankedPairs(resampled_pred, resampled_truth));
  }
}

TEST(FitSurrogateTest, LearnsRanking) {
  ConfigurationSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0)).ok());
  std::vector<Measurement> fit_on;
  Rng rng(1);
  for (int i = 0; i < 80; ++i) {
    double v = rng.Uniform();
    fit_on.push_back({Configuration({v}), v});  // objective = x
  }
  std::vector<Measurement> eval_at;
  for (double v : {0.1, 0.5, 0.9}) {
    eval_at.push_back({Configuration({v}), v});
  }
  std::unique_ptr<Surrogate> model = FitSurrogate(space, fit_on, RfFactory(2));
  ASSERT_NE(model, nullptr);
  std::vector<double> pred =
      PredictMeans(model.get(), EncodeMeasurements(space, eval_at));
  ASSERT_EQ(pred.size(), 3u);
  EXPECT_LT(pred[0], pred[1]);
  EXPECT_LT(pred[1], pred[2]);
}

TEST(FitSurrogateTest, TooLittleDataGivesNoModel) {
  ConfigurationSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0)).ok());
  std::vector<Measurement> one = {{Configuration({0.5}), 1.0}};
  std::vector<Measurement> eval_at = {{Configuration({0.1}), 0.1}};
  EXPECT_EQ(FitSurrogate(space, one, RfFactory(3)), nullptr);
  EXPECT_TRUE(
      PredictMeans(nullptr, EncodeMeasurements(space, eval_at)).empty());
}

TEST(CrossValidationPredictionsTest, ShapeAndSanity) {
  ConfigurationSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0)).ok());
  std::vector<Measurement> data;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    double v = rng.Uniform();
    data.push_back({Configuration({v}), v});
  }
  std::vector<double> truths;
  for (const Measurement& m : data) truths.push_back(m.objective);
  std::vector<double> pred = CrossValidationPredictions(
      EncodeMeasurements(space, data), truths, 5, RfFactory(5), 6);
  ASSERT_EQ(pred.size(), data.size());
  // Held-out predictions should still broadly rank the data correctly.
  int64_t loss = CountMisrankedPairs(pred, truths);
  int64_t max_loss = static_cast<int64_t>(data.size() * data.size());
  EXPECT_LT(loss, max_loss / 4);
}

TEST(CrossValidationPredictionsTest, TooFewPointsReturnsEmpty) {
  ConfigurationSpace space;
  ASSERT_TRUE(space.Add(Parameter::Float("x", 0.0, 1.0)).ok());
  std::vector<Measurement> data = {{Configuration({0.1}), 0.1},
                                   {Configuration({0.9}), 0.9}};
  EXPECT_TRUE(CrossValidationPredictions(EncodeMeasurements(space, data),
                                         {0.1, 0.9}, 5, RfFactory(7), 8)
                  .empty());
}

class FidelityWeightsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(space_.Add(Parameter::Float("x", 0.0, 1.0)).ok());
    ASSERT_TRUE(space_.Add(Parameter::Float("y", 0.0, 1.0)).ok());
  }

  double Truth(const Configuration& c) const {
    return (c[0] - 0.4) * (c[0] - 0.4) + (c[1] - 0.6) * (c[1] - 0.6);
  }

  ConfigurationSpace space_;
};

TEST_F(FidelityWeightsTest, FallbackBeforeHighFidelityData) {
  MeasurementStore store(3);
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1, c, Truth(c));
  }
  FidelityWeightsOptions options;
  options.seed = 10;
  FidelityWeights weights(&space_, options);
  std::vector<double> theta = weights.ComputeTheta(store);
  ASSERT_EQ(theta.size(), 3u);
  EXPECT_FALSE(weights.used_ranking_loss());
  // All mass on level 1 (the only level with data).
  EXPECT_NEAR(theta[0], 1.0, 1e-9);
  EXPECT_NEAR(theta[1], 0.0, 1e-9);
}

TEST_F(FidelityWeightsTest, InformativeLowFidelityEarnsWeight) {
  MeasurementStore store(2);
  Rng rng(11);
  // Level 1 is a faithful (noise-free) proxy of the truth; D_K is smaller.
  for (int i = 0; i < 60; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1, c, Truth(c));
  }
  for (int i = 0; i < 15; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(2, c, Truth(c));
  }
  FidelityWeightsOptions options;
  options.seed = 12;
  FidelityWeights weights(&space_, options);
  std::vector<double> theta = weights.ComputeTheta(store);
  ASSERT_EQ(theta.size(), 2u);
  EXPECT_TRUE(weights.used_ranking_loss());
  EXPECT_GT(theta[0], 0.2);  // the faithful low fidelity earns real weight
}

TEST_F(FidelityWeightsTest, MisleadingLowFidelityLosesWeight) {
  MeasurementStore store(2);
  Rng rng(13);
  // Level 1 is anti-correlated with the truth; level 2 is the truth.
  for (int i = 0; i < 60; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1, c, -Truth(c));
  }
  for (int i = 0; i < 30; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(2, c, Truth(c));
  }
  FidelityWeightsOptions options;
  options.seed = 14;
  FidelityWeights weights(&space_, options);
  std::vector<double> theta = weights.ComputeTheta(store);
  ASSERT_EQ(theta.size(), 2u);
  EXPECT_TRUE(weights.used_ranking_loss());
  EXPECT_LT(theta[0], 0.25);
  EXPECT_GT(theta[1], 0.75);
}

TEST_F(FidelityWeightsTest, ThetaSumsToOneAndCaches) {
  MeasurementStore store(2);
  Rng rng(15);
  for (int i = 0; i < 40; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1 + i % 2, c, Truth(c));
  }
  FidelityWeightsOptions options;
  options.seed = 16;
  FidelityWeights weights(&space_, options);
  const std::vector<double>& theta1 = weights.ComputeTheta(store);
  double sum = 0.0;
  for (double t : theta1) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Unchanged store: the same cached object is returned.
  const std::vector<double>& theta2 = weights.ComputeTheta(store);
  EXPECT_EQ(&theta1, &theta2);
}

/// A three-level store: L1 and L2 are noisy proxies of the truth, L3 is
/// the truth on fewer points.
void FillThreeLevels(const ConfigurationSpace& space,
                     double (*truth)(const Configuration&),
                     MeasurementStore* store) {
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    Configuration c = space.Sample(&rng);
    store->Add(1, c, truth(c) + 0.05 * rng.Gaussian());
  }
  for (int i = 0; i < 30; ++i) {
    Configuration c = space.Sample(&rng);
    store->Add(2, c, truth(c) + 0.02 * rng.Gaussian());
  }
  for (int i = 0; i < 20; ++i) {
    Configuration c = space.Sample(&rng);
    store->Add(3, c, truth(c));
  }
}

double Bowl(const Configuration& c) {
  return (c[0] - 0.4) * (c[0] - 0.4) + (c[1] - 0.6) * (c[1] - 0.6);
}

/// theta of a fresh, cache-free instance on `store`.
std::vector<double> FreshTheta(const ConfigurationSpace& space,
                               const FidelityWeightsOptions& options,
                               const MeasurementStore& store) {
  FidelityWeights fresh(&space, options);
  return fresh.ComputeTheta(store);
}

TEST_F(FidelityWeightsTest, OverwrittenLowFidelityObjectiveRefitsThatLevel) {
  MeasurementStore store(3);
  FillThreeLevels(space_, Bowl, &store);
  FidelityWeightsOptions options;
  options.seed = 18;
  options.refresh_interval = 1;
  FidelityWeights weights(&space_, options);
  ASSERT_EQ(weights.ComputeTheta(store), FreshTheta(space_, options, store));
  ASSERT_TRUE(weights.used_ranking_loss());

  // Re-measure an L1 configuration: |D_1| is unchanged, its content is not.
  const Configuration config = store.group(1)[7].config;
  store.Add(1, config, 50.0);
  ASSERT_EQ(store.group(1).size(), 60u);
  const ThetaEstimateStats before = weights.estimate_stats();
  EXPECT_EQ(weights.ComputeTheta(store), FreshTheta(space_, options, store));
  const ThetaEstimateStats& after = weights.estimate_stats();
  EXPECT_EQ(after.estimates, before.estimates + 1);
  EXPECT_EQ(after.level_fits, before.level_fits + 1);              // L1
  EXPECT_EQ(after.level_fit_reuses, before.level_fit_reuses + 1);  // L2
  EXPECT_EQ(after.cv_reuses, before.cv_reuses + 1);  // D_3 unchanged
}

TEST_F(FidelityWeightsTest, OverwrittenHighFidelityObjectiveRerunsCv) {
  MeasurementStore store(3);
  FillThreeLevels(space_, Bowl, &store);
  FidelityWeightsOptions options;
  options.seed = 19;
  options.refresh_interval = 1;
  FidelityWeights weights(&space_, options);
  ASSERT_EQ(weights.ComputeTheta(store), FreshTheta(space_, options, store));

  const Configuration config = store.group(3)[4].config;
  store.Add(3, config, -5.0);
  ASSERT_EQ(store.group(3).size(), 20u);
  const ThetaEstimateStats before = weights.estimate_stats();
  EXPECT_EQ(weights.ComputeTheta(store), FreshTheta(space_, options, store));
  const ThetaEstimateStats& after = weights.estimate_stats();
  EXPECT_EQ(after.cv_runs, before.cv_runs + 1);
  EXPECT_EQ(after.level_fit_reuses, before.level_fit_reuses + 2);
}

TEST_F(FidelityWeightsTest, NewDataReusesOnlyUnchangedWork) {
  MeasurementStore store(3);
  FillThreeLevels(space_, Bowl, &store);
  FidelityWeightsOptions options;
  options.seed = 20;
  options.refresh_interval = 1;
  FidelityWeights weights(&space_, options);
  Rng rng(21);
  for (int i = 0; i < 12; ++i) {
    Configuration c = space_.Sample(&rng);
    store.Add(1 + i % 3, c, Bowl(c));
    EXPECT_EQ(weights.ComputeTheta(store), FreshTheta(space_, options, store))
        << "after measurement " << i;
  }
  const ThetaEstimateStats& stats = weights.estimate_stats();
  EXPECT_EQ(stats.estimates, 12u);
  // L1 changes at i = 0, 3, 6, 9, L2 at 1, 4, 7, 10, D_3 at 2, 5, 8, 11;
  // the first estimate (i = 0) fits everything.
  EXPECT_EQ(stats.level_fits, 2u + 3u + 4u);
  EXPECT_EQ(stats.level_fit_reuses, 24u - 9u);
  EXPECT_EQ(stats.cv_runs, 1u + 4u);
  EXPECT_EQ(stats.cv_reuses, 12u - 5u);
}

TEST_F(FidelityWeightsTest, SharedEstimatorComputesEachVersionOnce) {
  MeasurementStore store(3);
  FillThreeLevels(space_, Bowl, &store);
  FidelityWeightsOptions options;
  options.seed = 22;
  FidelityWeights sampler_side(&space_, options);
  FidelityWeightsOptions lagged = options;
  lagged.refresh_interval = 3;  // cadence is per instance
  FidelityWeights selector_side(&space_, lagged);
  selector_side.ShareEstimatesWith(sampler_side);

  const std::vector<double> expected = FreshTheta(space_, options, store);
  EXPECT_EQ(sampler_side.ComputeTheta(store), expected);
  EXPECT_EQ(selector_side.ComputeTheta(store), expected);
  EXPECT_TRUE(selector_side.used_ranking_loss());
  EXPECT_EQ(sampler_side.estimate_stats().estimates, 1u);
  EXPECT_EQ(sampler_side.estimate_stats().shared, 1u);

  // The same data version in another store is different data.
  MeasurementStore other(3);
  FillThreeLevels(space_, [](const Configuration& c) { return -Bowl(c); },
                  &other);
  ASSERT_EQ(other.data_version(), store.data_version());
  FidelityWeights third(&space_, options);
  third.ShareEstimatesWith(sampler_side);
  EXPECT_EQ(third.ComputeTheta(other), FreshTheta(space_, options, other));
  EXPECT_EQ(sampler_side.estimate_stats().estimates, 2u);
}

TEST_F(FidelityWeightsTest, SharingNeedsIdenticalEstimates) {
  FidelityWeightsOptions options;
  options.seed = 23;
  FidelityWeights a(&space_, options);
  options.seed = 24;
  FidelityWeights b(&space_, options);
  EXPECT_DEATH(b.ShareEstimatesWith(a), "identically configured");
}

}  // namespace
}  // namespace hypertune
