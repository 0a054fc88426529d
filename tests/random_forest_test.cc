#include "src/surrogate/random_forest.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/linalg/matrix.h"

namespace hypertune {
namespace {

double Smooth2d(double a, double b) {
  return (a - 0.3) * (a - 0.3) + 2.0 * (b - 0.7) * (b - 0.7);
}

TEST(RandomForestTest, RejectsBadInput) {
  RandomForest rf;
  EXPECT_EQ(rf.Fit(Matrix(), {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rf.Fit(Matrix(0, 2), {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rf.Fit(Matrix(1, 1, 0.1), {1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(rf.Fit(Matrix(3, 1, 0.1), {1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(rf.fitted());
  RandomForest rf2;
  rf2.SetCategoricalFeatures({true});  // dim mismatch vs 2-feature data
  EXPECT_EQ(rf2.Fit(Matrix(2, 2, 0.5), {1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(rf2.fitted());
}

TEST(RandomForestTest, FitsSmoothFunction) {
  Matrix x(400, 2);
  std::vector<double> y;
  Rng rng(1);
  for (size_t i = 0; i < x.rows(); ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x(i, 0) = a;
    x(i, 1) = b;
    y.push_back(Smooth2d(a, b));
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(x, y).ok());
  EXPECT_TRUE(rf.fitted());

  double total_abs_err = 0.0;
  Rng test_rng(2);
  const int n_test = 100;
  for (int i = 0; i < n_test; ++i) {
    double a = test_rng.Uniform(), b = test_rng.Uniform();
    total_abs_err += std::abs(rf.Predict({a, b}).mean - Smooth2d(a, b));
  }
  EXPECT_LT(total_abs_err / n_test, 0.15);
}

TEST(RandomForestTest, IdentifiesTheMinimumRegion) {
  Matrix x(500, 2);
  std::vector<double> y;
  Rng rng(3);
  for (size_t i = 0; i < x.rows(); ++i) {
    double a = rng.Uniform(), b = rng.Uniform();
    x(i, 0) = a;
    x(i, 1) = b;
    y.push_back(Smooth2d(a, b));
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(x, y).ok());
  double at_min = rf.Predict({0.3, 0.7}).mean;
  double far = rf.Predict({0.95, 0.05}).mean;
  EXPECT_LT(at_min, far);
}

TEST(RandomForestTest, CategoricalSplitSeparatesGroups) {
  // Feature 0 categorical with encoded values {0.25, 0.75}; target depends
  // only on the category.
  Matrix x(200, 2);
  std::vector<double> y;
  Rng rng(4);
  for (size_t i = 0; i < x.rows(); ++i) {
    bool group = rng.Bernoulli(0.5);
    x(i, 0) = group ? 0.75 : 0.25;
    x(i, 1) = rng.Uniform();
    y.push_back(group ? 5.0 : -5.0);
  }
  RandomForest rf;
  rf.SetCategoricalFeatures({true, false});
  ASSERT_TRUE(rf.Fit(x, y).ok());
  EXPECT_NEAR(rf.Predict({0.75, 0.5}).mean, 5.0, 0.5);
  EXPECT_NEAR(rf.Predict({0.25, 0.5}).mean, -5.0, 0.5);
}

TEST(RandomForestTest, VarianceHigherInNoisyRegion) {
  // Left half: constant target. Right half: very noisy target.
  Matrix x(600, 1);
  std::vector<double> y;
  Rng rng(5);
  for (size_t i = 0; i < x.rows(); ++i) {
    double a = rng.Uniform();
    x(i, 0) = a;
    y.push_back(a < 0.5 ? 1.0 : rng.Gaussian(1.0, 3.0));
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(x, y).ok());
  EXPECT_GT(rf.Predict({0.9}).variance, rf.Predict({0.1}).variance);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  Matrix x(100, 1);
  std::vector<double> y;
  Rng rng(6);
  for (size_t i = 0; i < x.rows(); ++i) {
    double a = rng.Uniform();
    x(i, 0) = a;
    y.push_back(Smooth2d(a, a));
  }
  RandomForestOptions options;
  options.seed = 17;
  RandomForest a(options), b(options);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  Prediction pa = a.Predict({0.42});
  Prediction pb = b.Predict({0.42});
  EXPECT_DOUBLE_EQ(pa.mean, pb.mean);
  EXPECT_DOUBLE_EQ(pa.variance, pb.variance);
}

TEST(RandomForestTest, SingleSampleBecomesLeaf) {
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(Matrix(1, 1, 0.5), {3.0}).ok());
  Prediction p = rf.Predict({0.1});
  EXPECT_DOUBLE_EQ(p.mean, 3.0);
}

TEST(RandomForestTest, CapLimitsTrainingSize) {
  RandomForestOptions options;
  options.max_points = 64;
  RandomForest rf(options);
  Matrix x(1000, 1);
  std::vector<double> y;
  Rng rng(8);
  for (size_t i = 0; i < x.rows(); ++i) {
    double a = rng.Uniform();
    x(i, 0) = a;
    y.push_back(Smooth2d(a, 0.7));
  }
  ASSERT_TRUE(rf.Fit(x, y).ok());
  // Prediction remains reasonable despite the cap.
  EXPECT_NEAR(rf.Predict({0.3}).mean, Smooth2d(0.3, 0.7), 0.5);
}

TEST(RandomForestTest, PredictiveVarianceIsPositive) {
  Matrix x(50, 1);
  std::vector<double> y;
  Rng rng(9);
  for (size_t i = 0; i < x.rows(); ++i) {
    double a = rng.Uniform();
    x(i, 0) = a;
    y.push_back(a);
  }
  RandomForest rf;
  ASSERT_TRUE(rf.Fit(x, y).ok());
  for (double v : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_GT(rf.Predict({v}).variance, 0.0);
  }
}

/// FNV-1a over the bit patterns of every PredictBatch mean and variance of
/// a forest fitted on fixed mixed categorical/numeric data: features 0 and
/// 1 are categorical in {0, 1, 2}, features 2..4 numeric in [0, 1).
uint64_t ForestPredictionDigest(RandomForestOptions options, int n) {
  Rng rng(31);
  Matrix x(static_cast<size_t>(n), 5);
  std::vector<double> y;
  for (size_t i = 0; i < x.rows(); ++i) {
    double* row = x.row(i);
    row[0] = static_cast<double>(rng.UniformInt(0, 2));
    row[1] = static_cast<double>(rng.UniformInt(0, 2));
    for (size_t c = 2; c < 5; ++c) row[c] = rng.Uniform();
    y.push_back((row[0] == 1.0 ? -1.0 : 0.0) + 0.5 * row[1] +
                Smooth2d(row[2], row[3]) + 0.1 * rng.Uniform());
  }
  RandomForest rf(options);
  rf.SetCategoricalFeatures({true, true, false, false, false});
  EXPECT_TRUE(rf.Fit(x, y).ok());
  Matrix at(64, 5);
  for (size_t r = 0; r < at.rows(); ++r) {
    at(r, 0) = static_cast<double>(rng.UniformInt(0, 2));
    at(r, 1) = static_cast<double>(rng.UniformInt(0, 2));
    for (size_t c = 2; c < 5; ++c) at(r, c) = rng.Uniform();
  }
  uint64_t hash = 1469598103934665603ULL;
  auto mix_double = [&hash](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    hash ^= bits;
    hash *= 1099511628211ULL;
  };
  for (const Prediction& p : rf.PredictBatch(at)) {
    mix_double(p.mean);
    mix_double(p.variance);
  }
  return hash;
}

// Pins the exact output of the fit kernel, so that layout or allocation
// changes inside Fit are provably bit-identical.
TEST(RandomForestTest, PredictionsMatchPinnedDigest) {
  RandomForestOptions options;
  options.seed = 5;
  EXPECT_EQ(ForestPredictionDigest(options, 300), 10921897743278751210ULL);
  options.bootstrap = false;
  EXPECT_EQ(ForestPredictionDigest(options, 300), 8428439233652704508ULL);
  options.bootstrap = true;
  options.max_points = 150;  // n > max_points takes the cap path
  EXPECT_EQ(ForestPredictionDigest(options, 400), 3289362216176239408ULL);
}

}  // namespace
}  // namespace hypertune
