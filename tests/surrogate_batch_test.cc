#include "src/surrogate/surrogate.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/linalg/matrix.h"
#include "src/surrogate/gaussian_process.h"
#include "src/surrogate/kernel.h"
#include "src/surrogate/mfes_ensemble.h"
#include "src/surrogate/random_forest.h"

namespace hypertune {
namespace {

/// Multi-modal 2-D test function on the unit square.
double Objective(const std::vector<double>& x) {
  return std::sin(5.0 * x[0]) + 0.3 * std::cos(9.0 * x[1]) + 0.2 * x[0] * x[1];
}

struct TrainingData {
  Matrix x;
  std::vector<double> y;
};

TrainingData MakeData(size_t n, uint64_t seed) {
  TrainingData data;
  data.x = Matrix(n, 2);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p = {rng.Uniform(), rng.Uniform()};
    data.y.push_back(Objective(p) + 0.01 * rng.Gaussian());
    data.x(i, 0) = p[0];
    data.x(i, 1) = p[1];
  }
  return data;
}

Matrix MakeQueries(size_t m, uint64_t seed) {
  Rng rng(seed);
  Matrix q(m, 2);
  for (size_t r = 0; r < m; ++r) {
    q(r, 0) = rng.Uniform();
    q(r, 1) = rng.Uniform();
  }
  return q;
}

/// The core property behind golden-history stability: scoring candidates as
/// one batch must reproduce the per-candidate path bit for bit.
void ExpectBatchMatchesPerCandidate(const Surrogate& model, const Matrix& q) {
  std::vector<Prediction> batch = model.PredictBatch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (size_t r = 0; r < q.rows(); ++r) {
    std::vector<double> row = {q(r, 0), q(r, 1)};
    Prediction single = model.Predict(row);
    EXPECT_DOUBLE_EQ(batch[r].mean, single.mean) << "row " << r;
    EXPECT_DOUBLE_EQ(batch[r].variance, single.variance) << "row " << r;
  }
}

TEST(PredictBatchTest, GpBitIdenticalToPredict) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    TrainingData data = MakeData(40, seed);
    GaussianProcessOptions options;
    options.seed = seed;
    GaussianProcess gp(options);
    ASSERT_TRUE(gp.Fit(data.x, data.y).ok());
    ExpectBatchMatchesPerCandidate(gp, MakeQueries(64, seed + 100));
  }
}

TEST(PredictBatchTest, GpWithCacheBitIdenticalToPredict) {
  TrainingData data = MakeData(40, 4);
  GaussianProcessOptions options;
  options.seed = 4;
  options.kernel_cache = std::make_shared<KernelBlockCache>();
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(data.x, data.y).ok());
  ExpectBatchMatchesPerCandidate(gp, MakeQueries(64, 104));
}

TEST(PredictBatchTest, RandomForestBitIdenticalToPredict) {
  for (uint64_t seed : {5u, 6u}) {
    TrainingData data = MakeData(80, seed);
    RandomForestOptions options;
    options.seed = seed;
    RandomForest rf(options);
    ASSERT_TRUE(rf.Fit(data.x, data.y).ok());
    ExpectBatchMatchesPerCandidate(rf, MakeQueries(64, seed + 100));
  }
}

TEST(PredictBatchTest, MfesEnsembleBitIdenticalToPredict) {
  TrainingData low = MakeData(60, 7);
  TrainingData high = MakeData(25, 8);

  GaussianProcessOptions gp_options;
  gp_options.seed = 7;
  GaussianProcess gp(gp_options);
  ASSERT_TRUE(gp.Fit(high.x, high.y).ok());

  RandomForestOptions rf_options;
  rf_options.seed = 8;
  RandomForest rf(rf_options);
  ASSERT_TRUE(rf.Fit(low.x, low.y).ok());

  MfesEnsemble ensemble;
  ensemble.SetMembers({&rf, &gp}, {0.3, 0.7});
  ASSERT_TRUE(ensemble.fitted());
  ExpectBatchMatchesPerCandidate(ensemble, MakeQueries(64, 107));
}

TEST(PredictBatchTest, RepeatedCallsWithDifferentShapesStayBitIdentical) {
  // PredictBatch reuses a scratch matrix across calls; alternating query
  // sets of different sizes must not leak any state between calls (every
  // scratch entry is overwritten). Each call is checked against the
  // per-candidate path.
  TrainingData data = MakeData(40, 9);
  GaussianProcessOptions options;
  options.seed = 9;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(data.x, data.y).ok());
  ExpectBatchMatchesPerCandidate(gp, MakeQueries(64, 200));
  ExpectBatchMatchesPerCandidate(gp, MakeQueries(17, 201));  // shrink
  ExpectBatchMatchesPerCandidate(gp, MakeQueries(96, 202));  // grow
}

TEST(PredictBatchTest, CrossCovarianceOutParamMatchesReturningOverload) {
  TrainingData data = MakeData(30, 10);
  Matern52Kernel kernel({0.4, 0.7}, 1.3);
  Matrix q = MakeQueries(33, 210);
  Matrix returned = kernel.CrossCovariance(data.x, q);
  Matrix out(5, 5, 7.0);  // stale shape and contents must not matter
  kernel.CrossCovariance(data.x, q, &out);
  ASSERT_EQ(out.rows(), returned.rows());
  ASSERT_EQ(out.cols(), returned.cols());
  for (size_t i = 0; i < out.rows(); ++i) {
    for (size_t j = 0; j < out.cols(); ++j) {
      EXPECT_DOUBLE_EQ(out(i, j), returned(i, j)) << i << "," << j;
    }
  }
}

TEST(PredictBatchTest, DefaultImplementationCoversBaseClass) {
  // A surrogate that does not override PredictBatch still gets the exact
  // per-row loop via the base-class default.
  TrainingData data = MakeData(30, 9);
  GaussianProcessOptions options;
  options.seed = 9;
  GaussianProcess gp(options);
  ASSERT_TRUE(gp.Fit(data.x, data.y).ok());
  Matrix q = MakeQueries(8, 109);
  std::vector<Prediction> batch = gp.Surrogate::PredictBatch(q);
  std::vector<Prediction> fast = gp.PredictBatch(q);
  ASSERT_EQ(batch.size(), fast.size());
  for (size_t r = 0; r < batch.size(); ++r) {
    EXPECT_DOUBLE_EQ(batch[r].mean, fast[r].mean);
    EXPECT_DOUBLE_EQ(batch[r].variance, fast[r].variance);
  }
}

}  // namespace
}  // namespace hypertune
