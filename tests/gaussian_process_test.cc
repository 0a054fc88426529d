#include "src/surrogate/gaussian_process.h"

#include <cmath>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/linalg/matrix.h"
#include "src/surrogate/surrogate.h"
#include "src/surrogate/kernel.h"

namespace hypertune {
namespace {

/// 1-D test function on the unit interval.
double Objective(double x) { return std::sin(6.0 * x) + 0.5 * x; }

/// A one-column design matrix holding `values`.
Matrix Column(const std::vector<double>& values) {
  Matrix x(values.size(), 1);
  for (size_t i = 0; i < values.size(); ++i) x(i, 0) = values[i];
  return x;
}

/// `n` uniform points on [0, 1) from `seed`, with Objective targets.
std::pair<Matrix, std::vector<double>> UniformData(size_t n, uint64_t seed) {
  Matrix x(n, 1);
  std::vector<double> y;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    y.push_back(Objective(x(i, 0)));
  }
  return {x, y};
}

TEST(KernelTest, SelfCovarianceIsSignalVariance) {
  Matern52Kernel k({0.5, 0.5}, 2.0);
  std::vector<double> x = {0.3, 0.7};
  EXPECT_DOUBLE_EQ(k(x, x), 2.0);
}

TEST(KernelTest, DecaysWithDistance) {
  Matern52Kernel k({0.5}, 1.0);
  double near = k({0.0}, {0.1});
  double far = k({0.0}, {0.9});
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);
}

TEST(KernelTest, ArdLengthscalesWeightDimensions) {
  // Long lengthscale in dim 0 -> distance along dim 0 matters less.
  Matern52Kernel k({10.0, 0.1}, 1.0);
  double along_insensitive = k({0.0, 0.0}, {0.5, 0.0});
  double along_sensitive = k({0.0, 0.0}, {0.0, 0.5});
  EXPECT_GT(along_insensitive, along_sensitive);
}

TEST(KernelTest, GramMatrixIsSymmetricWithUnitDiagonal) {
  Matern52Kernel k({0.5}, 1.5);
  Matrix gram = k.GramMatrix(Column({0.1, 0.4, 0.9}));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(gram(i, i), 1.5);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
    }
  }
}

TEST(GaussianProcessTest, RejectsBadInput) {
  GaussianProcess gp;
  EXPECT_EQ(gp.Fit(Matrix(), {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gp.Fit(Matrix(0, 2), {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gp.Fit(Column({0.1}), {1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(gp.Fit(Column({0.1, 0.2, 0.3}), {1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(gp.fitted());
}

TEST(GaussianProcessTest, InterpolatesTrainingData) {
  Matrix x(13, 1);
  std::vector<double> y;
  for (size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = static_cast<double>(i) / 12.0;
    y.push_back(Objective(x(i, 0)));
  }
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_TRUE(gp.fitted());
  EXPECT_EQ(gp.num_observations(), 13u);
  for (size_t i = 0; i < x.rows(); ++i) {
    Prediction p = gp.Predict({x(i, 0)});
    EXPECT_NEAR(p.mean, y[i], 0.12);
  }
}

TEST(GaussianProcessTest, GeneralizesBetweenPoints) {
  Matrix x(21, 1);
  std::vector<double> y;
  for (size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = static_cast<double>(i) / 20.0;
    y.push_back(Objective(x(i, 0)));
  }
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y).ok());
  for (double v : {0.12, 0.47, 0.81}) {
    Prediction p = gp.Predict({v});
    EXPECT_NEAR(p.mean, Objective(v), 0.2) << "at " << v;
  }
}

TEST(GaussianProcessTest, VarianceGrowsAwayFromData) {
  Matrix x = Column({0.4, 0.45, 0.5, 0.55, 0.6});
  std::vector<double> y;
  for (size_t i = 0; i < x.rows(); ++i) y.push_back(Objective(x(i, 0)));
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y).ok());
  double var_inside = gp.Predict({0.5}).variance;
  double var_outside = gp.Predict({0.0}).variance;
  EXPECT_GT(var_outside, var_inside);
}

TEST(GaussianProcessTest, HyperparameterFitImprovesLikelihood) {
  Matrix x(25, 1);
  std::vector<double> y;
  Rng rng(5);
  for (size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.Uniform();
    y.push_back(Objective(x(i, 0)) + 0.01 * rng.Gaussian());
  }
  GaussianProcessOptions fixed;
  fixed.optimize_hyperparameters = false;
  GaussianProcess gp_fixed(fixed);
  ASSERT_TRUE(gp_fixed.Fit(x, y).ok());

  GaussianProcess gp_opt;  // optimization on by default
  ASSERT_TRUE(gp_opt.Fit(x, y).ok());
  EXPECT_GE(gp_opt.log_marginal_likelihood(),
            gp_fixed.log_marginal_likelihood());
}

TEST(GaussianProcessTest, DeterministicGivenSeed) {
  auto [x, y] = UniformData(15, 6);
  GaussianProcessOptions options;
  options.seed = 11;
  GaussianProcess a(options), b(options);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  Prediction pa = a.Predict({0.33});
  Prediction pb = b.Predict({0.33});
  EXPECT_DOUBLE_EQ(pa.mean, pb.mean);
  EXPECT_DOUBLE_EQ(pa.variance, pb.variance);
}

TEST(GaussianProcessTest, SubsamplesBeyondCap) {
  GaussianProcessOptions options;
  options.max_points = 50;
  options.num_restarts = 2;
  options.refine_sweeps = 0;
  GaussianProcess gp(options);
  auto [x, y] = UniformData(200, 7);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_EQ(gp.num_observations(), 50u);
  // Still a sane model.
  EXPECT_NEAR(gp.Predict({0.5}).mean, Objective(0.5), 0.4);
}

TEST(GaussianProcessTest, CapKeepsTheRowsCapTrainingSetSelects) {
  // The GP subsamples through the shared cap: a capped fit must equal a
  // fit on exactly the rows CapTrainingSet keeps (fixed hyper-parameters,
  // so the restart seed, which counts all rows, plays no part).
  GaussianProcessOptions options;
  options.optimize_hyperparameters = false;
  options.max_points = 50;
  auto [x, y] = UniformData(200, 7);
  GaussianProcess capped(options);
  ASSERT_TRUE(capped.Fit(x, y).ok());

  const std::vector<size_t> keep = CapTrainingSet(y, 50);
  ASSERT_EQ(keep.size(), 50u);
  std::vector<double> kept_y;
  for (size_t i : keep) kept_y.push_back(y[i]);
  GaussianProcess reference(options);
  ASSERT_TRUE(reference.Fit(x.SelectRows(keep), kept_y).ok());

  EXPECT_DOUBLE_EQ(capped.log_marginal_likelihood(),
                   reference.log_marginal_likelihood());
  for (double v : {0.05, 0.3, 0.5, 0.77, 0.95}) {
    Prediction pc = capped.Predict({v});
    Prediction pr = reference.Predict({v});
    EXPECT_DOUBLE_EQ(pc.mean, pr.mean) << "at " << v;
    EXPECT_DOUBLE_EQ(pc.variance, pr.variance) << "at " << v;
  }
}

TEST(GaussianProcessTest, ConstantTargetsHandled) {
  Matrix x = Column({0.1, 0.5, 0.9});
  std::vector<double> y = {2.0, 2.0, 2.0};
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_NEAR(gp.Predict({0.3}).mean, 2.0, 1e-6);
}

TEST(GaussianProcessTest, ClampedKernelParamsClampsOutOfBounds) {
  // Regression: the likelihood search clamps phi before scoring, and the
  // install path must apply the same clamps — a wildly out-of-bounds phi
  // may never be installed verbatim.
  KernelPhiParams p = ClampedKernelParams({10.0, -20.0, 10.0, -20.0}, 2);
  EXPECT_DOUBLE_EQ(p.lengthscales[0], std::exp(4.0));
  EXPECT_DOUBLE_EQ(p.lengthscales[1], std::exp(-6.0));
  EXPECT_DOUBLE_EQ(p.signal_variance, std::exp(4.0));
  EXPECT_DOUBLE_EQ(p.noise_variance, std::exp(-12.0));

  // In-bounds phi passes through as plain exp().
  KernelPhiParams q = ClampedKernelParams({0.5, -1.0, 0.0, -4.0}, 2);
  EXPECT_DOUBLE_EQ(q.lengthscales[0], std::exp(0.5));
  EXPECT_DOUBLE_EQ(q.lengthscales[1], std::exp(-1.0));
  EXPECT_DOUBLE_EQ(q.signal_variance, 1.0);
  EXPECT_DOUBLE_EQ(q.noise_variance, std::exp(-4.0));
}

TEST(GaussianProcessTest, FitInstallsInBoundsParameters) {
  auto [x, y] = UniformData(30, 9);
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit(x, y).ok());
  // Installed parameters always lie in the clamped (scored) region.
  for (double l : gp.lengthscales()) {
    EXPECT_GE(l, std::exp(-6.0));
    EXPECT_LE(l, std::exp(4.0));
  }
  EXPECT_GE(gp.signal_variance(), std::exp(-6.0));
  EXPECT_LE(gp.signal_variance(), std::exp(4.0));
  EXPECT_GE(gp.noise_variance(), std::exp(-12.0));
  EXPECT_LE(gp.noise_variance(), std::exp(2.0));
}

TEST(GaussianProcessTest, RestartSeedDerivedFromTotalCount) {
  // Regression: the restart RNG used to be seeded with the kept
  // (post-subsample) count, which is constant (== max_points) for every
  // capped fit — successive refits re-explored identical restart sequences.
  GaussianProcessOptions options;
  options.seed = 11;
  options.max_points = 50;
  options.num_restarts = 2;
  options.refine_sweeps = 0;
  GaussianProcess a(options), b(options);
  auto [xa, ya] = UniformData(60, 7);
  auto [xb, yb] = UniformData(61, 7);
  ASSERT_TRUE(a.Fit(xa, ya).ok());
  ASSERT_TRUE(b.Fit(xb, yb).ok());
  EXPECT_EQ(a.num_observations(), 50u);
  EXPECT_EQ(b.num_observations(), 50u);
  // The seed reflects the total observation count, not the kept count.
  EXPECT_EQ(a.last_restart_seed(), CombineSeeds(11, 60));
  EXPECT_EQ(b.last_restart_seed(), CombineSeeds(11, 61));
  EXPECT_NE(a.last_restart_seed(), b.last_restart_seed());
}

TEST(GaussianProcessTest, KernelCachePreservesBitsAndCountsHits) {
  Matrix x(20, 2);
  std::vector<double> y;
  Rng rng(13);
  for (size_t i = 0; i < x.rows(); ++i) {
    double v = rng.Uniform();
    x(i, 0) = v;
    x(i, 1) = v * v;
    y.push_back(Objective(v));
  }
  GaussianProcessOptions plain;
  plain.seed = 3;
  GaussianProcessOptions cached = plain;
  cached.kernel_cache = std::make_shared<KernelBlockCache>();

  GaussianProcess gp_plain(plain), gp_cached(cached);
  ASSERT_TRUE(gp_plain.Fit(x, y).ok());
  ASSERT_TRUE(gp_cached.Fit(x, y).ok());

  // One miss builds the blocks; the whole likelihood search shares that one
  // lookup, so no hits yet.
  EXPECT_EQ(cached.kernel_cache->misses(), 1u);
  EXPECT_EQ(cached.kernel_cache->hits(), 0u);

  // The cache must not perturb a single bit of the fit.
  EXPECT_DOUBLE_EQ(gp_plain.log_marginal_likelihood(),
                   gp_cached.log_marginal_likelihood());
  for (double v : {0.1, 0.45, 0.8}) {
    Prediction pp = gp_plain.Predict({v, v * v});
    Prediction pc = gp_cached.Predict({v, v * v});
    EXPECT_DOUBLE_EQ(pp.mean, pc.mean);
    EXPECT_DOUBLE_EQ(pp.variance, pc.variance);
  }

  // A second fit on the same data reuses the entry outright.
  GaussianProcess gp_again(cached);
  ASSERT_TRUE(gp_again.Fit(x, y).ok());
  EXPECT_EQ(cached.kernel_cache->misses(), 1u);
  EXPECT_EQ(cached.kernel_cache->hits(), 1u);
  EXPECT_DOUBLE_EQ(gp_again.log_marginal_likelihood(),
                   gp_cached.log_marginal_likelihood());
}

TEST(KernelTest, FingerprintSensitiveToShapeAndValues) {
  auto filled = [](size_t rows, size_t cols, std::vector<double> values) {
    Matrix m(rows, cols);
    m.data() = std::move(values);
    return m;
  };
  uint64_t base = KernelBlockCache::Fingerprint(filled(2, 2, {1, 2, 3, 4}));
  // Same data block, different shape.
  EXPECT_NE(base, KernelBlockCache::Fingerprint(filled(1, 4, {1, 2, 3, 4})));
  EXPECT_NE(base, KernelBlockCache::Fingerprint(filled(4, 1, {1, 2, 3, 4})));
  EXPECT_NE(base, KernelBlockCache::Fingerprint(filled(2, 2, {1, 2, 3, 5})));
  EXPECT_EQ(base, KernelBlockCache::Fingerprint(filled(2, 2, {1, 2, 3, 4})));
}

}  // namespace
}  // namespace hypertune
