#include "src/core/tuner_factory.h"

#include <gtest/gtest.h>

#include "src/optimizer/mfes_sampler.h"
#include "src/problems/counting_ones.h"

namespace hypertune {
namespace {

std::vector<Method> AllMethods() {
  return {Method::kARandom,          Method::kBatchBo,
          Method::kABo,              Method::kARea,
          Method::kSha,              Method::kAsha,
          Method::kDasha,            Method::kHyperband,
          Method::kAHyperband,       Method::kBohb,
          Method::kABohb,            Method::kMfesHb,
          Method::kHyperTune,        Method::kHyperTuneNoBs,
          Method::kHyperTuneNoDasha, Method::kHyperTuneNoMfes,
          Method::kAHyperbandBs,     Method::kABohbBs,
          Method::kAHyperbandDasha,  Method::kABohbDasha};
}

TEST(TunerFactoryTest, MethodNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (Method m : AllMethods()) {
    std::string name = MethodName(m);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(TunerFactoryTest, PaperMethodsMatchesSection51) {
  std::vector<Method> methods = PaperMethods();
  EXPECT_EQ(methods.size(), 11u);  // ten baselines + Hyper-Tune
  EXPECT_EQ(methods.back(), Method::kHyperTune);
}

class TunerFactoryMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(TunerFactoryMethodTest, CreatesAndRunsOnSmallBudget) {
  CountingOnesOptions problem_options;
  problem_options.num_categorical = 3;
  problem_options.num_continuous = 3;
  problem_options.max_samples = 27.0;
  CountingOnes problem(problem_options);

  TunerFactoryOptions factory;
  factory.method = GetParam();
  factory.seed = 11;
  factory.batch_size = 4;
  std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
  ASSERT_NE(tuner, nullptr);
  EXPECT_EQ(tuner->method_name(), MethodName(GetParam()));

  ClusterOptions cluster;
  cluster.num_workers = 4;
  cluster.time_budget_seconds = 600.0;
  cluster.seed = 12;
  RunResult result = tuner->Run(problem, cluster);
  EXPECT_GT(result.history.num_trials(), 5u)
      << MethodName(GetParam()) << " made too little progress";
  // Every recorded trial respects the resource bounds.
  for (const TrialRecord& t : result.history.trials()) {
    EXPECT_GE(t.job.resource, problem.min_resource() - 1e-9);
    EXPECT_LE(t.job.resource, problem.max_resource() + 1e-9);
    EXPECT_TRUE(problem.space().Validate(t.job.config).ok());
  }
  // The store saw every completed measurement.
  EXPECT_GE(tuner->store()->TotalSize(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, TunerFactoryMethodTest, ::testing::ValuesIn(AllMethods()),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name = MethodName(info.param);
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
        else out += '_';
      }
      return out;
    });

TEST(TunerFactoryTest, FullFidelityMethodsUseSingleLevelStore) {
  CountingOnes problem;
  for (Method m : {Method::kARandom, Method::kBatchBo, Method::kABo,
                   Method::kARea}) {
    TunerFactoryOptions factory;
    factory.method = m;
    std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
    EXPECT_EQ(tuner->store()->num_levels(), 1) << MethodName(m);
  }
}

TEST(TunerFactoryTest, HbMethodsUseLadderStore) {
  CountingOnes problem;  // min 1, max 729, eta 3 -> 7 levels, capped at 4
  TunerFactoryOptions factory;
  factory.method = Method::kHyperTune;
  factory.max_brackets = 4;
  std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
  EXPECT_EQ(tuner->store()->num_levels(), 4);
}

TEST(TunerFactoryTest, HyperTuneThetaConsumersShareEstimates) {
  CountingOnesOptions problem_options;
  problem_options.num_categorical = 4;
  problem_options.num_continuous = 4;
  CountingOnes problem(problem_options);
  TunerFactoryOptions factory;
  factory.method = Method::kHyperTune;
  factory.seed = 3;
  std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
  ClusterOptions cluster;
  cluster.num_workers = 6;
  cluster.time_budget_seconds = 1e9;
  cluster.max_trials = 300;
  tuner->Run(problem, cluster);
  const auto* sampler = dynamic_cast<const MfesSampler*>(tuner->sampler());
  ASSERT_NE(sampler, nullptr);
  // The bracket selector's estimator is the sampler's: requests from both
  // consumers land on one set of counters, and some of them repeat a
  // store version the other consumer already estimated.
  const ThetaEstimateStats& stats = sampler->weights().estimate_stats();
  EXPECT_GT(stats.estimates, 0u);
  EXPECT_GT(stats.shared, 0u);
  EXPECT_GT(stats.level_fit_reuses, 0u);
}

TEST(TunerFactoryTest, TunerIsSingleUse) {
  CountingOnes problem;
  TunerFactoryOptions factory;
  factory.method = Method::kARandom;
  std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
  ClusterOptions cluster;
  cluster.num_workers = 2;
  cluster.time_budget_seconds = 10.0;
  tuner->Run(problem, cluster);
  EXPECT_DEATH(tuner->Run(problem, cluster), "single-use");
}

TEST(TunerFactoryTest, BestTrialFindsMinimum) {
  CountingOnes problem;
  TunerFactoryOptions factory;
  factory.method = Method::kARandom;
  factory.seed = 13;
  std::unique_ptr<Tuner> tuner = CreateTuner(problem, factory);
  ClusterOptions cluster;
  cluster.num_workers = 4;
  cluster.time_budget_seconds = 20000.0;
  RunResult result = tuner->Run(problem, cluster);
  const std::optional<TrialRecord> best = BestTrial(result);
  ASSERT_TRUE(best.has_value());
  for (const TrialRecord& t : result.history.trials()) {
    EXPECT_GE(t.result.objective, best->result.objective);
  }
  EXPECT_DOUBLE_EQ(best->result.objective, result.history.best_objective());
}

TEST(TunerFactoryTest, BestTrialNullOnEmptyRun) {
  RunResult empty;
  EXPECT_FALSE(BestTrial(empty).has_value());
}

}  // namespace
}  // namespace hypertune
