// Hostile results: an evaluation that returns a non-finite objective (a
// diverged trial) must never crash a run or reach the scheduler. The trial
// lifecycle fails such an attempt as FailureKind::kInvalidResult with no
// retries remaining, so the default policy abandons the trial and the
// measurement store only ever holds finite objectives. Checked on the
// simulator and the thread backend, for the paper's method and its
// asynchronous Hyperband substrate, with the contract checker on.
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/core/tuner.h"
#include "src/core/tuner_factory.h"
#include "src/problems/counting_ones.h"
#include "src/report/run_report.h"

namespace hypertune {
namespace {

/// CountingOnes, except that every evaluation whose noise seed is a
/// multiple of seven returns `poison` as its objective.
class PoisonedOnes : public TuningProblem {
 public:
  explicit PoisonedOnes(double poison) : poison_(poison) {}

  std::string name() const override { return "poisoned-ones"; }
  const ConfigurationSpace& space() const override { return inner_.space(); }
  double min_resource() const override { return inner_.min_resource(); }
  double max_resource() const override { return inner_.max_resource(); }
  EvalOutcome Evaluate(const Configuration& config, double resource,
                       uint64_t noise_seed) const override {
    EvalOutcome outcome = inner_.Evaluate(config, resource, noise_seed);
    if (noise_seed % 7 == 0) outcome.objective = poison_;
    return outcome;
  }
  double EvaluationCost(const Configuration& config,
                        double resource) const override {
    return inner_.EvaluationCost(config, resource);
  }

 private:
  CountingOnes inner_;
  double poison_;
};

struct Case {
  Method method;
  double poison;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  std::string name =
      info.param.method == Method::kHyperTune ? "HyperTune" : "AHyperband";
  if (std::isnan(info.param.poison)) return name + "Nan";
  return name + (info.param.poison > 0 ? "PosInf" : "NegInf");
}

std::unique_ptr<Tuner> MakeTuner(const TuningProblem& problem, Method method,
                                 int num_workers) {
  TunerFactoryOptions factory;
  factory.method = method;
  factory.seed = 3;
  factory.batch_size = num_workers;
  return CreateTuner(problem, factory);
}

/// Every invalid attempt abandons its trial, nothing non-finite reached the
/// history or the store, and the failure accounting balances.
void ExpectInvalidResultsAbandoned(const RunResult& result, Tuner* tuner) {
  ASSERT_GT(result.invalid_result_attempts, 0);
  EXPECT_EQ(static_cast<int64_t>(result.history.num_failures_of_kind(
                FailureKind::kInvalidResult)),
            result.invalid_result_attempts);
  EXPECT_EQ(result.failed_attempts, result.invalid_result_attempts);
  EXPECT_EQ(result.failed_attempts, result.retries + result.failed_trials);
  EXPECT_EQ(result.retries, 0);
  ASSERT_GT(result.history.num_trials(), 0u);
  for (const TrialRecord& trial : result.history.trials()) {
    EXPECT_TRUE(std::isfinite(trial.result.objective));
  }
  MeasurementStore* store = tuner->store();
  for (int level = 1; level <= store->num_levels(); ++level) {
    for (const Measurement& m : store->group(level)) {
      EXPECT_TRUE(std::isfinite(m.objective));
    }
  }
  RunSummary summary = Summarize(result, store->num_levels());
  EXPECT_EQ(static_cast<int64_t>(summary.invalid_result_trials),
            result.invalid_result_attempts);
  EXPECT_NE(FormatSummary(summary).find("invalid-result"), std::string::npos);
}

class InvalidResultTest : public testing::TestWithParam<Case> {};

TEST_P(InvalidResultTest, SimulatorAbandonsNonFiniteObjectives) {
  PoisonedOnes problem(GetParam().poison);
  std::unique_ptr<Tuner> tuner = MakeTuner(problem, GetParam().method, 8);
  ClusterOptions options;
  options.num_workers = 8;
  options.seed = 3;
  options.max_trials = 300;
  RunResult result = tuner->Run(problem, options);
  ExpectInvalidResultsAbandoned(result, tuner.get());
}

TEST_P(InvalidResultTest, ThreadBackendAbandonsNonFiniteObjectives) {
  PoisonedOnes problem(GetParam().poison);
  std::unique_ptr<Tuner> tuner = MakeTuner(problem, GetParam().method, 4);
  ThreadClusterOptions options;
  options.num_workers = 4;
  options.seed = 3;
  options.max_trials = 120;
  options.time_budget_seconds = 60.0;
  RunResult result = tuner->RunOnThreads(problem, options);
  ExpectInvalidResultsAbandoned(result, tuner.get());
}

INSTANTIATE_TEST_SUITE_P(
    HostileObjectives, InvalidResultTest,
    testing::Values(
        Case{Method::kHyperTune, std::numeric_limits<double>::quiet_NaN()},
        Case{Method::kHyperTune, std::numeric_limits<double>::infinity()},
        Case{Method::kHyperTune, -std::numeric_limits<double>::infinity()},
        Case{Method::kAHyperband, std::numeric_limits<double>::quiet_NaN()},
        Case{Method::kAHyperband, std::numeric_limits<double>::infinity()},
        Case{Method::kAHyperband, -std::numeric_limits<double>::infinity()}),
    CaseName);

}  // namespace
}  // namespace hypertune
