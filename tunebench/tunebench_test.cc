// Tests of the benchmark's own measurement code: the tail-percentile rule,
// self time over nested spans, and the digest check that proves the
// benchmark's decorators perturb nothing.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/journal.h"
#include "trace.h"
#include "workloads.h"

namespace tunebench {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(TailLatencyTest, PicksHighestPercentileWithTenSamplesBeyond) {
  // 200 samples: p95 is rank 190 with 10 beyond.
  std::optional<Tail> tail = TailLatency(OneToN(200));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 95.0);
  EXPECT_EQ(tail->value, 190.0);

  // 199 samples: p95 is rank 190 with 9 beyond, so the tail drops to p90.
  tail = TailLatency(OneToN(199));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 90.0);
  EXPECT_EQ(tail->value, 180.0);

  // 100000 samples would support p99.99, but the ladder stops at p95.
  tail = TailLatency(OneToN(100000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 95.0);
  EXPECT_EQ(tail->value, 95000.0);
}

TEST(TailLatencyTest, TooFewSamplesHaveNoTail) {
  EXPECT_FALSE(TailLatency({}).has_value());
  EXPECT_FALSE(TailLatency(OneToN(19)).has_value());
  std::optional<Tail> tail = TailLatency(OneToN(20));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 50.0);
}

Span MakeSpan(const char* name, double start, double end, int64_t parent) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimeTest, SubtractsDirectChildrenOnly) {
  // root [0,10] has children [1,3] and [4,8]; [4,8] has a child [5,7].
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 10, -1), MakeSpan("a", 1, 3, 0),
      MakeSpan("b", 4, 8, 0), MakeSpan("c", 5, 7, 2)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 2 - 4);
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[2], 4 - 2);
  EXPECT_DOUBLE_EQ(self[3], 2);
}

TEST(SelfTimeTest, OverlappingAndOverhangingChildrenCountOnce) {
  // Children that overlap each other or outlive the parent: only the
  // covered part of the parent's interval is subtracted, once.
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 10, -1), MakeSpan("a", 2, 6, 0),
      MakeSpan("b", 4, 8, 0), MakeSpan("c", 9, 12, 0)};
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[0], 10 - 6 - 1);
}

TEST(SelfTimeTest, RecorderNestsSpans) {
  SpanRecorder recorder;
  const int64_t outer = recorder.Begin("outer", 7);
  const int64_t inner = recorder.Begin("inner");
  recorder.End(inner);
  recorder.End(outer);
  const int64_t next = recorder.Begin("next");
  recorder.End(next, 9);
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].job_id, 7);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[2].job_id, 9);
  const std::map<std::string, SpanTotals> totals = TotalsByName(spans);
  EXPECT_NEAR(totals.at("outer").self_s,
              totals.at("outer").total_s - totals.at("inner").total_s, 1e-12);
}

/// A faulty decorator: every proposal draws twice from the wrapped sampler,
/// so the sampler's RNG advances once more than in an undecorated run.
class DoubleDrawSampler final : public hypertune::Sampler {
 public:
  explicit DoubleDrawSampler(std::unique_ptr<hypertune::Sampler> inner)
      : inner_(std::move(inner)) {}
  hypertune::Configuration Sample(int target_level) override {
    inner_->Sample(target_level);
    return inner_->Sample(target_level);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<hypertune::Sampler> inner_;
};

class DigestCheckTest : public testing::TestWithParam<const char*> {};

TEST_P(DigestCheckTest, TimedDecoratorsMatchAndRngDrawDoesNot) {
  WorkloadSpec spec = *FindWorkload(GetParam());
  spec.max_trials = spec.chaos ? 2000 : 60;  // a small run is enough
  const uint64_t seed = 11;
  const uint64_t reference =
      hypertune::RunResultDigest(PlainRun(spec, seed));

  SpanRecorder spans;
  ExecOptions timed;
  timed.spans = &spans;
  timed.wrap = [&spans](std::unique_ptr<hypertune::Sampler> inner) {
    return std::make_unique<TimedSampler>(std::move(inner), &spans);
  };
  EXPECT_EQ(hypertune::RunResultDigest(Execute(spec, seed, timed).result),
            reference);
  EXPECT_EQ(hypertune::RunResultDigest(Execute(spec, seed, {}).result),
            reference);

  ExecOptions faulty;
  faulty.wrap = [](std::unique_ptr<hypertune::Sampler> inner) {
    return std::make_unique<DoubleDrawSampler>(std::move(inner));
  };
  EXPECT_NE(hypertune::RunResultDigest(Execute(spec, seed, faulty).result),
            reference);
}

INSTANTIATE_TEST_SUITE_P(SimulatorWorkloads, DigestCheckTest,
                         testing::Values("hypertune-nas", "fleet-chaos"));

}  // namespace
}  // namespace tunebench
