#include "src/common/rng.h"

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace hypertune {
namespace {

TEST(MixSeedTest, DistinctInputsGiveDistinctOutputs) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(MixSeed(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(CombineSeedsTest, OrderSensitive) {
  EXPECT_NE(CombineSeeds(1, 2), CombineSeeds(2, 1));
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(6);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(7);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) ++counts[rng.Categorical(weights)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 10);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (size_t idx : sample) EXPECT_LT(idx, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(9);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(10);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = values;
  rng.Shuffle(&values);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, original);
}

// The lazy engine against std::mt19937_64, the reference it reproduces.

constexpr size_t kBlock = MersenneTwister64::kStateSize;

std::vector<uint64_t> EngineSeeds() {
  std::vector<uint64_t> seeds = {0, 1, 2, 5489,
                                 std::numeric_limits<uint64_t>::max(),
                                 std::numeric_limits<uint64_t>::max() - 1,
                                 0x8000000000000000ULL};
  for (uint64_t i = 0; i < 200; ++i) seeds.push_back(MixSeed(i));
  return seeds;
}

/// What an Rng built on std::mt19937_64 writes: engine, then the unit and
/// normal distributions.
struct StdRng {
  explicit StdRng(uint64_t seed) : engine(MixSeed(seed)) {}

  std::string SerializeState() const {
    std::ostringstream out;
    out << engine << ' ' << unit << ' ' << normal;
    return out.str();
  }

  std::mt19937_64 engine;
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::normal_distribution<double> normal{0.0, 1.0};
};

TEST(MersenneTwister64Test, MatchesStdAcrossBlocks) {
  for (uint64_t seed : EngineSeeds()) {
    std::mt19937_64 reference(seed);
    MersenneTwister64 engine(seed);
    for (size_t i = 0; i < 3 * kBlock + 17; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngTest, DrawsMatchStdEngine) {
  for (uint64_t seed : EngineSeeds()) {
    Rng rng(seed);
    StdRng reference(seed);
    for (size_t i = 0; i < kBlock + 40; ++i) {
      switch (i % 4) {
        case 0:
          ASSERT_EQ(rng.Bits64(), reference.engine()) << seed;
          break;
        case 1:
          ASSERT_EQ(rng.Uniform(), reference.unit(reference.engine)) << seed;
          break;
        case 2:
          ASSERT_EQ(rng.Gaussian(), reference.normal(reference.engine))
              << seed;
          break;
        default: {
          std::uniform_int_distribution<int64_t> dist(-3, 1000);
          ASSERT_EQ(rng.UniformInt(-3, 1000), dist(reference.engine)) << seed;
        }
      }
    }
  }
}

TEST(RngTest, SerializeStateMatchesStdEngineText) {
  // Every draw count through two blocks (0, 1, 7-9, 155-157 and 311-313
  // are the edges of the lazy first block), then 1000.
  std::vector<size_t> counts;
  for (size_t draws = 0; draws <= 2 * kBlock + 1; ++draws) {
    counts.push_back(draws);
  }
  counts.push_back(1000);
  for (uint64_t seed : {uint64_t{3}, uint64_t{0},
                        std::numeric_limits<uint64_t>::max()}) {
    for (size_t draws : counts) {
      Rng rng(seed);
      StdRng reference(seed);
      for (size_t i = 0; i < draws; ++i) {
        rng.Bits64();
        reference.engine();
      }
      ASSERT_EQ(rng.SerializeState(), reference.SerializeState())
          << "seed " << seed << " after " << draws << " draws";
      // An odd number of normal draws caches the pair's second value.
      rng.Gaussian();
      reference.normal(reference.engine);
      ASSERT_EQ(rng.SerializeState(), reference.SerializeState())
          << "seed " << seed << " after " << draws << " draws + gaussian";
    }
  }
}

TEST(RngTest, RestoresStdEngineTextAndContinues) {
  for (size_t draws : {size_t{0}, size_t{1}, size_t{156}, size_t{311},
                       size_t{312}, size_t{700}}) {
    StdRng reference(11);
    for (size_t i = 0; i < draws; ++i) reference.engine();
    reference.normal(reference.engine);
    Rng rng(999);
    ASSERT_TRUE(rng.DeserializeState(reference.SerializeState()).ok());
    for (size_t i = 0; i < 2 * kBlock; ++i) {
      if (i % 2 == 0) {
        ASSERT_EQ(rng.Bits64(), reference.engine()) << draws << " / " << i;
      } else {
        ASSERT_EQ(rng.Gaussian(), reference.normal(reference.engine))
            << draws << " / " << i;
      }
    }
  }
}

TEST(RngTest, DeserializeRejectsMalformedState) {
  StdRng reference(5);
  reference.engine();
  const std::string text = reference.SerializeState();
  // The engine's position is the last of its 313 tokens.
  std::istringstream in(text);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  ASSERT_GT(tokens.size(), kBlock + 1);
  auto with_position = [&](const std::string& p) {
    std::vector<std::string> edited = tokens;
    edited[kBlock] = p;
    std::string out;
    for (const std::string& token : edited) out += token + " ";
    return out;
  };
  std::vector<std::string> bad = {text.substr(0, text.size() / 2)};
  for (const char* p : {"313", "1000", "-1", "18446744073709551615",
                        "99999999999999999999999"}) {
    bad.push_back(with_position(p));
  }
  Rng rng(8);
  const std::string before = rng.SerializeState();
  for (const std::string& state : bad) {
    EXPECT_FALSE(rng.DeserializeState(state).ok()) << state.substr(0, 40);
    EXPECT_EQ(rng.SerializeState(), before);
  }
  for (const char* good : {"0", "311", "312"}) {
    Rng restored(8);
    EXPECT_TRUE(restored.DeserializeState(with_position(good)).ok()) << good;
  }
}

}  // namespace
}  // namespace hypertune
