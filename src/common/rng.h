#ifndef HYPERTUNE_COMMON_RNG_H_
#define HYPERTUNE_COMMON_RNG_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace hypertune {

/// Mixes a 64-bit value through the SplitMix64 finalizer. Used to derive
/// statistically independent seeds from structured inputs (run seed, config
/// hash, fidelity level) so that re-evaluating the same configuration under
/// the same run seed is deterministic.
uint64_t MixSeed(uint64_t x);

/// Combines two seed components into one (order-sensitive).
uint64_t CombineSeeds(uint64_t a, uint64_t b);

/// The 64-bit Mersenne Twister, drawing exactly the sequence of
/// std::mt19937_64 but seeding and twisting its first 312-word block lazily,
/// a chunk at a time as draws reach it. The standard engine seeds all 312
/// words and twists them all before its first output, about 2.5 us; most
/// generators here draw only a few numbers.
///
/// Seeding is a sequential recurrence, and twisting word k reads old words
/// k+1 and k+156 (k < 156) or words already twisted in this block
/// (k >= 156), so seeding and twisting in order, on demand, writes the same
/// words as doing each in full. Once the first block is used up, every
/// later block is twisted in one pass, as the standard engine does.
///
/// operator<< and operator>> read and write the text libstdc++ uses for
/// std::mt19937_64 (the 312 state words, then the position), so either
/// engine restores the other's state.
class MersenneTwister64 {
 public:
  using result_type = uint64_t;

  static constexpr size_t kStateSize = 312;

  explicit MersenneTwister64(result_type seed) { x_[0] = seed; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ >= ready_) Refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  friend std::ostream& operator<<(std::ostream& out,
                                  const MersenneTwister64& engine);
  /// Sets failbit, leaving `engine` unchanged, on malformed input or a
  /// position outside [0, kStateSize].
  friend std::istream& operator>>(std::istream& in,
                                  MersenneTwister64& engine);

 private:
  /// Makes word p_ ready: twists the next chunk of the first block, or the
  /// whole next block once the first one is used up.
  void Refill();
  /// Computes the seeding recurrence up to (excluding) word `end`.
  void SeedTo(size_t end);
  /// Twists words [begin, end) of the current block in place.
  void Twist(size_t begin, size_t end);

  /// Words [0, seeded_) hold seeded or twisted values; the rest stay zero
  /// until the first block's seeding reaches them.
  std::array<result_type, kStateSize> x_{};
  /// Next word to output.
  size_t p_ = 0;
  /// Words [0, ready_) of the current block are twisted. Below kStateSize
  /// only within the first block; ready_ == 0 means nothing was drawn yet.
  size_t ready_ = 0;
  size_t seeded_ = 1;
};

/// A seeded pseudo-random number generator wrapping MersenneTwister64 (the
/// std::mt19937_64 sequence) with convenience draws used throughout the
/// library.
///
/// Constructing an Rng and taking a few draws costs a few hundred
/// nanoseconds, because the engine seeds and twists its state lazily;
/// components that need reproducible independent streams construct their
/// own Rng from mixed seeds rather than sharing one.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(MixSeed(seed)) {}

  /// Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal draw.
  double Gaussian() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Log-normal draw: exp(N(mu, sigma^2)).
  double LogNormal(double mu, double sigma) {
    return std::exp(Gaussian(mu, sigma));
  }

  /// Bernoulli draw with probability `p` of true.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Non-positive weights are treated as zero; if all weights are zero the
  /// draw is uniform.
  size_t Categorical(const std::vector<double>& weights);

  /// Returns `k` distinct indices sampled uniformly from [0, n).
  /// Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Allocation-free form of SampleWithoutReplacement with the same draws:
  /// refills `pool` with [0, n) and leaves the sample in its first
  /// min(k, n) entries. Reusing `pool` across calls avoids the heap.
  void SampleWithoutReplacement(size_t n, size_t k, std::vector<size_t>* pool);

  /// Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// One raw 64-bit engine output, uniform over all 2^64 values.
  uint64_t Bits64() { return engine_(); }

  /// Serializes the complete generator state (engine plus the cached state
  /// of the unit/normal distributions) as a portable text token stream.
  /// A restored Rng continues the exact draw sequence — the contract
  /// scheduler snapshots rely on.
  std::string SerializeState() const;

  /// Restores state produced by SerializeState(). Rejects malformed input
  /// with InvalidArgument and leaves the generator unchanged on failure.
  [[nodiscard]] Status DeserializeState(const std::string& state);

 private:
  MersenneTwister64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace hypertune

#endif  // HYPERTUNE_COMMON_RNG_H_
