#ifndef HYPERTUNE_COMMON_RNG_H_
#define HYPERTUNE_COMMON_RNG_H_

#include <cstdint>
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

/// A seeded pseudo-random number generator wrapping std::mt19937_64 with
/// convenience draws used throughout the library.
///
/// Rng is cheap to construct; components that need reproducible independent
/// streams construct their own Rng from mixed seeds rather than sharing one.
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

  /// Access to the underlying engine for std distributions.
  std::mt19937_64& engine() { return engine_; }

  /// Serializes the complete generator state (engine plus the cached state
  /// of the unit/normal distributions) as a portable text token stream.
  /// A restored Rng continues the exact draw sequence — the contract
  /// scheduler snapshots rely on.
  std::string SerializeState() const;

  /// Restores state produced by SerializeState(). Rejects malformed input
  /// with InvalidArgument and leaves the generator unchanged on failure.
  [[nodiscard]] Status DeserializeState(const std::string& state);

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace hypertune

#endif  // HYPERTUNE_COMMON_RNG_H_
