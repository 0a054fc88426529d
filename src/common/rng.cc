#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hypertune {

uint64_t MixSeed(uint64_t x) {
  // SplitMix64 finalizer (Steele, Lea, Flood 2014).
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t CombineSeeds(uint64_t a, uint64_t b) {
  return MixSeed(a ^ (MixSeed(b) + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) {
    return static_cast<size_t>(
        UniformInt(0, static_cast<int64_t>(weights.size()) - 1));
  }
  double u = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) {
      acc += weights[i];
      if (u < acc) return i;
    }
  }
  return weights.size() - 1;
}

std::string Rng::SerializeState() const {
  // The standard guarantees operator<</>> round-trip engines and
  // distributions exactly (the normal distribution's cached second draw
  // included), using only digits and spaces.
  std::ostringstream out;
  out << engine_ << ' ' << unit_ << ' ' << normal_;
  return out.str();
}

Status Rng::DeserializeState(const std::string& state) {
  std::istringstream in(state);
  Rng fresh(0);
  in >> fresh.engine_ >> fresh.unit_ >> fresh.normal_;
  if (!in) return Status::InvalidArgument("rng: malformed serialized state");
  // Reject trailing garbage: a truncated-then-padded token stream must not
  // silently restore.
  std::string extra;
  if (in >> extra) {
    return Status::InvalidArgument("rng: trailing bytes in serialized state");
  }
  engine_ = fresh.engine_;
  unit_ = fresh.unit_;
  normal_ = fresh.normal_;
  return Status::Ok();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  std::vector<size_t> pool;
  SampleWithoutReplacement(n, k, &pool);
  pool.resize(std::min(k, n));
  return pool;
}

void Rng::SampleWithoutReplacement(size_t n, size_t k,
                                   std::vector<size_t>* pool) {
  // Partial Fisher-Yates over an index vector; O(n) space, O(k) swaps.
  pool->resize(n);
  for (size_t i = 0; i < n; ++i) (*pool)[i] = i;
  for (size_t i = 0; i < k && i < n; ++i) {
    size_t j = static_cast<size_t>(
        UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n) - 1));
    std::swap((*pool)[i], (*pool)[j]);
  }
}

}  // namespace hypertune
