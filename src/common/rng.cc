#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
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

namespace {

// std::mt19937_64's parameters: middle word m, twist matrix a, and the
// seeding multiplier f.
constexpr size_t kShift = 156;
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kSeedMultiplier = 6364136223846793005ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
// Words the first refill twists: few, so that a generator drawing a handful
// of numbers does little more than it needs. Later refills of the first
// block double the twisted prefix, so a generator that draws the whole
// block pays only a few calls more than the standard engine.
constexpr size_t kChunk = 8;

uint64_t TwistWord(uint64_t self, uint64_t next, uint64_t far) {
  const uint64_t y = (self & kUpperMask) | (next & ~kUpperMask);
  return far ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
}

}  // namespace

void MersenneTwister64::SeedTo(size_t end) {
  uint64_t prev = x_[seeded_ - 1];
  for (size_t i = seeded_; i < end; ++i) {
    prev = kSeedMultiplier * (prev ^ (prev >> 62)) + i;
    x_[i] = prev;
  }
  seeded_ = std::max(seeded_, end);
}

void MersenneTwister64::Twist(size_t begin, size_t end) {
  constexpr size_t n = kStateSize;
  // Same three regions as the standard engine's block twist: the first
  // n - m words read the untwisted far half, the rest read words already
  // twisted in this block, and the last word wraps to word 0.
  for (size_t k = begin; k < std::min(end, n - kShift); ++k) {
    x_[k] = TwistWord(x_[k], x_[k + 1], x_[k + kShift]);
  }
  for (size_t k = std::max(begin, n - kShift); k < std::min(end, n - 1); ++k) {
    x_[k] = TwistWord(x_[k], x_[k + 1], x_[k + kShift - n]);
  }
  if (begin < n && end == n) {
    x_[n - 1] = TwistWord(x_[n - 1], x_[0], x_[kShift - 1]);
  }
}

void MersenneTwister64::Refill() {
  if (ready_ == kStateSize) {
    Twist(0, kStateSize);
    p_ = 0;
    return;
  }
  const size_t end =
      std::min(ready_ + std::max(kChunk, ready_), kStateSize);
  // Word k < m reads old word k + m, so seeding runs m words ahead.
  SeedTo(std::min(end + kShift, kStateSize));
  Twist(ready_, end);
  ready_ = end;
}

std::ostream& operator<<(std::ostream& out, const MersenneTwister64& engine) {
  // The standard engine's text is its whole state: before the first draw
  // the seeded words with position n, afterwards the twisted block. Finish
  // seeding and the first block's twist in a copy to produce the same.
  MersenneTwister64 full = engine;
  full.SeedTo(MersenneTwister64::kStateSize);
  if (full.ready_ == 0) {
    full.p_ = MersenneTwister64::kStateSize;
  } else {
    full.Twist(full.ready_, MersenneTwister64::kStateSize);
  }
  const std::ios_base::fmtflags flags = out.flags();
  const char fill = out.fill();
  out.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  out.fill(' ');
  for (uint64_t word : full.x_) out << word << ' ';
  out << full.p_;
  out.flags(flags);
  out.fill(fill);
  return out;
}

std::istream& operator>>(std::istream& in, MersenneTwister64& engine) {
  const std::ios_base::fmtflags flags = in.flags();
  in.flags(std::ios_base::dec | std::ios_base::skipws);
  std::array<uint64_t, MersenneTwister64::kStateSize> words{};
  size_t p = 0;
  for (uint64_t& word : words) in >> word;
  in >> p;
  in.flags(flags);
  // The position indexes the state array, so a corrupt one must not load.
  if (!in || p > MersenneTwister64::kStateSize) {
    in.setstate(std::ios_base::failbit);
    return in;
  }
  engine.x_ = words;
  engine.p_ = p;
  engine.ready_ = MersenneTwister64::kStateSize;
  engine.seeded_ = MersenneTwister64::kStateSize;
  return in;
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
  // operator<</>> round-trip the engine (in std::mt19937_64's text) and
  // the distributions exactly (the normal distribution's cached second
  // draw included), using only digits and spaces.
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
