#include "src/surrogate/random_forest.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace hypertune {
namespace {

/// Mean and (population) variance of y[0, n).
void MeanVar(const double* y, size_t n, double* mean, double* var) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) m += y[i];
  m /= static_cast<double>(n);
  double v = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = y[i] - m;
    v += d * d;
  }
  *mean = m;
  *var = v / static_cast<double>(n);
}

/// Sufficient statistics of one candidate split: sums of the targets and
/// of their squares on each side, and the left count.
struct SplitSums {
  double sum_l, sum_r, sq_l, sq_r;
  size_t n_l;
};

/// Two lanes of doubles, and the same bits as integers (GCC/Clang vector
/// extensions: per-lane IEEE arithmetic, so each lane computes exactly what
/// the scalar code would).
typedef double Pair __attribute__((vector_size(16)));
typedef int64_t PairBits __attribute__((vector_size(16)));

/// Candidates accumulated per pass over a node: two pairs of lanes.
constexpr size_t kCandidateBlock = 4;

/// Accumulates every candidate threshold in passes over a node's gathered
/// feature values and targets. Each candidate sums its sides in sample
/// order, exactly as a separate pass per candidate would: the side a sample
/// misses gains +0.0 (the target's bits masked off), which leaves a sum
/// that started at +0.0 bit for bit unchanged (such a sum is never -0.0).
/// Branch-free, so unpredictable split sides cost no mispredictions.
template <bool kEquality>
void ScoreCandidates(const double* values, const double* targets, size_t n,
                     const double* thresholds, size_t num_thresholds,
                     SplitSums* sums) {
  for (size_t first = 0; first < num_thresholds; first += kCandidateBlock) {
    const size_t count = std::min(kCandidateBlock, num_thresholds - first);
    // A short block is padded with copies of its first threshold, whose
    // sums are dropped.
    double th[kCandidateBlock];
    for (size_t c = 0; c < kCandidateBlock; ++c) {
      th[c] = thresholds[first + (c < count ? c : 0)];
    }
    const Pair th01 = {th[0], th[1]};
    const Pair th23 = {th[2], th[3]};
    Pair sum_l01 = {}, sum_r01 = {}, sq_l01 = {}, sq_r01 = {};
    Pair sum_l23 = {}, sum_r23 = {}, sq_l23 = {}, sq_r23 = {};
    PairBits n_l01 = {}, n_l23 = {};
    for (size_t i = 0; i < n; ++i) {
      const Pair v = {values[i], values[i]};
      const double t = targets[i];
      const Pair t2 = {t, t};
      const Pair tt2 = {t * t, t * t};
      const PairBits t_bits = (PairBits)t2;
      const PairBits tt_bits = (PairBits)tt2;
      // Lanes are all ones where the sample goes left.
      const PairBits left01 =
          kEquality ? (PairBits)(v == th01) : (PairBits)(v <= th01);
      const PairBits left23 =
          kEquality ? (PairBits)(v == th23) : (PairBits)(v <= th23);
      sum_l01 += (Pair)(t_bits & left01);
      sum_r01 += (Pair)(t_bits & ~left01);
      sq_l01 += (Pair)(tt_bits & left01);
      sq_r01 += (Pair)(tt_bits & ~left01);
      n_l01 -= left01;
      sum_l23 += (Pair)(t_bits & left23);
      sum_r23 += (Pair)(t_bits & ~left23);
      sq_l23 += (Pair)(tt_bits & left23);
      sq_r23 += (Pair)(tt_bits & ~left23);
      n_l23 -= left23;
    }
    const SplitSums block[kCandidateBlock] = {
        {sum_l01[0], sum_r01[0], sq_l01[0], sq_r01[0],
         static_cast<size_t>(n_l01[0])},
        {sum_l01[1], sum_r01[1], sq_l01[1], sq_r01[1],
         static_cast<size_t>(n_l01[1])},
        {sum_l23[0], sum_r23[0], sq_l23[0], sq_r23[0],
         static_cast<size_t>(n_l23[0])},
        {sum_l23[1], sum_r23[1], sq_l23[1], sq_r23[1],
         static_cast<size_t>(n_l23[1])}};
    for (size_t c = 0; c < count; ++c) sums[first + c] = block[c];
  }
}

}  // namespace

/// The training rows of one Fit in column-major order (so a node gathers a
/// feature with one index hop), plus buffers every node reuses: BuildNode
/// finishes with them before it recurses.
struct RandomForest::FitScratch {
  size_t rows = 0;
  size_t dim = 0;
  std::vector<double> columns;  // columns[f * rows + i]
  std::vector<double> y;
  std::vector<size_t> indices;  // sample positions of the current tree
  std::vector<size_t> features;
  std::vector<double> values;   // one feature over the node's samples
  std::vector<double> targets;  // y over the node's samples
  std::vector<double> thresholds;
  std::vector<SplitSums> sums;
  std::vector<Node> nodes;      // the tree being grown
};

RandomForest::RandomForest(RandomForestOptions options) : options_(options) {}

void RandomForest::SetCategoricalFeatures(std::vector<bool> categorical) {
  categorical_ = std::move(categorical);
}

Status RandomForest::Fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("RF: |x| != |y|");
  }
  if (x.rows() == 0) {
    return Status::InvalidArgument("RF: empty training set");
  }
  const size_t dim = x.cols();
  if (!categorical_.empty() && categorical_.size() != dim) {
    return Status::InvalidArgument("RF: categorical flag size mismatch");
  }

  fitted_ = false;
  trees_.clear();
  num_observations_ = x.rows();
  trees_.resize(static_cast<size_t>(std::max(1, options_.num_trees)));

  // Cap oversized training sets (max_points == 0 means no cap).
  const std::vector<size_t> keep =
      options_.max_points > 0 ? CapTrainingSet(y, options_.max_points)
                              : CapTrainingSet(y, y.size());

  // Sample positions below index the kept rows, whose order the copy
  // preserves, so every split sees the values it would see on x itself.
  FitScratch scratch;
  const size_t rows = keep.size();
  scratch.rows = rows;
  scratch.dim = dim;
  scratch.columns.resize(dim * rows);
  scratch.y.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    const double* row = x.row(keep[i]);
    for (size_t f = 0; f < dim; ++f) scratch.columns[f * rows + i] = row[f];
    scratch.y[i] = y[keep[i]];
  }
  scratch.indices.reserve(keep.size());
  scratch.values.resize(keep.size());
  scratch.targets.resize(keep.size());
  const size_t num_thresholds =
      static_cast<size_t>(std::max(0, options_.thresholds_per_feature));
  scratch.thresholds.resize(num_thresholds);
  scratch.sums.resize(num_thresholds);

  for (size_t t = 0; t < trees_.size(); ++t) {
    Rng rng(CombineSeeds(options_.seed, CombineSeeds(t, keep.size())));
    scratch.indices.clear();
    if (options_.bootstrap && keep.size() > 1) {
      for (size_t i = 0; i < keep.size(); ++i) {
        scratch.indices.push_back(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(keep.size()) - 1)));
      }
    } else {
      for (size_t i = 0; i < keep.size(); ++i) scratch.indices.push_back(i);
    }
    scratch.nodes.clear();
    BuildNode(&scratch, 0, scratch.indices.size(), 0, &rng);
    // An exact-size copy: a grown vector would hold up to twice the nodes.
    trees_[t].nodes.assign(scratch.nodes.begin(), scratch.nodes.end());
  }
  fitted_ = true;
  return Status::Ok();
}

int RandomForest::BuildNode(FitScratch* scratch, size_t begin, size_t end,
                            int depth, Rng* rng) const {
  const size_t n = end - begin;
  const size_t rows = scratch->rows;
  const size_t dim = scratch->dim;
  const size_t* indices = scratch->indices.data() + begin;
  std::vector<Node>& nodes = scratch->nodes;

  double* targets = scratch->targets.data();
  for (size_t i = 0; i < n; ++i) targets[i] = scratch->y[indices[i]];
  double node_mean = 0.0, node_var = 0.0;
  MeanVar(targets, n, &node_mean, &node_var);

  auto make_leaf = [&]() {
    Node leaf;
    leaf.leaf_mean = node_mean;
    leaf.leaf_variance = node_var;
    nodes.push_back(leaf);
    return static_cast<int>(nodes.size() - 1);
  };

  if (n < 2 * options_.min_samples_leaf || depth >= options_.max_depth ||
      node_var <= 1e-14) {
    return make_leaf();
  }

  // Candidate features (without replacement).
  size_t num_features = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(options_.feature_fraction *
                                       static_cast<double>(dim))));
  rng->SampleWithoutReplacement(dim, num_features, &scratch->features);
  num_features = std::min(num_features, dim);

  double best_score = std::numeric_limits<double>::infinity();
  int best_feature = -1;
  double best_threshold = 0.0;
  bool best_equality = false;

  double* values = scratch->values.data();
  double* thresholds = scratch->thresholds.data();
  SplitSums* sums = scratch->sums.data();
  const size_t num_thresholds = scratch->thresholds.size();
  for (size_t k = 0; k < num_features; ++k) {
    const size_t f = scratch->features[k];
    const bool is_cat = !categorical_.empty() && categorical_[f];
    // Gather the feature over this node's samples, with its range.
    const double* column = scratch->columns.data() + f * rows;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      double v = column[indices[i]];
      values[i] = v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (lo >= hi) continue;  // constant feature in this node

    for (size_t c = 0; c < num_thresholds; ++c) {
      if (is_cat) {
        // Pick the value of a random sample in the node: guarantees a
        // non-empty "equal" side.
        thresholds[c] = values[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(n) - 1))];
      } else {
        thresholds[c] = rng->Uniform(lo, hi);
      }
    }
    if (is_cat) {
      ScoreCandidates<true>(values, targets, n, thresholds, num_thresholds,
                            sums);
    } else {
      ScoreCandidates<false>(values, targets, n, thresholds, num_thresholds,
                             sums);
    }

    // Weighted variance after each split; the first best candidate wins.
    for (size_t c = 0; c < num_thresholds; ++c) {
      const SplitSums& s = sums[c];
      const size_t n_l = s.n_l;
      const size_t n_r = n - n_l;
      if (n_l < options_.min_samples_leaf || n_r < options_.min_samples_leaf) {
        continue;
      }
      double var_l = s.sq_l / n_l - (s.sum_l / n_l) * (s.sum_l / n_l);
      double var_r = s.sq_r / n_r - (s.sum_r / n_r) * (s.sum_r / n_r);
      double score = (var_l * n_l + var_r * n_r) / static_cast<double>(n);
      if (score < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = thresholds[c];
        best_equality = is_cat;
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition indices in place.
  const double* split_column =
      scratch->columns.data() + static_cast<size_t>(best_feature) * rows;
  auto go_left = [&](size_t idx) {
    double v = split_column[idx];
    return best_equality ? (v == best_threshold) : (v <= best_threshold);
  };
  auto first = scratch->indices.begin();
  size_t mid = static_cast<size_t>(
      std::partition(first + static_cast<std::ptrdiff_t>(begin),
                     first + static_cast<std::ptrdiff_t>(end), go_left) -
      first);
  if (mid == begin || mid == end) return make_leaf();  // defensive

  // Reserve this node's slot before recursing so children land after it.
  nodes.emplace_back();
  int self = static_cast<int>(nodes.size() - 1);
  int left = BuildNode(scratch, begin, mid, depth + 1, rng);
  int right = BuildNode(scratch, mid, end, depth + 1, rng);
  Node& node = nodes[static_cast<size_t>(self)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.equality_split = best_equality;
  node.left = left;
  node.right = right;
  return self;
}

const RandomForest::Node& RandomForest::FindLeaf(const Tree& tree,
                                                 const double* x) const {
  int idx = 0;
  // Trees are built root-first, so node 0 is the root.
  while (!tree.nodes[static_cast<size_t>(idx)].IsLeaf()) {
    const Node& node = tree.nodes[static_cast<size_t>(idx)];
    double v = x[static_cast<size_t>(node.feature)];
    bool go_left =
        node.equality_split ? (v == node.threshold) : (v <= node.threshold);
    idx = go_left ? node.left : node.right;
  }
  return tree.nodes[static_cast<size_t>(idx)];
}

Prediction RandomForest::PredictPoint(const double* x) const {
  double sum_mean = 0.0;
  double sum_second_moment = 0.0;
  for (const Tree& tree : trees_) {
    const Node& leaf = FindLeaf(tree, x);
    sum_mean += leaf.leaf_mean;
    sum_second_moment += leaf.leaf_variance + leaf.leaf_mean * leaf.leaf_mean;
  }
  double inv = 1.0 / static_cast<double>(trees_.size());
  Prediction p;
  p.mean = sum_mean * inv;
  p.variance = std::max(sum_second_moment * inv - p.mean * p.mean, 1e-12);
  return p;
}

Prediction RandomForest::Predict(const std::vector<double>& x) const {
  HT_CHECK(fitted_) << "RF::Predict before Fit";
  return PredictPoint(x.data());
}

std::vector<Prediction> RandomForest::PredictBatch(const Matrix& x) const {
  HT_CHECK(fitted_) << "RF::PredictBatch before Fit";
  // Traversal order per candidate (trees ascending) matches Predict, so the
  // batch path is trivially bit-identical; the win here is skipping the
  // per-candidate vector round-trip and keeping the tree nodes hot across
  // consecutive rows.
  std::vector<Prediction> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = PredictPoint(x.row(r));
  return out;
}

}  // namespace hypertune
