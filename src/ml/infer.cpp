#include "ml/infer.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "ml/adaboost.h"
#include "ml/bagging.h"
#include "ml/j48.h"
#include "ml/jrip.h"
#include "ml/oner.h"
#include "ml/random_forest.h"
#include "ml/reptree.h"
#include "support/check.h"

namespace hmd::ml {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference backend (also the generic fallback behind kFlat).

class ScalarBackend final : public InferenceBackend {
 public:
  /// `label` is "scalar" or "generic" (both static strings).
  ScalarBackend(const Classifier& model, std::string_view label)
      : model_(model), label_(label) {}

  std::string_view name() const override { return label_; }

  void predict_proba_batch(std::span<const double> x,
                           std::size_t num_features,
                           std::span<double> out) const override {
    HMD_REQUIRE(x.size() == out.size() * num_features);
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = model_.predict_proba(x.subspan(i * num_features, num_features));
  }

 private:
  const Classifier& model_;
  std::string_view label_;
};

// ---------------------------------------------------------------------------
// Flat backend: the model lowered into contiguous struct-of-arrays blocks,
// scored with branch-free inner loops.

// Two-lane double vectors and their compare masks (GCC/Clang vector
// extensions; SSE2 on x86-64, so no -march change). A lane compare has the
// scalar operator's semantics — an IEEE ordered compare, false on NaN —
// and yields all-ones or all-zero lanes.
using V2d = double __attribute__((vector_size(16)));
using V2i = std::int64_t __attribute__((vector_size(16)));

class FlatBackend final : public InferenceBackend {
 public:
  /// How member scores combine into the model score. The arithmetic and
  /// accumulation order replicate the scalar ensembles exactly: kAverage is
  /// Bagging/RandomForest's member-order sum then divide-by-count; kVote is
  /// AdaBoost's alpha-weighted hard vote normalised by the member-order
  /// alpha sum.
  enum class Combine { kSingle, kAverage, kVote };

  struct Member {
    enum class Unit : std::uint8_t { kTree, kBuckets, kRules };
    Unit unit = Unit::kTree;
    // kTree: the member's slice of the node block starts at `first_node`,
    // child indices inside it are LOCAL to that slice (so they fit u16),
    // evaluation enters at local index `entry`, and `depth` bounds the
    // walk (the member's longest entry-to-leaf path).
    std::uint32_t first_node = 0;
    std::uint16_t entry = 0;
    std::uint32_t depth = 0;
    // kBuckets: tested feature and the cut/probability slices.
    std::uint32_t feature = 0;
    std::uint32_t first_cut = 0;
    std::uint32_t num_cuts = 0;
    std::uint32_t first_bucket = 0;
    // kRules: rules [first_rule, first_rule + num_rules) of the rule block,
    // in decision-list order, and the value when none fires.
    std::uint32_t first_rule = 0;
    std::uint32_t num_rules = 0;
    double default_proba = 0.0;
    double alpha = 1.0;  ///< vote weight (kVote only)
  };

  std::string_view name() const override { return "flat"; }

  void predict_proba_batch(std::span<const double> x,
                           std::size_t num_features,
                           std::span<double> out) const override;

  // Node block (all trees of the model). One packed 16-byte record per
  // node — four nodes per cache line, where the scalar arena node (48+
  // bytes, leaf flag, int64 children) straddles two lines on its own; a
  // full-scale tree ensemble shrinks from several L1-sized blocks to one,
  // which is exactly what the walk's top levels need to stay resident.
  // Child indices are local to the member's slice (u16; lowering falls
  // back to the generic backend for the absurd case of a >65535-node
  // member) and sit in an indexable pair (child[0] = `<=` branch,
  // child[1] = `>` branch) so the per-visit select is an indexed load,
  // never a data-dependent branch. Leaves self-loop (child[0] ==
  // child[1] == self), so the walk needs no leaf test: a settled lane
  // just stops moving. Leaf probabilities live in the parallel
  // `leaf_proba_` array — they are read once per settled sample, not per
  // visit, so keeping them out of the node doubles walk cache density.
  struct FlatTreeNode {
    double threshold = 0.0;
    std::uint16_t feature = 0;
    std::uint16_t child[2] = {0, 0};
    std::uint16_t pad = 0;
  };
  static_assert(sizeof(FlatTreeNode) == 16);
  std::vector<FlatTreeNode> nodes_;
  std::vector<double> leaf_proba_;  ///< per node: leaf P(malware), else 0

  // Bucket block (OneR members).
  std::vector<double> cuts_;
  std::vector<double> bucket_proba_;

  // Rule block (JRip members). One record per rule; its conjunction is
  // conditions [first_cond, end_cond) of the parallel condition arrays,
  // the `x <= threshold` tests first and the `x >= threshold` tests from
  // `first_geq` on (AND commutes, so grouping by operator loses nothing
  // and takes the operator out of the inner loop). A condition names its
  // feature by column of the tile transpose (rule_cols_), not by row
  // offset.
  struct FlatRule {
    std::uint32_t first_cond = 0;
    std::uint32_t first_geq = 0;
    std::uint32_t end_cond = 0;
    double fire_proba = 0.0;  ///< P(malware) when this rule fires first
  };
  std::vector<FlatRule> rules_;
  std::vector<std::uint32_t> cond_col_;
  std::vector<double> cond_threshold_;
  /// Features any rule tests, ascending: the columns of the tile transpose.
  std::vector<std::uint32_t> rule_cols_;

  std::vector<Member> members_;
  Combine combine_ = Combine::kSingle;
  double alpha_total_ = 0.0;     ///< member-order sum of vote alphas
  std::size_t min_features_ = 0; ///< 1 + max feature index consumed
  /// Rows per scoring tile: kTile, or fewer when a wide rule transpose
  /// would not fit the fixed per-call column buffer (see finish()).
  std::size_t tile_rows_ = kTile;

  /// 128 rows x 8 features x 8 bytes = 8 KiB of x per tile: small enough
  /// that the tile AND the ensemble's hot top-of-tree node lines coexist
  /// in L1 (a 512-row tile is 32 KiB — it owned the whole cache and
  /// evicted the nodes between members).
  static constexpr std::size_t kTile = 128;
  /// Doubles in the per-call transposed-tile buffer (16 KiB of stack).
  static constexpr std::size_t kColBudget = 2048;
  /// Row pairs a rule evaluates at once (a shard batch of 32 rows is two
  /// groups); leftover pairs go one at a time.
  static constexpr std::size_t kGroup = 8;

  /// Resolve the rule members' feature columns and the tile size once
  /// every member is lowered; false if the transpose cannot fit a tile of
  /// two rows.
  bool finish();

 private:
  // The eval loops are generic over how a finished sample's probability
  // leaves the loop (`Emit`): stored for single models, accumulated for
  // kAverage, vote-masked for kVote. Fusing the combine into the member
  // walk this way means an ensemble member costs its walk and one add — no
  // per-member score buffer to store, reload and reduce.
  // Every eval walks the n contiguous rows at `x` in storage order and
  // emits row i's probability as emit(i, p). (A path-sorted schedule —
  // grouping rows by the leaf the first member settled them in, so later
  // lane groups share similar depths — was measured here and lost: the
  // collect/sort/permute overhead per tile exceeded the idle-lane visits
  // it removed at these ensemble depths, ~1.76x vs ~1.98x aggregate.)
  template <class Emit>
  void eval_member(const Member& m, const double* x, std::size_t nf,
                   std::size_t n, const V2d* cols, Emit emit) const;
  template <class Emit>
  void eval_tree(const Member& m, const double* x, std::size_t nf,
                 std::size_t n, Emit emit) const;
  template <class Emit>
  void eval_buckets(const Member& m, const double* x, std::size_t nf,
                    std::size_t n, Emit emit) const;
  template <class Emit>
  void eval_rules(const Member& m, const V2d* cols, std::size_t n,
                  Emit emit) const;
  template <std::size_t G>
  void eval_rule_pairs(const Member& m, const V2d* cols, std::size_t pairs,
                       std::size_t p0, V2d* proba) const;
  /// Transpose the rule-tested features of an n-row tile into column-major
  /// row pairs: cols[c * pairs + p] holds column c of rows 2p and 2p + 1.
  void transpose_tile(const double* x, std::size_t nf, std::size_t n,
                      V2d* cols) const;
};

/// Emit policies: how one member's per-sample probability is committed.
struct EmitStore {
  double* out;
  void operator()(std::size_t i, double p) const { out[i] = p; }
};

struct EmitAdd {
  double* acc;
  void operator()(std::size_t i, double p) const { acc[i] += p; }
};

/// AdaBoost hard vote, branch-free: adds exactly `alpha` when the member
/// says malware and exactly +0.0 otherwise (the mask keeps the bits of
/// alpha or clears them — no rounding is involved, so the accumulated sum
/// is bit-identical to the scalar `if (vote) sum += alpha` chain).
struct EmitVote {
  double* acc;
  double alpha;
  void operator()(std::size_t i, double p) const {
    const std::uint64_t take =
        std::uint64_t{0} - static_cast<std::uint64_t>(p >= kDecisionThreshold);
    acc[i] +=
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(alpha) & take);
  }
};

void FlatBackend::predict_proba_batch(std::span<const double> x,
                                      std::size_t num_features,
                                      std::span<double> out) const {
  HMD_REQUIRE(x.size() == out.size() * num_features);
  // The scalar walk re-validates feature bounds at every node
  // (HMD_INVARIANT(feature < x.size())); here the whole batch shares one
  // width, so the check hoists out of the hot loop entirely.
  HMD_REQUIRE(num_features >= min_features_);
  const std::size_t n = out.size();
  if (n == 0) return;
  const double* px = x.data();

  // Scoring runs tiled: each member scores one tile of rows before the
  // next tile starts, so the slice of x (its rule-feature transpose, and
  // the accumulator) stays cache-resident across the whole member loop.
  // Scoring the full batch member by member instead would re-stream every
  // byte of x from outer cache levels once per member. acc[i] accumulates
  // the same member-order sequence of operands as the scalar model —
  // kAverage as Bagging/RandomForest's sum then divide-by-count, kVote as
  // AdaBoostM1's alpha-weighted hard vote over the member-order alpha
  // sum — so combining stays bit-identical.
  V2d cols[kColBudget / 2];
  double acc[kTile];
  for (std::size_t t = 0; t < n; t += tile_rows_) {
    const std::size_t tn = std::min(tile_rows_, n - t);
    const double* tx = px + t * num_features;
    if (!rule_cols_.empty()) transpose_tile(tx, num_features, tn, cols);
    if (combine_ == Combine::kSingle) {
      eval_member(members_.front(), tx, num_features, tn, cols,
                  EmitStore{out.data() + t});
      continue;
    }
    std::fill(acc, acc + tn, 0.0);
    if (combine_ == Combine::kAverage) {
      for (const Member& m : members_)
        eval_member(m, tx, num_features, tn, cols, EmitAdd{acc});
      const double count = static_cast<double>(members_.size());
      for (std::size_t i = 0; i < tn; ++i) out[t + i] = acc[i] / count;
    } else {
      for (const Member& m : members_)
        eval_member(m, tx, num_features, tn, cols, EmitVote{acc, m.alpha});
      for (std::size_t i = 0; i < tn; ++i)
        out[t + i] = alpha_total_ > 0.0 ? acc[i] / alpha_total_ : 0.5;
    }
  }
}

template <class Emit>
void FlatBackend::eval_member(const Member& m, const double* x,
                              std::size_t nf, std::size_t n, const V2d* cols,
                              Emit emit) const {
  switch (m.unit) {
    case Member::Unit::kTree: eval_tree(m, x, nf, n, emit); return;
    case Member::Unit::kBuckets:
      eval_buckets(m, x, nf, n, emit);
      return;
    case Member::Unit::kRules: eval_rules(m, cols, n, emit); return;
  }
  throw InvariantError("unknown flat member unit");
}

/// Interleaved group walk, kLanes samples at a time. The per-visit chain
/// (load node -> load feature value -> compare -> indexed child load) is
/// ~15 cycles of pure latency; one sample at a time that latency IS the
/// runtime, but the eight lanes here are fully independent, so the
/// out-of-order core overlaps them and the walk runs at load-port
/// throughput instead. All lane state lives in registers — the 8-entry
/// array scalarises after unrolling — so a visit costs exactly its three
/// loads: no probability tracking (leaves self-loop, so the walk's final
/// index IS the leaf and its probability is fetched once at the end), no
/// bookkeeping stores, no compaction shuffle.
///
/// Settled lanes re-walk their leaf's self-loop: an idempotent cached
/// reload instead of a per-lane exit branch. The `moved` reduction stops
/// the level loop once the whole group has settled, so a group pays its
/// own max leaf depth, not the tree's. (A per-lane early-exit-and-refill
/// schedule would pay each sample's exact path instead, but it was
/// measured strictly worse here at every depth: its leaf-exit branch is
/// taken once per sample at an unpredictable time, and that one
/// mispredict per sample-member costs more than the idle lane visits it
/// saves.) The per-sample select is an indexed load from child[2] — by
/// construction never a data-dependent branch, so random per-sample
/// paths cannot mispredict.
template <class Emit>
void FlatBackend::eval_tree(const Member& m, const double* x, std::size_t nf,
                            std::size_t n, Emit emit) const {
  const FlatTreeNode* __restrict nodes = nodes_.data() + m.first_node;
  const double* __restrict proba = leaf_proba_.data() + m.first_node;
  const double* __restrict px = x;
  if (m.depth == 0) {
    // Degenerate single-leaf tree: constant prediction, nothing to walk
    // (and nothing to read from x, which may legitimately be empty here).
    const double p = proba[m.entry];
    for (std::size_t i = 0; i < n; ++i) emit(i, p);
    return;
  }
  constexpr std::size_t kLanes = 8;
  std::size_t b = 0;
  for (; b + kLanes <= n; b += kLanes) {
    const double* __restrict base = px + b * nf;
    std::uint32_t idx[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k) idx[k] = m.entry;
    for (std::uint32_t d = 0; d <= m.depth; ++d) {
      std::uint32_t moved = 0;
      for (std::size_t k = 0; k < kLanes; ++k) {
        const FlatTreeNode& nd = nodes[idx[k]];
        const std::size_t go_right = static_cast<std::size_t>(
            !(base[k * nf + nd.feature] <= nd.threshold));
        const std::uint32_t next = nd.child[go_right];
        moved |= next ^ idx[k];
        idx[k] = next;
      }
      if (moved == 0) break;
    }
    for (std::size_t k = 0; k < kLanes; ++k)
      emit(b + k, proba[idx[k]]);
  }
  for (; b < n; ++b) {
    const double* row = px + b * nf;
    std::uint32_t i = m.entry;
    for (std::uint32_t d = 0; d <= m.depth; ++d) {
      const FlatTreeNode& nd = nodes[i];
      const std::size_t go_right =
          static_cast<std::size_t>(!(row[nd.feature] <= nd.threshold));
      const std::uint32_t next = nd.child[go_right];
      if (next == i) break;
      i = next;
    }
    emit(b, proba[i]);
  }
}

template <class Emit>
void FlatBackend::eval_buckets(const Member& m, const double* x,
                               std::size_t nf, std::size_t n,
                               Emit emit) const {
  const double* cuts = cuts_.data() + m.first_cut;
  const double* proba = bucket_proba_.data() + m.first_bucket;
  // The bucket index is the number of cuts <= v, exactly what OneR's
  // upper_bound computes over the ascending cut array. Small arrays use a
  // counting scan (one predicated add per cut, no branches to predict);
  // past ~16 cuts the O(cuts) scan loses to a branchless binary search —
  // each step halves the candidate range with a conditional-move offset,
  // so the search is O(log cuts) with no data-dependent branches either.
  // Both forms compute the identical count for the finite feature values
  // this pipeline produces, so scores stay bit-identical to the scalar
  // model's upper_bound.
  constexpr std::uint32_t kScanMax = 16;
  if (m.num_cuts <= kScanMax) {
    for (std::size_t i = 0; i < n; ++i) {
      const double v = x[i * nf + m.feature];
      std::uint32_t bucket = 0;
      for (std::uint32_t k = 0; k < m.num_cuts; ++k)
        bucket += cuts[k] <= v ? 1u : 0u;
      emit(i, proba[bucket]);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i * nf + m.feature];
    // Invariant: the answer lies in [lo, lo + len]; cuts[lo - 1] <= v (or
    // lo == 0) and v < cuts[lo + len] (or lo + len == num_cuts). Probing
    // the midpoint keeps it, and len shrinks by half each step.
    std::uint32_t lo = 0;
    std::uint32_t len = m.num_cuts;
    while (len > 1) {
      const std::uint32_t half = len / 2;
      lo += cuts[lo + half - 1] <= v ? half : 0u;
      len -= half;
    }
    const std::uint32_t bucket = lo + (cuts[lo] <= v ? 1u : 0u);
    emit(i, proba[bucket]);
  }
}

void FlatBackend::transpose_tile(const double* x, std::size_t nf,
                                 std::size_t n, V2d* cols) const {
  const std::size_t pairs = (n + 1) / 2;
  for (std::size_t c = 0; c < rule_cols_.size(); ++c) {
    const double* src = x + rule_cols_[c];
    V2d* dst = cols + c * pairs;
    for (std::size_t p = 0; p < n / 2; ++p)
      dst[p] = V2d{src[2 * p * nf], src[(2 * p + 1) * nf]};
    // An odd tile's last pair repeats its row; the copy's result is never
    // emitted.
    if (n % 2 != 0) dst[n / 2] = V2d{src[(n - 1) * nf], src[(n - 1) * nf]};
  }
}

/// Rule-major decision-list evaluation over a transposed tile. Each rule's
/// conjunction is one all-ones mask per row pair, ANDed with one two-lane
/// compare per condition — the scalar Condition::matches operators, so a
/// NaN fails `<=` and `>=` alike — with no data-dependent branch anywhere.
/// Rules are applied last to first, each overwriting the probability of
/// the rows it fires on, so the first firing rule's value is the one left:
/// exactly the scalar list's first-match return, selected bit for bit.
template <class Emit>
void FlatBackend::eval_rules(const Member& m, const V2d* cols, std::size_t n,
                             Emit emit) const {
  const std::size_t pairs = (n + 1) / 2;
  V2d proba[kTile / 2];
  std::size_t p = 0;
  for (; p + kGroup <= pairs; p += kGroup)
    eval_rule_pairs<kGroup>(m, cols, pairs, p, proba);
  for (; p < pairs; ++p) eval_rule_pairs<1>(m, cols, pairs, p, proba);
  for (std::size_t i = 0; i < n; ++i) emit(i, proba[i / 2][i % 2]);
}

/// Row pairs [p0, p0 + G) through every rule of member m. The G masks and
/// probabilities stay in registers across a rule's conditions, so a
/// condition costs one broadcast threshold plus G loads, compares and
/// ANDs.
template <std::size_t G>
void FlatBackend::eval_rule_pairs(const Member& m, const V2d* cols,
                                  std::size_t pairs, std::size_t p0,
                                  V2d* proba) const {
  const double* thr = cond_threshold_.data();
  const std::uint32_t* col = cond_col_.data();
  V2d pr[G];
  for (std::size_t k = 0; k < G; ++k)
    pr[k] = V2d{m.default_proba, m.default_proba};
  for (std::uint32_t r = m.first_rule + m.num_rules; r-- > m.first_rule;) {
    const FlatRule* rule = &rules_[r];
    V2i mk[G];
    for (std::size_t k = 0; k < G; ++k) mk[k] = V2i{-1, -1};
    for (std::uint32_t c = rule->first_cond; c < rule->first_geq; ++c) {
      const V2d* v = cols + col[c] * pairs + p0;
      const V2d t{thr[c], thr[c]};
      for (std::size_t k = 0; k < G; ++k) mk[k] &= v[k] <= t;
    }
    for (std::uint32_t c = rule->first_geq; c < rule->end_cond; ++c) {
      const V2d* v = cols + col[c] * pairs + p0;
      const V2d t{thr[c], thr[c]};
      for (std::size_t k = 0; k < G; ++k) mk[k] &= v[k] >= t;
    }
    const V2i fire =
        std::bit_cast<V2i>(V2d{rule->fire_proba, rule->fire_proba});
    for (std::size_t k = 0; k < G; ++k)
      pr[k] = std::bit_cast<V2d>((mk[k] & fire) |
                                 (~mk[k] & std::bit_cast<V2i>(pr[k])));
  }
  for (std::size_t k = 0; k < G; ++k) proba[p0 + k] = pr[k];
}

// ---------------------------------------------------------------------------
// Lowering a trained model into a FlatBackend.

/// The node block's child indices are member-local u16s (half the node
/// size, twice the cache density); members past this size have no flat
/// form and fall back to the generic backend.
constexpr std::size_t kMaxMemberNodes = 65535;

/// Append one flattened tree (J48/RepTree/RandomTree FlatNode vectors all
/// share the same shape) to the node block; false if it cannot be encoded.
/// flatten() emits breadth-first with index 0 as the root, so children
/// always follow their parent and a single forward pass computes every
/// node's depth.
template <typename NodeT>
bool add_tree(FlatBackend& fb, const std::vector<NodeT>& nodes,
              double alpha) {
  HMD_INVARIANT(!nodes.empty());
  if (nodes.size() > kMaxMemberNodes) return false;
  const auto base = static_cast<std::uint32_t>(fb.nodes_.size());
  std::vector<std::uint32_t> depth(nodes.size(), 0);
  std::uint32_t max_depth = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeT& node = nodes[i];
    FlatBackend::FlatTreeNode flat;
    double proba = 0.0;
    if (node.leaf) {
      const auto self = static_cast<std::uint16_t>(i);
      flat.child[0] = self;
      flat.child[1] = self;
      proba = node.proba;
    } else {
      if (node.feature > kMaxMemberNodes) return false;  // u16 feature
      flat.feature = static_cast<std::uint16_t>(node.feature);
      flat.threshold = node.threshold;
      flat.child[0] = static_cast<std::uint16_t>(node.left);
      flat.child[1] = static_cast<std::uint16_t>(node.right);
      depth[node.left] = depth[i] + 1;
      depth[node.right] = depth[i] + 1;
      max_depth = std::max(max_depth, depth[i] + 1);
      fb.min_features_ = std::max(fb.min_features_, node.feature + 1);
    }
    fb.nodes_.push_back(flat);
    fb.leaf_proba_.push_back(proba);
  }
  FlatBackend::Member m;
  m.unit = FlatBackend::Member::Unit::kTree;
  m.first_node = base;
  m.entry = 0;          // flatten() places the root at local index 0
  m.depth = max_depth;  // a single-leaf root walks zero iterations
  m.alpha = alpha;
  fb.members_.push_back(m);
  return true;
}

/// Lower a JRip decision list into the rule block: per rule its
/// conditions (the `<=` tests, then the `>=` tests, each with the scalar
/// threshold unchanged) and the value the scalar list returns when that
/// rule fires first, resolved here instead of per prediction. Conditions
/// hold raw feature indices until finish() maps them to columns.
void add_rules(FlatBackend& fb, const JRip& rip, double alpha) {
  FlatBackend::Member m;
  m.unit = FlatBackend::Member::Unit::kRules;
  m.first_rule = static_cast<std::uint32_t>(fb.rules_.size());
  m.num_rules = static_cast<std::uint32_t>(rip.rules().size());
  m.default_proba = rip.default_proba();
  m.alpha = alpha;
  for (const JRip::Rule& rule : rip.rules()) {
    FlatBackend::FlatRule fr;
    fr.first_cond = static_cast<std::uint32_t>(fb.cond_col_.size());
    for (const bool leq : {true, false}) {
      if (!leq) fr.first_geq = static_cast<std::uint32_t>(fb.cond_col_.size());
      for (const JRip::Condition& c : rule.conditions) {
        if (c.leq != leq) continue;
        fb.cond_col_.push_back(static_cast<std::uint32_t>(c.feature));
        fb.cond_threshold_.push_back(c.value);
        fb.min_features_ = std::max(fb.min_features_, c.feature + 1);
      }
    }
    fr.end_cond = static_cast<std::uint32_t>(fb.cond_col_.size());
    fr.fire_proba = rip.target_class() == 1 ? rule.precision
                                            : 1.0 - rule.precision;
    fb.rules_.push_back(fr);
  }
  fb.members_.push_back(m);
}

bool FlatBackend::finish() {
  rule_cols_.assign(cond_col_.begin(), cond_col_.end());
  std::sort(rule_cols_.begin(), rule_cols_.end());
  rule_cols_.erase(std::unique(rule_cols_.begin(), rule_cols_.end()),
                   rule_cols_.end());
  for (std::uint32_t& c : cond_col_)
    c = static_cast<std::uint32_t>(
        std::lower_bound(rule_cols_.begin(), rule_cols_.end(), c) -
        rule_cols_.begin());
  if (rule_cols_.empty()) return true;
  // A tile's transpose holds rule_cols_.size() columns of ceil(rows / 2)
  // pairs: take the largest even tile, up to kTile, whose transpose fits.
  const std::size_t max_pairs = kColBudget / 2 / rule_cols_.size();
  if (max_pairs == 0) return false;
  tile_rows_ = std::min(kTile, 2 * max_pairs);
  return true;
}

void add_buckets(FlatBackend& fb, const OneR& oner, double alpha) {
  FlatBackend::Member m;
  m.unit = FlatBackend::Member::Unit::kBuckets;
  m.feature = static_cast<std::uint32_t>(oner.chosen_feature());
  m.first_cut = static_cast<std::uint32_t>(fb.cuts_.size());
  m.num_cuts = static_cast<std::uint32_t>(oner.bucket_cuts().size());
  m.first_bucket = static_cast<std::uint32_t>(fb.bucket_proba_.size());
  m.alpha = alpha;
  fb.cuts_.insert(fb.cuts_.end(), oner.bucket_cuts().begin(),
                  oner.bucket_cuts().end());
  fb.bucket_proba_.insert(fb.bucket_proba_.end(), oner.bucket_proba().begin(),
                          oner.bucket_proba().end());
  fb.min_features_ = std::max(fb.min_features_, oner.chosen_feature() + 1);
  fb.members_.push_back(m);
}

/// Lower one base (non-ensemble) model; false if it has no flat form.
/// Untrained models also return false: they fall back to the generic
/// backend so the scalar "train() must be called first" error surfaces at
/// predict time exactly as before.
bool add_base(FlatBackend& fb, const Classifier& model, double alpha) {
  if (const auto* j48 = dynamic_cast<const J48*>(&model)) {
    return j48->trained() && add_tree(fb, j48->flatten(), alpha);
  }
  if (const auto* rep = dynamic_cast<const RepTree*>(&model)) {
    return rep->trained() && add_tree(fb, rep->flatten(), alpha);
  }
  if (const auto* rnd = dynamic_cast<const RandomTree*>(&model)) {
    return rnd->trained() && add_tree(fb, rnd->flatten(), alpha);
  }
  if (const auto* rip = dynamic_cast<const JRip*>(&model)) {
    if (!rip->trained()) return false;
    add_rules(fb, *rip, alpha);
    return true;
  }
  if (const auto* oner = dynamic_cast<const OneR*>(&model)) {
    if (!oner->trained()) return false;
    add_buckets(fb, *oner, alpha);
    return true;
  }
  return false;
}

/// Lower every member of `model` (an ensemble, or one base model) into
/// `fb`; false if any has no flat form.
bool add_members(FlatBackend& fb, const Classifier& model) {
  if (const auto* boost = dynamic_cast<const AdaBoostM1*>(&model)) {
    if (boost->num_members() == 0) return false;  // untrained: fall back
    fb.combine_ = FlatBackend::Combine::kVote;
    for (std::size_t m = 0; m < boost->num_members(); ++m) {
      if (!add_base(fb, boost->member(m), boost->member_alpha(m)))
        return false;
      fb.alpha_total_ += boost->member_alpha(m);
    }
    return true;
  }
  if (const auto* bag = dynamic_cast<const Bagging*>(&model)) {
    if (bag->num_members() == 0) return false;
    fb.combine_ = FlatBackend::Combine::kAverage;
    for (std::size_t m = 0; m < bag->num_members(); ++m)
      if (!add_base(fb, bag->member(m), 1.0)) return false;
    return true;
  }
  if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
    if (forest->num_trees() == 0) return false;
    fb.combine_ = FlatBackend::Combine::kAverage;
    for (std::size_t m = 0; m < forest->num_trees(); ++m)
      if (!add_base(fb, forest->member(m), 1.0)) return false;
    return true;
  }
  fb.combine_ = FlatBackend::Combine::kSingle;
  return add_base(fb, model, 1.0);
}

std::unique_ptr<FlatBackend> try_build_flat(const Classifier& model) {
  auto fb = std::make_unique<FlatBackend>();
  if (!add_members(*fb, model) || !fb->finish()) return nullptr;
  return fb;
}

bool base_flattenable(const Classifier& model) {
  if (const auto* j48 = dynamic_cast<const J48*>(&model))
    return j48->trained();
  if (const auto* rep = dynamic_cast<const RepTree*>(&model))
    return rep->trained();
  if (const auto* rnd = dynamic_cast<const RandomTree*>(&model))
    return rnd->trained();
  if (const auto* rip = dynamic_cast<const JRip*>(&model))
    return rip->trained();
  if (const auto* oner = dynamic_cast<const OneR*>(&model))
    return oner->trained();
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

void InferenceBackend::predict_proba_batch(const Dataset& data,
                                           std::span<double> out) const {
  HMD_REQUIRE(out.size() == data.num_rows());
  const std::size_t nf = data.num_features();
  if (data.num_rows() == 0) return;
  if (data.is_identity_view()) {
    // Identity views read the storage's row-major mirror directly — the
    // whole test split is one contiguous block, no gather.
    predict_proba_batch(
        std::span<const double>(data.row(0).data(), data.num_rows() * nf),
        nf, out);
    return;
  }
  std::vector<double> gathered(data.num_rows() * nf);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.row(i);
    std::copy(row.begin(), row.end(),
              gathered.begin() + static_cast<std::ptrdiff_t>(i * nf));
  }
  predict_proba_batch(gathered, nf, out);
}

std::vector<double> InferenceBackend::predict_proba_batch(
    const Dataset& data) const {
  std::vector<double> out(data.num_rows());
  predict_proba_batch(data, out);
  return out;
}

double InferenceBackend::predict_proba(std::span<const double> x) const {
  double out = 0.0;
  predict_proba_batch(x, x.size(), std::span<double>(&out, 1));
  return out;
}

bool flat_supported(const Classifier& model) {
  if (const auto* boost = dynamic_cast<const AdaBoostM1*>(&model)) {
    if (boost->num_members() == 0) return false;
    for (std::size_t m = 0; m < boost->num_members(); ++m)
      if (!base_flattenable(boost->member(m))) return false;
    return true;
  }
  if (const auto* bag = dynamic_cast<const Bagging*>(&model)) {
    if (bag->num_members() == 0) return false;
    for (std::size_t m = 0; m < bag->num_members(); ++m)
      if (!base_flattenable(bag->member(m))) return false;
    return true;
  }
  if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
    return forest->num_trees() > 0;  // members are always RandomTrees
  }
  return base_flattenable(model);
}

std::unique_ptr<InferenceBackend> make_backend(const Classifier& model,
                                               InferBackendKind kind) {
  if (kind == InferBackendKind::kFlat) {
    if (auto flat = try_build_flat(model)) return flat;
    return std::make_unique<ScalarBackend>(model, "generic");
  }
  return std::make_unique<ScalarBackend>(model, "scalar");
}

}  // namespace hmd::ml
