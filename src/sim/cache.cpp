#include "sim/cache.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

namespace hmd::sim {

namespace {
constexpr bool is_pow2(std::uint32_t v) { return v && (v & (v - 1)) == 0; }

// The LCG behind pollute() and the random-victim stream,
// h' = kLcgMul * h + kLcgAdd (mod 2^64).
constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;

/// k LCG steps fused into one affine map: h_k = mul * h_0 + add.
struct LcgJump {
  std::uint64_t mul = 1;
  std::uint64_t add = 0;
};

/// Independent LCG lanes that pollute() advances together; lane j visits
/// lines j, j + kPolluteLanes, j + 2 * kPolluteLanes, ...
constexpr std::size_t kPolluteLanes = 8;

/// jumps[k] = the map of k + 1 LCG steps, for k in [0, kPolluteLanes).
constexpr std::array<LcgJump, kPolluteLanes> make_lcg_jumps() {
  std::array<LcgJump, kPolluteLanes> jumps{};
  LcgJump step{kLcgMul, kLcgAdd};
  for (LcgJump& jump : jumps) {
    jump = step;
    step = {step.mul * kLcgMul, step.add * kLcgMul + kLcgAdd};
  }
  return jumps;
}
constexpr auto kLcgJumps = make_lcg_jumps();
}  // namespace

std::string_view replacement_policy_name(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru: return "LRU";
    case ReplacementPolicy::kFifo: return "FIFO";
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kTreePlru: return "tree-PLRU";
  }
  throw PreconditionError("unknown replacement policy");
}

Cache::Cache(CacheGeometry geo) : geo_(geo), mode_(geo.policy) {
  HMD_REQUIRE_MSG(is_pow2(geo_.sets), "cache sets must be a power of two");
  HMD_REQUIRE(geo_.ways >= 1);
  HMD_REQUIRE(is_pow2(geo_.line_bytes));
  HMD_REQUIRE_MSG(
      geo_.policy != ReplacementPolicy::kTreePlru || geo_.ways <= 32,
      "tree-PLRU keeps its tree in 32 bits: at most 32 ways");
  line_shift_ = static_cast<unsigned>(std::countr_zero(geo_.line_bytes));
  tag_shift_ =
      line_shift_ + static_cast<unsigned>(std::countr_zero(geo_.sets));
  // A shift of at least one bit keeps every tag below kInvalidTag.
  HMD_REQUIRE_MSG(tag_shift_ >= 1,
                  "a one-set cache needs lines of at least 2 bytes");
  set_mask_ = geo_.sets - 1;
  if (mode_ == ReplacementPolicy::kTreePlru && !is_pow2(geo_.ways))
    mode_ = ReplacementPolicy::kLru;
  const std::size_t lines = static_cast<std::size_t>(geo_.sets) * geo_.ways;
  tags_.assign(lines, kInvalidTag);
  stamps_.assign(lines, 0);
  if (mode_ == ReplacementPolicy::kTreePlru) plru_.assign(geo_.sets, 0);
}

template <ReplacementPolicy P>
std::size_t Cache::pick_victim([[maybe_unused]] std::size_t set,
                               std::size_t base) {
  const std::uint64_t* tags = tags_.data() + base;
  if constexpr (P == ReplacementPolicy::kLru ||
                P == ReplacementPolicy::kFifo) {
    // One pass: an invalid way ranks as stamp 0, below every valid line's
    // stamp (>= 1), so the lowest-index minimum is the first invalid way
    // when there is one and the oldest line otherwise. FIFO differs from
    // LRU only in never refreshing the stamp on a hit.
    const std::uint64_t* stamps = stamps_.data() + base;
    std::size_t victim = 0;
    std::uint64_t oldest = ~0ULL;
    for (std::size_t w = 0; w < geo_.ways; ++w) {
      // Selects, not branches: which way wins is data-dependent.
      const std::uint64_t rank =
          stamps[w] & (std::uint64_t{0} - (tags[w] != kInvalidTag));
      const bool older = rank < oldest;
      victim = older ? w : victim;
      oldest = older ? rank : oldest;
    }
    return base + victim;
  } else {
    std::size_t first_invalid = geo_.ways;
    for (std::size_t w = geo_.ways; w-- > 0;)
      first_invalid = tags[w] == kInvalidTag ? w : first_invalid;
    if (first_invalid != geo_.ways) return base + first_invalid;
    if constexpr (P == ReplacementPolicy::kRandom) {
      rand_state_ = rand_state_ * kLcgMul + kLcgAdd;
      return base + ((rand_state_ >> 33) % geo_.ways);
    } else {
      // Walk the tree: each bit says which half was touched less recently.
      const std::uint32_t bits = plru_[set];
      std::size_t node = 0;  // index within the implicit tree
      std::size_t lo = 0, span = geo_.ways;
      while (span > 1) {
        const bool right = (bits >> node) & 1u;
        span /= 2;
        lo += right ? span : 0;
        node = 2 * node + 1 + (right ? 1 : 0);
      }
      return base + lo;
    }
  }
}

template <ReplacementPolicy P>
void Cache::touch([[maybe_unused]] std::size_t set, std::size_t base,
                  [[maybe_unused]] std::size_t way,
                  [[maybe_unused]] bool is_insert) {
  ++tick_;
  if constexpr (P == ReplacementPolicy::kLru) {
    stamps_[base + way] = tick_;
  } else if constexpr (P == ReplacementPolicy::kFifo) {
    if (is_insert) stamps_[base + way] = tick_;
  } else if constexpr (P == ReplacementPolicy::kTreePlru) {
    // Flip the path bits away from the touched way.
    std::uint32_t& bits = plru_[set];
    std::size_t node = 0;
    std::size_t lo = 0, span = geo_.ways;
    while (span > 1) {
      span /= 2;
      const bool right = way >= lo + span;
      // Point the bit at the *other* half.
      const std::uint32_t bit = 1u << node;
      bits = right ? bits & ~bit : bits | bit;
      lo += right ? span : 0;
      node = 2 * node + 1 + (right ? 1 : 0);
    }
  }
}

template <ReplacementPolicy P>
bool Cache::lookup(std::uint64_t address) {
  const auto set = static_cast<std::size_t>((address >> line_shift_) & set_mask_);
  const std::size_t base = set * geo_.ways;
  const std::uint64_t tag = address >> tag_shift_;
  const std::uint64_t* tags = tags_.data() + base;
  // A set's valid tags are distinct, so at most one way matches; a select
  // scan avoids mispredicting a data-dependent early exit.
  std::size_t hit = geo_.ways;
  for (std::size_t w = 0; w < geo_.ways; ++w) hit = tags[w] == tag ? w : hit;
  if (hit != geo_.ways) {
    touch<P>(set, base, hit, /*is_insert=*/false);
    return true;
  }
  const std::size_t victim = pick_victim<P>(set, base);
  tags_[victim] = tag;
  touch<P>(set, base, victim - base, /*is_insert=*/true);
  return false;
}

bool Cache::lookup(std::uint64_t address) {
  switch (mode_) {
    case ReplacementPolicy::kLru:
      return lookup<ReplacementPolicy::kLru>(address);
    case ReplacementPolicy::kFifo:
      return lookup<ReplacementPolicy::kFifo>(address);
    case ReplacementPolicy::kRandom:
      return lookup<ReplacementPolicy::kRandom>(address);
    case ReplacementPolicy::kTreePlru:
      return lookup<ReplacementPolicy::kTreePlru>(address);
  }
  throw InvariantError("unreachable replacement policy");
}

bool Cache::access(std::uint64_t address) {
  ++accesses_;
  const bool hit = lookup(address);
  if (!hit) ++misses_;
  return hit;
}

bool Cache::probe(std::uint64_t address) const {
  const std::size_t base =
      static_cast<std::size_t>((address >> line_shift_) & set_mask_) *
      geo_.ways;
  const std::uint64_t tag = address >> tag_shift_;
  const std::uint64_t* tags = tags_.data() + base;
  return std::find(tags, tags + geo_.ways, tag) != tags + geo_.ways;
}

void Cache::fill(std::uint64_t address) { lookup(address); }

void Cache::reset() {
  flush();
  tick_ = 0;
  accesses_ = 0;
  misses_ = 0;
  rand_state_ = 0x9E3779B97F4A7C15ULL;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(plru_.begin(), plru_.end(), 0u);
}

void Cache::pollute(double fraction, std::uint64_t mix) {
  HMD_REQUIRE_MSG(std::isfinite(fraction) && fraction >= 0.0 && fraction <= 1.0,
                  "pollution fraction must be in [0, 1]");
  if (fraction <= 0.0) return;
  const auto threshold = static_cast<std::uint64_t>(
      fraction * 1024.0);  // fraction in 1/1024 units
  // Line i is dropped when the (i+1)-th state of an LCG seeded with
  // mix | 1 falls under the threshold. The lanes compute the same states
  // as one serial walk, kPolluteLanes independent multiply chains at a
  // time: lane j starts at state j + 1 and jumps kPolluteLanes steps.
  const std::uint64_t seed = mix | 1;
  std::array<std::uint64_t, kPolluteLanes> lane{};
  for (std::size_t j = 0; j < kPolluteLanes; ++j)
    lane[j] = kLcgJumps[j].mul * seed + kLcgJumps[j].add;
  const LcgJump stride = kLcgJumps[kPolluteLanes - 1];
  const auto drop = [threshold](std::uint64_t h) {
    // All-ones (kInvalidTag) when the line is dropped, else zero.
    return std::uint64_t{0} - static_cast<std::uint64_t>(
                                  ((h >> 33) % 1024) < threshold);
  };
  std::uint64_t* tags = tags_.data();
  const std::size_t n = tags_.size();
  std::size_t i = 0;
  for (; i + kPolluteLanes <= n; i += kPolluteLanes) {
    for (std::size_t j = 0; j < kPolluteLanes; ++j) {
      tags[i + j] |= drop(lane[j]);
      lane[j] = stride.mul * lane[j] + stride.add;
    }
  }
  for (std::size_t j = 0; i + j < n; ++j) tags[i + j] |= drop(lane[j]);
}

}  // namespace hmd::sim
