// Set-associative cache and TLB models with selectable replacement.
//
// These are functional (hit/miss) models, not timing models: the Machine
// (machine.h) charges latency penalties itself. Geometry defaults follow
// the Intel Xeon X5550 (Nehalem) the paper measured on.
//
// Replacement policies (the microarchitecture-sensitivity ablation sweeps
// them; true-LRU is the default used everywhere else):
//   kLru     — true least-recently-used
//   kFifo    — evict the oldest-inserted line (no update on hit)
//   kRandom  — uniform random victim (deterministic internal stream)
//   kTreePlru— tree pseudo-LRU (power-of-two associativity up to 32 ways;
//              falls back to true LRU for other way counts)
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/check.h"

namespace hmd::sim {

enum class ReplacementPolicy : std::uint8_t {
  kLru,
  kFifo,
  kRandom,
  kTreePlru,
};

std::string_view replacement_policy_name(ReplacementPolicy policy);

/// Geometry of a set-associative cache (or TLB, with line == page).
struct CacheGeometry {
  std::uint32_t sets = 64;        ///< number of sets (power of two)
  std::uint32_t ways = 8;         ///< associativity
  std::uint32_t line_bytes = 64;  ///< line (or page) size in bytes
  ReplacementPolicy policy = ReplacementPolicy::kLru;

  std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(sets) * ways * line_bytes;
  }
};

/// A single cache level tracking access/miss counts.
class Cache {
 public:
  explicit Cache(CacheGeometry geo);

  /// Look up `address`; allocates the line on miss. Returns true on hit.
  bool access(std::uint64_t address);

  /// Probe without allocating (used by prefetch-accounting). True on hit.
  bool probe(std::uint64_t address) const;

  /// Insert a line without counting an access (prefetch fill).
  void fill(std::uint64_t address);

  /// Drop all contents and zero statistics (container reset between runs).
  void reset();

  /// Drop contents but keep statistics (e.g. TLB flush on context switch).
  void flush();

  /// Invalidate a random `fraction` (finite, in [0, 1]) of lines — models
  /// pollution by other processes sharing the cache across a context
  /// switch. `mix` is a caller-supplied random word (kept raw to avoid an
  /// Rng dependency).
  void pollute(double fraction, std::uint64_t mix);

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }
  const CacheGeometry& geometry() const { return geo_; }

 private:
  /// Tag of an invalid way. The constructor guarantees no address maps to
  /// it, so one compare per way tests validity and tag together.
  static constexpr std::uint64_t kInvalidTag = ~0ULL;

  /// Look up (and on a miss allocate) `address` under the configured
  /// policy, or under `P`. Returns true on hit; counts nothing.
  bool lookup(std::uint64_t address);
  template <ReplacementPolicy P>
  bool lookup(std::uint64_t address);
  /// Victim way within the set at `base` under `P`: the first invalid way,
  /// else the policy's choice.
  template <ReplacementPolicy P>
  std::size_t pick_victim(std::size_t set, std::size_t base);
  template <ReplacementPolicy P>
  void touch(std::size_t set, std::size_t base, std::size_t way,
             bool is_insert);

  CacheGeometry geo_;
  /// The policy actually run: tree-PLRU over a non-power-of-two way count
  /// runs as true LRU.
  ReplacementPolicy mode_ = ReplacementPolicy::kLru;
  unsigned line_shift_ = 0;   ///< log2(line_bytes)
  unsigned tag_shift_ = 0;    ///< log2(line_bytes * sets)
  std::uint64_t set_mask_ = 0;
  std::vector<std::uint64_t> tags_;    ///< sets × ways, row-major by set
  std::vector<std::uint64_t> stamps_;  ///< LRU recency or FIFO insert order
  std::vector<std::uint32_t> plru_;    ///< per-set tree bits (kTreePlru)
  std::uint64_t tick_ = 0;
  std::uint64_t rand_state_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

/// Nehalem-ish default geometries used by MachineConfig.
namespace nehalem {
inline constexpr CacheGeometry kL1I{64, 4, 64};    // 16 KiB scaled model
inline constexpr CacheGeometry kL1D{64, 8, 64};    // 32 KiB
inline constexpr CacheGeometry kLlc{512, 16, 64};  // 512 KiB per-core slice
inline constexpr CacheGeometry kDtlb{16, 4, 4096};
inline constexpr CacheGeometry kItlb{16, 4, 4096};
}  // namespace nehalem

}  // namespace hmd::sim
