// Batched traffic-generation kernel (DESIGN.md §12).
//
// The per-cycle arrival decision is the simulator's last O(nodes) scalar
// loop: one or two virtual calls plus RNG draws per node per cycle. This
// kernel keeps the four xoshiro256** state words of every node in parallel
// arrays (structure-of-arrays) and advances *all* alive nodes' streams in
// one branch-free batch pass per cycle, producing a fired bitmap. The rare
// data-dependent follow-up draws (destination choice, with its rejection
// loop) reconstitute a scalar generator from the state words and write it
// back, so the per-node bit stream is exactly the one the scalar
// `ArrivalProcess` classes consume — `BernoulliArrivals` / `MmppArrivals`
// in sim/traffic.hpp remain the reference implementations the property
// tests compare against.
//
// Bit-identity under batching rests on one exact-arithmetic fact: the
// scalar path fires iff uniform() < rate, i.e. (double)(x >> 11) * 2^-53 <
// rate. Both the int→double conversion (the operand is < 2^53) and the
// scaling by a power of two are exact, and the map m ↦ (double)m * 2^-53 is
// strictly monotone, so {m : fires} is exactly [0, T) for an integer
// threshold T computed once per rate. The kernel compares (x >> 11) < T in
// pure integer arithmetic — the same predicate, no floating point in the
// loop, identical on every lane width (scalar or auto-vectorized, with or
// without KNCUBE_NATIVE_ARCH's -march=native).
//
// Dead nodes (fault overlay) never advance their stream — their lanes are
// masked out with a blend, matching the scalar loop's `continue` — so
// faulty-network goldens are preserved too.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "topology/fault_set.hpp"
#include "topology/torus.hpp"
#include "util/rng.hpp"

namespace kncube::sim {

/// Integer fire threshold T with (x >> 11) < T  ⟺  (double)(x >> 11) * 2^-53
/// < rate, for every possible draw x. Exposed for the equivalence tests.
std::uint64_t bernoulli_fire_threshold(double rate) noexcept;

class ArrivalBatch {
 public:
  /// Seeds one stream per node exactly as the scalar path did
  /// (Xoshiro256(cfg.seed).split(id)) and derives the integer thresholds
  /// from the configured arrival process.
  ArrivalBatch(const SimConfig& cfg, const topo::FaultSet& faults,
               topo::NodeId nodes);

  /// Advances every alive node's stream by this cycle's fixed draw count
  /// (Bernoulli: one; MMPP: transition + emission) and records which nodes
  /// fired. Dead nodes' streams and burst states are untouched.
  void generate();

  /// Fired flags as 8-node words for a sparse scan: bits of word w cover
  /// nodes [8w, 8w+8), one byte per node (0 or 1), zero-padded past `nodes`.
  const std::uint64_t* fired_words() const noexcept {
    return reinterpret_cast<const std::uint64_t*>(fired_.data());
  }
  std::size_t fired_word_count() const noexcept { return fired_.size() / 8; }
  bool fired(topo::NodeId id) const noexcept { return fired_[id] != 0; }

  /// Scalar-generator round-trip for the data-dependent draws that follow a
  /// fire (destination choice). The returned generator continues the node's
  /// stream exactly where the batch pass left it; store_rng writes the
  /// advanced state back.
  util::Xoshiro256 extract_rng(topo::NodeId id) const noexcept {
    const std::uint64_t s[4] = {s0_[id], s1_[id], s2_[id], s3_[id]};
    return util::Xoshiro256::from_state(s);
  }
  void store_rng(topo::NodeId id, const util::Xoshiro256& rng) noexcept {
    std::uint64_t s[4];
    rng.save_state(s);
    s0_[id] = s[0];
    s1_[id] = s[1];
    s2_[id] = s[2];
    s3_[id] = s[3];
  }

 private:
  void generate_bernoulli();
  void generate_mmpp();

  std::size_t n_ = 0;        ///< node count
  std::size_t padded_ = 0;   ///< n_ rounded up to a multiple of 8
  Arrivals kind_ = Arrivals::kBernoulli;

  // xoshiro256** state, one word-array per state slot (index = node id).
  std::vector<std::uint64_t> s0_, s1_, s2_, s3_;
  /// All-ones for alive nodes, zero for failed ones (blend mask).
  std::vector<std::uint64_t> alive_;
  /// MMPP burst state as a full-width mask (all-ones = in burst).
  std::vector<std::uint64_t> burst_;
  std::vector<std::uint8_t> fired_;  ///< 1 per fired node, padded_ long

  // Integer fire thresholds (see bernoulli_fire_threshold).
  std::uint64_t t_fire_ = 0;   ///< Bernoulli rate
  std::uint64_t t_enter_ = 0;  ///< MMPP idle→burst transition
  std::uint64_t t_leave_ = 0;  ///< MMPP burst→idle transition
  std::uint64_t t_burst_ = 0;  ///< MMPP emission while in burst
  std::uint64_t t_idle_ = 0;   ///< MMPP emission while idle
};

}  // namespace kncube::sim
