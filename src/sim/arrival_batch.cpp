#include "sim/arrival_batch.hpp"

#include <cmath>

#include "sim/traffic.hpp"
#include "util/assert.hpp"

namespace kncube::sim {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

}  // namespace

std::uint64_t bernoulli_fire_threshold(double rate) noexcept {
  constexpr std::uint64_t kOne = 1ull << 53;  // draws are in [0, 2^53)
  if (!(rate > 0.0)) return 0;
  if (rate >= 1.0) return kOne;
  // First guess, then nudge to the exact boundary of the downward-closed set
  // {m : (double)m * 2^-53 < rate}. Both conversions below are exact (m <
  // 2^53 and the scale is a power of two), so the two loops terminate after
  // at most a step or two and leave T with: fires ⟺ m < T.
  auto t = static_cast<std::uint64_t>(std::ceil(rate * 0x1p53));
  while (t > 0 && static_cast<double>(t - 1) * 0x1p-53 >= rate) --t;
  while (t < kOne && static_cast<double>(t) * 0x1p-53 < rate) ++t;
  return t;
}

ArrivalBatch::ArrivalBatch(const SimConfig& cfg, const topo::FaultSet& faults,
                           topo::NodeId nodes)
    : n_(nodes), padded_((nodes + 7) & ~std::size_t{7}), kind_(cfg.arrivals) {
  s0_.resize(padded_, 0);
  s1_.resize(padded_, 0);
  s2_.resize(padded_, 0);
  s3_.resize(padded_, 0);
  alive_.resize(padded_, 0);
  fired_.assign(padded_, 0);

  util::Xoshiro256 root(cfg.seed);
  for (topo::NodeId id = 0; id < nodes; ++id) {
    std::uint64_t s[4];
    root.split(id).save_state(s);
    s0_[id] = s[0];
    s1_[id] = s[1];
    s2_[id] = s[2];
    s3_[id] = s[3];
    alive_[id] = faults.router_failed(id) ? 0 : ~std::uint64_t{0};
  }

  switch (kind_) {
    case Arrivals::kBernoulli:
      t_fire_ = bernoulli_fire_threshold(cfg.injection_rate);
      break;
    case Arrivals::kMmpp: {
      // Reuse the reference implementation's rate derivation so the two
      // paths cannot drift; every node starts idle, as the scalar class did.
      const MmppArrivals ref(cfg.injection_rate, cfg.mmpp);
      t_enter_ = bernoulli_fire_threshold(cfg.mmpp.p_enter_burst);
      t_leave_ = bernoulli_fire_threshold(cfg.mmpp.p_leave_burst);
      t_burst_ = bernoulli_fire_threshold(ref.burst_rate());
      t_idle_ = bernoulli_fire_threshold(ref.idle_rate());
      burst_.resize(padded_, 0);
      break;
    }
  }
}

void ArrivalBatch::generate() {
  if (kind_ == Arrivals::kBernoulli) {
    generate_bernoulli();
  } else {
    generate_mmpp();
  }
}

// Both kernels are written branch-free so the compiler can vectorize them.
void ArrivalBatch::generate_bernoulli() {
  std::uint64_t* s0 = s0_.data();
  std::uint64_t* s1 = s1_.data();
  std::uint64_t* s2 = s2_.data();
  std::uint64_t* s3 = s3_.data();
  const std::uint64_t* alive = alive_.data();
  std::uint8_t* fired = fired_.data();
  const std::uint64_t tf = t_fire_;
  for (std::size_t i = 0; i < padded_; ++i) {
    const std::uint64_t m = alive[i];
    const std::uint64_t x = rotl(s1[i] * 5, 7) * 9;
    const std::uint64_t t = s1[i] << 17;
    std::uint64_t n2 = s2[i] ^ s0[i];
    std::uint64_t n3 = s3[i] ^ s1[i];
    const std::uint64_t n1 = s1[i] ^ n2;
    const std::uint64_t n0 = s0[i] ^ n3;
    n2 ^= t;
    n3 = rotl(n3, 45);
    // Blend: dead lanes keep their old state (stream must not advance).
    s0[i] ^= (n0 ^ s0[i]) & m;
    s1[i] ^= (n1 ^ s1[i]) & m;
    s2[i] ^= (n2 ^ s2[i]) & m;
    s3[i] ^= (n3 ^ s3[i]) & m;
    fired[i] = static_cast<std::uint8_t>(((x >> 11) < tf) & m);
  }
}

void ArrivalBatch::generate_mmpp() {
  std::uint64_t* s0 = s0_.data();
  std::uint64_t* s1 = s1_.data();
  std::uint64_t* s2 = s2_.data();
  std::uint64_t* s3 = s3_.data();
  std::uint64_t* burst = burst_.data();
  const std::uint64_t* alive = alive_.data();
  std::uint8_t* fired = fired_.data();
  for (std::size_t i = 0; i < padded_; ++i) {
    const std::uint64_t m = alive[i];
    // Draw 1: state transition (leave when bursting, enter when idle).
    const std::uint64_t x1 = rotl(s1[i] * 5, 7) * 9;
    std::uint64_t t = s1[i] << 17;
    std::uint64_t a2 = s2[i] ^ s0[i];
    std::uint64_t a3 = s3[i] ^ s1[i];
    const std::uint64_t a1 = s1[i] ^ a2;
    const std::uint64_t a0 = s0[i] ^ a3;
    a2 ^= t;
    a3 = rotl(a3, 45);
    const std::uint64_t b = burst[i];
    const std::uint64_t leave = ~(std::uint64_t{0}) + ((x1 >> 11) >= t_leave_);
    const std::uint64_t enter = ~(std::uint64_t{0}) + ((x1 >> 11) >= t_enter_);
    std::uint64_t nb = (b & ~leave) | (~b & enter);
    // Draw 2: emission at the new state's rate.
    const std::uint64_t x2 = rotl(a1 * 5, 7) * 9;
    t = a1 << 17;
    std::uint64_t b2 = a2 ^ a0;
    std::uint64_t b3 = a3 ^ a1;
    const std::uint64_t b1 = a1 ^ b2;
    const std::uint64_t b0 = a0 ^ b3;
    b2 ^= t;
    b3 = rotl(b3, 45);
    const std::uint64_t temit = (nb & t_burst_) | (~nb & t_idle_);
    fired[i] = static_cast<std::uint8_t>(((x2 >> 11) < temit) & m);
    burst[i] ^= (nb ^ b) & m;
    s0[i] ^= (b0 ^ s0[i]) & m;
    s1[i] ^= (b1 ^ s1[i]) & m;
    s2[i] ^= (b2 ^ s2[i]) & m;
    s3[i] ^= (b3 ^ s3[i]) & m;
  }
}

}  // namespace kncube::sim
