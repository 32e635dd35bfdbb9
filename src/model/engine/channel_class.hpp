// Shared channel-class engine for the analytical models.
//
// Every model in this repository (uniform torus, hot-spot torus, hot-spot
// hypercube — and any future traffic pattern) has the same mathematical
// shape, inherited from the paper's eqs (16)-(30): a vector of per-channel-
// class mean service times S_c coupled through
//
//   S_c = B_c + 1 + continuation_c                                    (16-25)
//
// where B_c is a (possibly averaged) blocking delay computed from the
// traffic streams crossing the class's channels (eqs 26-30) and the
// continuation is the downstream service time — the previous hop of the same
// class, the entrance of another class, or the Lm-1 drain at the destination.
// The coupled system is closed by damped fixed-point iteration
// (src/model/solver).
//
// This header turns that shape into data: a model is *declared* as a set of
// channel classes (state slots), stream specifications whose inclusive
// service times are linear expressions over the state, and weighted blocking
// groups — then solved by one generic driver. The concrete models are thin
// builders over this engine (see DESIGN.md §4); the h = 0 agreement
// between the uniform and hot-spot torus models is structural, because both
// instantiate the same machinery with the same stream parameters.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/solver.hpp"

namespace kncube::model {

/// Blocking-delay variant, for the approximation ablation (bench A3):
/// the paper multiplies the busy probability into the M/G/1 wait (eq 26);
/// kPureWait uses the merged-stream wait alone.
enum class BlockingVariant : int { kPaper = 0, kPureWait = 1 };

/// Which service-time scale feeds a rho-like quantity (busy probability,
/// VC-occupancy chain). kInclusive uses the iterated blocking-inclusive
/// downstream latencies (the paper's letter); kTransmission uses the
/// contention-free holding times (bounded, bandwidth-oriented). See
/// DESIGN.md R8 and the ablation bench for the empirical comparison.
enum class ServiceBasis : int { kInclusive = 0, kTransmission = 1 };

namespace engine {

/// Linear expression over the iterated state vector:
///   value = constant + (sum_i weight_i * s[slot_i]) / divisor.
/// The divisor (rather than pre-scaled weights) keeps entrance averages
/// bit-identical to an accumulate-then-divide loop.
///
/// Storage is allocation-frugal: a single term (the overwhelmingly common
/// case — per-hop continuations and hot-stream service reads) lives inline,
/// and multi-term expressions share one immutable spill vector, so copying
/// an expression into the O(k^2) stream specifications of a large system is
/// a refcount bump instead of a heap allocation. Expressions are immutable
/// after construction; build multi-term ones with `weighted`.
struct StateExpr {
  double constant = 0.0;
  double divisor = 1.0;

  double eval(const std::vector<double>& s) const;
  bool empty() const noexcept {
    return inline_slot_ < 0 && !spill_ && constant == 0.0;
  }
  std::size_t term_count() const noexcept {
    return spill_ ? spill_->size() : (inline_slot_ >= 0 ? 1 : 0);
  }
  /// Invokes fn(slot, weight) for each term in insertion order.
  template <typename Fn>
  void for_each_term(Fn&& fn) const {
    if (spill_) {
      for (const auto& [slot, weight] : *spill_) fn(slot, weight);
    } else if (inline_slot_ >= 0) {
      fn(inline_slot_, inline_weight_);
    }
  }
  bool operator==(const StateExpr& o) const;

  static StateExpr constant_of(double c);
  static StateExpr slot(int index, double weight = 1.0);
  /// Mean of `count` consecutive slots starting at `first`.
  static StateExpr average(int first, int count);
  /// General form: constant + sum(terms)/divisor.
  static StateExpr weighted(double constant, double divisor,
                            std::vector<std::pair<int, double>> terms);

 private:
  using Terms = std::vector<std::pair<int, double>>;
  int inline_slot_ = -1;
  double inline_weight_ = 0.0;
  std::shared_ptr<const Terms> spill_;  ///< set when term_count() > 1
};

/// One traffic stream crossing a channel, with its blocking-inclusive
/// service time read from the state (eqs 26-30 inputs).
struct StreamSpec {
  double rate = 0.0;   ///< messages/cycle crossing the channel
  StateExpr inclusive; ///< blocking-inclusive downstream service time S
  double tx = 0.0;     ///< contention-free holding time (>= Lm)
};

/// Weighted mixture of per-channel blocking delays, shared by one or more
/// channel classes:
///   B = (sum_t weight_t * blocking(regular_t, hot_t)) / divisor.
/// An average over k channels uses unit weights and divisor k (eq 17-20); a
/// funnel/plain mixture uses weights f and 1-f with divisor 1.
struct BlockingSpec {
  struct Term {
    double weight = 1.0;
    StreamSpec regular;
    StreamSpec hot;
  };
  std::vector<Term> terms;
  double divisor = 1.0;
};

/// One channel class = one state slot, updated each sweep as
///   out[slot] = B + 1 + input_continuation(in) + output_continuation(out).
/// `output_continuation` implements the Gauss-Seidel recursions within a
/// sweep (eqs 16-25 chain along the path); every slot it references must
/// appear earlier in the system's evaluation order.
struct ChannelClass {
  std::string name;            ///< diagnostics only
  int blocking = -1;           ///< BlockingSpec index; -1 = contention-free
  StateExpr input_continuation;
  StateExpr output_continuation;
  double initial = 0.0;        ///< zero-load starting value for the iteration
};

/// Queueing-policy knobs shared by every blocking evaluation in a system.
struct EngineOptions {
  double service_floor = 1.0;  ///< Lm, the contention-free variance floor
  BlockingVariant blocking = BlockingVariant::kPaper;
  /// Service scale entering the busy probability Pb (eq 27).
  ServiceBasis busy_basis = ServiceBasis::kTransmission;
  /// Arrival-process index of dispersion fed to every waiting-time
  /// evaluation (engine/bursty.hpp). 1 = Bernoulli/Poisson arrivals, in
  /// which case every result is bitwise-identical to the pre-bursty engine.
  double arrival_idc = 1.0;
};

/// A declarative channel-class system: slots + blocking groups + evaluation
/// order. Slots are fixed at construction so builders can lay out and
/// cross-reference indices before filling in the classes.
class ChannelClassSystem {
 public:
  explicit ChannelClassSystem(int slots, EngineOptions options);

  int slots() const noexcept { return static_cast<int>(classes_.size()); }
  const EngineOptions& options() const noexcept { return options_; }

  void set_class(int slot, ChannelClass cls);
  /// Registers a blocking group; returns its index for ChannelClass::blocking.
  int add_blocking(BlockingSpec spec);

  /// Overrides the within-sweep evaluation order (default: slot order). Must
  /// be a permutation of [0, slots); output_continuation references must
  /// point to earlier entries.
  void set_eval_order(std::vector<int> order);

  std::vector<double> initial_state() const;

  /// Damped fixed-point solve (default FixedPointOptions). `state` holds the
  /// converged iterate on success. With `retry_stubborn`, a cold iteration
  /// that stalls without diverging is retried once with stronger damping
  /// and a doubled budget (R7). Models reach this only through
  /// engine::solve_point (engine/solve_point.hpp).
  ///
  /// `warm_start` (optional) seeds the iteration with a previously converged
  /// state for this system's layout — typically the fixed point of a nearby
  /// operating point, cutting the iteration count for continuation sweeps
  /// and saturation bisections. If the warm-started iteration fails for any
  /// reason the solver silently falls back to the zero-load start (plus the
  /// stubborn-point retry), so a warm start can never lose a point the cold
  /// path would solve; and because converged iterates are polished to
  /// the map's exact stationary point (see model/solver.hpp), a warm solve
  /// that converges returns results bit-identical to the converged cold
  /// solve. (The converse — a warm seed rescuing a point whose cold budget
  /// would expire without diverging — is possible in principle and would
  /// only add a converged point; see DESIGN.md §6.2.)
  FixedPointResult solve(std::vector<double>& state, bool retry_stubborn,
                         const std::vector<double>* warm_start) const;

 private:
  // Blocking specs are compiled at registration: every distinct inclusive
  // StateExpr is interned into a pool so a sweep evaluates it once, not once
  // per term — the entrance averages are shared by O(k^2) terms in the
  // hot-spot system, and blocking runs in the innermost fixed-point loop.
  struct CompiledStream {
    double rate = 0.0;
    double tx = 0.0;
    int inclusive = -1;  ///< pool index; -1 = identically zero
  };
  struct CompiledTerm {
    double weight = 1.0;
    CompiledStream regular;
    CompiledStream hot;
  };
  struct CompiledBlocking {
    std::vector<CompiledTerm> terms;
    double divisor = 1.0;
  };
  /// Per-solve scratch, allocated once per solve() rather than per sweep.
  struct Workspace {
    std::vector<double> expr_values;      ///< pool evaluations on the input
    std::vector<double> blocking_values;  ///< one per blocking group
    /// With transmission-basis blocking (the default) the blocking values
    /// read nothing from the state — Pb and the merged-stream wait depend
    /// only on rates and contention-free holding times — so they are
    /// computed on the first sweep and reused bit-for-bit afterwards. The
    /// inclusive basis (and with it the expr pool) stays per-sweep.
    bool blocking_cached = false;
  };

  struct ExprHash {
    std::size_t operator()(const StateExpr& e) const noexcept;
  };

  int intern(const StateExpr& expr);
  CompiledStream compile(const StreamSpec& spec);
  bool step(const std::vector<double>& in, std::vector<double>& out,
            Workspace& ws) const;
  bool blocking_value(const CompiledBlocking& spec,
                      const std::vector<double>& expr_values, double& out) const;

  EngineOptions options_;
  bool blocking_state_dependent_;
  std::vector<ChannelClass> classes_;
  std::vector<CompiledBlocking> blockings_;
  std::vector<StateExpr> expr_pool_;
  /// Hash index over expr_pool_ so interning the O(k^2) stream expressions
  /// of a large system is linear, not quadratic (the pool reaches several
  /// hundred entries for k = 32 and interning dominated system builds).
  std::unordered_map<StateExpr, int, ExprHash> expr_index_;
  std::vector<int> eval_order_;
};

}  // namespace engine
}  // namespace kncube::model
