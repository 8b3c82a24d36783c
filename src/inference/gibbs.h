#ifndef DEEPDIVE_INFERENCE_GIBBS_H_
#define DEEPDIVE_INFERENCE_GIBBS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "factor/compiled_graph.h"
#include "inference/world.h"
#include "util/bitvector.h"
#include "util/random.h"

namespace deepdive::inference {

struct GibbsOptions {
  size_t burn_in_sweeps = 50;
  size_t sample_sweeps = 200;
  uint64_t seed = 1;
  bool random_init = true;
  /// When true, evidence variables are resampled like query variables
  /// (the "free" chain of weight learning).
  bool sample_evidence = false;
  /// Cooperative cancellation / budget hook, polled between sweeps of
  /// ParallelGibbsSampler::SampleChain — including burn-in, so a time budget
  /// can stop a chain that would otherwise blow it before the first sample.
  /// Returning true abandons the chain. Never consumes RNG state, so a hook
  /// that never fires leaves results bit-identical. With several replicas
  /// the hook is polled concurrently from replica workers, so it must be
  /// thread-safe (the engine's hooks read an atomic flag and a monotonic
  /// timer, which is).
  std::function<bool()> interrupt;
};

/// Per-variable marginal estimates plus chain accounting.
struct MarginalResult {
  std::vector<double> marginals;  // P(v = 1)
  size_t sweeps = 0;
  size_t flips = 0;
};

/// Reusable per-group accumulation buffer for conditional evaluation.
/// Callers that evaluate many conditionals (sweeps, learners, parallel
/// workers) keep one per thread so the inner loop never allocates; the
/// sampler itself holds no mutable state and can be shared across threads.
struct GibbsScratch {
  std::vector<std::pair<factor::GroupId, int64_t>> touched;
};

namespace detail {

/// Core conditional computation, shared by the sequential and parallel
/// samplers. `WorldT` is World or AtomicWorld: it must provide value(v),
/// GroupSat(g) and ClauseUnsat(c); the parallel sampler's atomic world may
/// return stale reads under Hogwild sweeps (the races it tolerates by
/// design).
template <typename WorldT>
double ConditionalLogOddsImpl(const factor::CompiledGraph& graph, const WorldT& world,
                              factor::VarId v, GibbsScratch* scratch) {
  double log_odds = 0.0;

  // Groups where v is the head: W(v=1) - W(v=0) = 2 w g(n); n does not
  // depend on v because clauses may not contain their own head.
  for (factor::GroupId g : graph.HeadGroups(v)) {
    const factor::CompiledGroup& group = graph.group(g);
    log_odds += 2.0 * graph.WeightValue(group.weight) *
                factor::GCount(group.semantics, world.GroupSat(g));
  }

  // Groups where v appears in clause bodies: accumulate dn = n(v=1) - n(v=0)
  // per group, then add w sign(head) (g(n1) - g(n0)).
  auto& touched = scratch->touched;
  touched.clear();
  const bool cur = world.value(v);
  const std::span<const factor::CompiledBodyRef> refs = graph.BodyRefs(v);
  for (size_t i = 0; i < refs.size(); ++i) {
    const factor::CompiledBodyRef& ref = refs[i];
    // v's literals in one clause are adjacent refs (Compile and Splice walk
    // clauses in order) and count as one: v's unsatisfied literals there.
    int32_t v_unsat = (cur != static_cast<bool>(ref.negated)) ? 0 : 1;
    bool both_signs = false;
    for (; i + 1 < refs.size() && refs[i + 1].clause == ref.clause; ++i) {
      both_signs |= refs[i + 1].negated != ref.negated;
      v_unsat += (cur != static_cast<bool>(refs[i + 1].negated)) ? 0 : 1;
    }
    if (both_signs) continue;  // holds v and !v: never satisfied
    const factor::GroupId clause_group = graph.ClauseGroup(ref.clause);
    // Other literals of the clause satisfied?
    const int32_t others_unsat = world.ClauseUnsat(ref.clause) - v_unsat;
    if (others_unsat != 0) continue;  // clause state independent of v
    const int64_t dn = ref.negated ? -1 : +1;
    bool found = false;
    for (auto& [gid, acc] : touched) {
      if (gid == clause_group) {
        acc += dn;
        found = true;
        break;
      }
    }
    if (!found) touched.emplace_back(clause_group, dn);
  }
  for (const auto& [gid, dn] : touched) {
    if (dn == 0) continue;
    const factor::CompiledGroup& group = graph.group(gid);
    const int64_t n_now = world.GroupSat(gid);
    int64_t n1 = cur ? n_now : n_now + dn;
    int64_t n0 = cur ? n_now - dn : n_now;
    if constexpr (!std::is_same_v<WorldT, World>) {
      // A stale group count may lag the clause counts it was read beside,
      // which would put a count below 0; g(n) is defined from 0.
      n1 = std::max<int64_t>(n1, 0);
      n0 = std::max<int64_t>(n0, 0);
    }
    const double sign = world.value(group.head) ? 1.0 : -1.0;
    log_odds += graph.WeightValue(group.weight) * sign *
                (factor::GCount(group.semantics, n1) - factor::GCount(group.semantics, n0));
  }
  return log_odds;
}

/// Resamples positions [begin, end) of `vars` (or variable ids [begin, end)
/// when `vars` is null) into `world`, consuming `rng` once per sampleable
/// variable. The one sweep loop shared by the sequential sampler and every
/// Hogwild worker — keeping a single copy is what guarantees the
/// num_threads == 1 configurations stay bit-identical to GibbsSampler.
template <typename WorldT>
size_t SweepRangeImpl(const factor::CompiledGraph& graph, WorldT* world, Rng* rng,
                      GibbsScratch* scratch, const std::vector<factor::VarId>* vars,
                      size_t begin, size_t end, bool sample_evidence) {
  size_t flips = 0;
  for (size_t i = begin; i < end; ++i) {
    const factor::VarId v =
        vars != nullptr ? (*vars)[i] : static_cast<factor::VarId>(i);
    if (!sample_evidence && graph.IsEvidence(v)) continue;
    const double log_odds = ConditionalLogOddsImpl(graph, *world, v, scratch);
    const double p1 = 1.0 / (1.0 + std::exp(-log_odds));
    const bool new_value = rng->Bernoulli(p1);
    if (new_value != world->value(v)) {
      world->Flip(v, new_value);
      ++flips;
    }
  }
  return flips;
}

}  // namespace detail

/// Systematic-scan Gibbs sampler over the grouped factor representation
/// (Section 2.5), on the flat CSR CompiledGraph (see compiled_graph.h). The
/// conditional for one variable costs O(degree): head groups contribute
/// 2 w g(n); body memberships contribute w sign(head) (g(n|v=1) - g(n|v=0))
/// via the maintained clause statistics.
///
/// The sampler is stateless (all scratch is caller- or call-local), so one
/// `const` instance can be shared by any number of threads as long as each
/// thread uses its own World/Rng/GibbsScratch.
class GibbsSampler {
 public:
  explicit GibbsSampler(const factor::CompiledGraph* graph);

  /// The frozen graph (see CompiledGraph's thread contract).
  const factor::CompiledGraph& graph() const { return *graph_; }

  /// log [ Pr(v=1 | rest) / Pr(v=0 | rest) ] in `world`. The scratch overload
  /// is allocation-free after warm-up; the convenience overload pays one
  /// small allocation per call.
  double ConditionalLogOdds(const World& world, factor::VarId v,
                            GibbsScratch* scratch) const;
  double ConditionalLogOdds(const World& world, factor::VarId v) const;

  /// One systematic sweep over sampleable variables. Returns #flips.
  size_t Sweep(World* world, Rng* rng, bool sample_evidence = false) const;

  /// One sweep restricted to the given variables (decomposition groups).
  size_t SweepVars(World* world, Rng* rng,
                   const std::vector<factor::VarId>& vars) const;

  /// Runs burn-in + sampling sweeps and averages indicator values.
  MarginalResult EstimateMarginals(const GibbsOptions& options) const;

  /// As above, but reuses the caller's world/chain (for warm chains).
  MarginalResult EstimateMarginals(const GibbsOptions& options, World* world,
                                   Rng* rng) const;

 private:
  const factor::CompiledGraph* graph_;
};

/// A sequential Gibbs chain over a CompiledGraph that reuses a variable's
/// conditional until a variable it reads has flipped.
///
/// Given the graph's structure, weights and evidence, a conditional is a pure
/// function of the values of the other members (head and clause literals) of
/// the groups its variable is in. The chain keeps each variable's last
/// p1 = 1/(1+exp(-log_odds)) and a dirty flag, all dirty at start; a dirty
/// visit runs detail::ConditionalLogOddsImpl, a clean one reuses p1, and a
/// flip marks every variable sharing a group with the flipped one dirty.
/// Every visit still draws exactly one Bernoulli, so RNG consumption, flips
/// and the world are bit-identical to GibbsSampler::SweepVars run from the
/// same world and Rng.
///
/// Two cases are handled apart. A variable occurring more than once in one
/// of its groups is on its own list, so its own flip marks it dirty; the
/// conditional reads no own value (a clause's literals of one variable count
/// once), so this only costs a recomputation. Members of a group with more than
/// kMaxCachedGroupSize members are recomputed on every visit and their flips
/// mark nothing through that group, which bounds construction and marking by
/// O(literals x kMaxCachedGroupSize) instead of O(sum of group size^2).
///
/// Contract: the graph's structure, weights and evidence stay frozen for the
/// chain's lifetime, and the world it owns changes only through SweepVars.
/// That is why the other sweeps keep the plain kernel: Hogwild workers flip
/// shared variables concurrently (a cached conditional could miss a racing
/// flip), and the learner moves weights every epoch.
class CompiledGibbsChain {
 public:
  static constexpr size_t kMaxCachedGroupSize = 64;

  /// Takes over `world`, whose graph() the chain sweeps; O(graph) set-up.
  explicit CompiledGibbsChain(World world);

  /// The chain's world; single-owner, read on the thread that sweeps.
  const World& world() const { return world_; }

  /// One sweep over `vars`, skipping evidence variables: the sweep of
  /// GibbsSampler::SweepVars. Returns #flips.
  size_t SweepVars(Rng* rng, const std::vector<factor::VarId>& vars);

  /// Sampled visits so far, and how many of them evaluated the conditional.
  size_t visits() const { return visits_; }
  size_t conditionals_evaluated() const { return conditionals_evaluated_; }

 private:
  // Per-variable cache state bits.
  static constexpr uint8_t kDirty = 1;     // recompute on the next visit
  static constexpr uint8_t kUncached = 2;  // in a group above the size cap

  const factor::CompiledGraph* graph_;
  World world_;
  GibbsScratch scratch_;
  /// CSR: variable -> variables whose conditional reads it (itself included
  /// when it occurs twice in one group), over groups within the size cap.
  std::vector<size_t> dependent_offsets_;
  std::vector<factor::VarId> dependents_;
  std::vector<double> p1_;
  std::vector<uint8_t> state_;
  size_t visits_ = 0;
  size_t conditionals_evaluated_ = 0;
};

}  // namespace deepdive::inference

#endif  // DEEPDIVE_INFERENCE_GIBBS_H_
