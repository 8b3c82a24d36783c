#ifndef DEEPDIVE_ENGINE_RULE_EVALUATOR_H_
#define DEEPDIVE_ENGINE_RULE_EVALUATOR_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dsl/ast.h"
#include "dsl/program.h"
#include "storage/database.h"
#include "storage/delta_table.h"
#include "util/status.h"

namespace deepdive::engine {

/// Callback invoked once per derivation. `values` holds the binding of every
/// rule variable (indexed by the compiled slot map); `sign` is +1 for a
/// derivation gained, -1 for one lost (always +1 in full evaluation).
using BindingCallback =
    std::function<void(const std::vector<Value>& values, int64_t sign)>;

/// A compiled conjunctive rule body: atoms bound to tables, variables mapped
/// to slots. Supports
///   * full evaluation (all derivations over the current database), and
///   * delta evaluation: given per-relation set-level deltas, enumerates
///     exactly the derivations gained/lost, using the standard telescoping
///     expansion  Join(N...) - Join(O...) = sum_j N..N Δ_j O..O
///     which is the "delta rule" evaluation of DRed/counting [21] and
///     handles self-joins (e.g. rule R1 of Example 2.2) correctly.
///
/// The compiled body holds Table pointers; it must be recompiled if tables
/// are dropped/recreated (not merely mutated).
class CompiledRuleBody {
 public:
  static StatusOr<CompiledRuleBody> Compile(const dsl::Program& program,
                                            const Database& db,
                                            const std::vector<dsl::Atom>& body,
                                            const std::vector<dsl::Condition>& conditions);

  /// Slot index for each variable name appearing in the body. Immutable
  /// after construction; the evaluator itself is used single-threaded.
  const std::map<std::string, int>& var_slots() const { return var_slots_; }
  size_t num_slots() const { return var_slots_.size(); }

  /// Enumerates all derivations in the current database state: a nested loop
  /// over the body's atoms in declared order (positive atoms first), each
  /// probing the index of its first constant or bound column. When
  /// `rows_visited` is given, adds the table rows and delta entries the join
  /// enumerated to it.
  void EvaluateFull(const BindingCallback& fn, uint64_t* rows_visited = nullptr) const;

  /// Enumerates derivations gained/lost given set-level deltas (count sign
  /// +1 = tuple appeared, -1 = disappeared) for some body relations. Tables
  /// must already be in the NEW state (deltas applied). Relations absent
  /// from `deltas` are treated as unchanged. Errors if a negated atom's
  /// relation changed (unsupported; see CheckNegatedUnchanged).
  ///
  /// Each telescoping term starts its join at its DELTA atom and reaches the
  /// other atoms through column indexes, so it costs O(|delta| x fan-out),
  /// not O(table). Each term's bindings are emitted in the order of the
  /// declared-order nested loop over that term (NEW and OLD rows by RowId,
  /// OLD add-backs of deleted tuples after them, DELTA entries in
  /// DeltaTable::ForEach order), so derivation counts, row ids and ground
  /// ids downstream do not depend on the join order.
  Status EvaluateDelta(const std::map<std::string, const DeltaTable*>& deltas,
                       const BindingCallback& fn,
                       uint64_t* rows_visited = nullptr) const;

  /// Delta evaluation's one precondition: no negated atom reads a relation
  /// for which `changed` returns true. Returns Unimplemented naming the first
  /// such relation. EvaluateDelta checks it itself; a caller that must
  /// reject an update before changing any table checks it up front.
  Status CheckNegatedUnchanged(
      const std::function<bool(const std::string&)>& changed) const;

  // ---- sharded full evaluation ----
  //
  // The driver atom (first body atom) defines a scan domain that can be
  // partitioned into contiguous ranges; evaluating each range independently
  // and concatenating the results in range order reproduces EvaluateFull
  // exactly. This is what lets the grounder run shards on a thread pool and
  // still build a bit-identical graph.

  /// True when the driver atom has a constant term: EvaluateFull then probes
  /// the driver's column index (O(matching rows)), which usually beats a
  /// sharded full scan — callers should prefer the sequential path for such
  /// bodies.
  bool DriverHasConstantTerm() const;

  /// Size of the full-evaluation driver domain (the driver table's row-slot
  /// count), or 0 if the body is not shardable (empty or negation-only).
  size_t FullDriverDomain() const;

  /// Enumerates exactly the derivations whose driver row-slot falls in
  /// [begin, end). EvaluateFull == EvaluateFullRange(0, FullDriverDomain()).
  /// Thread-safe against concurrent ranges once PrewarmIndexes() has run.
  void EvaluateFullRange(size_t begin, size_t end, const BindingCallback& fn,
                         uint64_t* rows_visited = nullptr) const;

  /// Builds every column index full evaluation will probe. Call before
  /// evaluating ranges concurrently: index construction is lazy and not
  /// thread-safe, but probing built indexes is.
  void PrewarmIndexes() const;

 private:
  struct TermPlan {
    bool is_var = false;
    int slot = -1;       // if is_var
    Value constant;      // if !is_var
  };
  struct AtomPlan {
    const Table* table = nullptr;
    std::string relation;
    bool negated = false;
    std::vector<TermPlan> terms;
  };
  struct CondPlan {
    TermPlan lhs;
    dsl::CompareOp op = dsl::CompareOp::kEq;
    TermPlan rhs;
  };

  /// Which state of an atom's relation a telescoping term reads: NEW (the
  /// tables as they are), OLD (NEW minus insertions plus deletions), or the
  /// delta entries themselves.
  enum class AtomMode { kCurrent, kOld, kDelta };

  /// One atom of a join order. Which variables are bound before an atom
  /// depends only on the order (matching binds every variable of an atom),
  /// so the probe column and the binding terms are fixed when it is planned.
  struct JoinStep {
    size_t atom = 0;
    AtomMode mode = AtomMode::kCurrent;
    const DeltaTable* delta = nullptr;  // for kOld and kDelta
    int probe_col = -1;                 // first constant or bound column; -1 = scan
    std::vector<bool> binds;            // per term: first binding of its variable
    RowId row_begin = 0;                // row-id range enumerated (sharded full
    RowId row_end = kInvalidRowId;      // evaluation restricts the driver's)
  };

  /// Mutable state of one join: slot values, and per positive atom the
  /// position of its current tuple in the declared-order nested loop.
  struct JoinState {
    JoinState(size_t slots, size_t atoms) : values(slots), keys(atoms) {}
    std::vector<Value> values;
    std::vector<uint64_t> keys;
    uint64_t rows_visited = 0;
  };

  /// Plans a join over every atom. Without `start`, atoms go in declared
  /// order. With it, `start` goes first; then, repeatedly, the lowest-index
  /// positive atom with a constant or bound column (a scan only when no
  /// remaining atom has one); negated atoms last.
  std::vector<JoinStep> PlanJoin(std::optional<size_t> start) const;

  /// Runs `steps` from `depth` on, calling `fn` for every binding that
  /// satisfies the conditions.
  void Join(const std::vector<JoinStep>& steps, size_t depth, int64_t sign,
            JoinState* state, const BindingCallback& fn) const;

  /// Runs one telescoping term's join and emits its bindings stable-sorted by
  /// their positive atoms' keys, taken in declared order.
  void EvaluateDeltaTerm(const std::vector<JoinStep>& steps, const BindingCallback& fn,
                         uint64_t* rows_visited) const;

  /// Matches the atom's terms against `tuple` under `step`'s binding plan,
  /// writing the slots it binds; returns false on mismatch.
  bool MatchTuple(const AtomPlan& atom, const JoinStep& step, const Tuple& tuple,
                  std::vector<Value>* values) const;

  bool ConditionsHold(const std::vector<Value>& values) const;

  /// True when the body is non-empty and its driver atom is positive.
  bool DriverShardable() const { return !atoms_.empty() && !atoms_[0].negated; }

  std::vector<AtomPlan> atoms_;  // positive atoms first, then negated ones
  size_t num_positive_ = 0;
  std::vector<CondPlan> conditions_;
  std::map<std::string, int> var_slots_;
};

/// Evaluates a comparison between two concrete values.
bool EvalCompare(dsl::CompareOp op, const Value& lhs, const Value& rhs);

/// Projects rule-head terms from a full variable binding.
Tuple ProjectHead(const std::vector<dsl::Term>& head_terms,
                  const std::map<std::string, int>& slots,
                  const std::vector<Value>& values);

}  // namespace deepdive::engine

#endif  // DEEPDIVE_ENGINE_RULE_EVALUATOR_H_
