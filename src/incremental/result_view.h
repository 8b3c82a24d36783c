#ifndef DEEPDIVE_INCREMENTAL_RESULT_VIEW_H_
#define DEEPDIVE_INCREMENTAL_RESULT_VIEW_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "incremental/update_report.h"
#include "incremental/snapshot.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_role.h"

namespace deepdive::incremental {

/// An immutable, versioned snapshot of the serving state, published
/// RCU-style. DeepDive, on its one serving thread, builds a fresh view at
/// the end of Initialize and of every update and publishes it with a
/// release store; any number of reader threads pin the current view via
/// ResultPublisher::Current() (surfaced as DeepDive::Query()) without taking
/// a lock and without ever blocking the writer. A pinned view keeps
/// answering with its epoch's marginals for as long as the shared_ptr is
/// held, no matter how many updates or snapshot swaps happen meanwhile —
/// snapshot isolation for queries while updates stream.
struct ResultView {
  /// Monotonically increasing publication counter of the publishing
  /// DeepDive. 0 = the empty pre-initialization view.
  uint64_t epoch = 0;

  /// Full marginal vector indexed by VarId, frozen at publication.
  std::vector<double> marginals;

  /// Per-relation tuple -> marginal index, entries sorted by tuple.
  std::unordered_map<std::string, std::vector<std::pair<Tuple, double>>>
      relations;

  /// Names of the program's query relations in declaration order, frozen at
  /// publication. Lets a view-only consumer (the serving stack's export
  /// handler) enumerate relations deterministically without touching the
  /// serving-thread-only program() accessor.
  std::vector<std::string> query_relations;
  /// Their schemas, in the same order and frozen with them, so that a
  /// connection thread can parse a tuple sent as text (FindTsv).
  std::vector<Schema> query_schemas;

  /// Copy of the report of the update that published this view (label
  /// "initialize" for the view published at the end of Initialize).
  UpdateReport report;

  /// The engine's serving materialization snapshot as of publication: its
  /// build statistics, install counter (0 = none installed yet) and the
  /// proposals left in its sample store. A snapshot installed between two
  /// publications (WaitForMaterialization) shows from the next view on.
  /// Zero on every view of a Rerun-mode DeepDive.
  MaterializationStats materialization;
  uint64_t snapshot_generation = 0;
  size_t samples_remaining = 0;

  /// The serving snapshot's Pr(0) marginals, pinned rather than copied: the
  /// aliasing shared_ptr keeps the whole MaterializationSnapshot alive, so a
  /// swap on the serving thread can no longer invalidate a reader mid-read.
  /// Empty while no snapshot is installed; null on the epoch-0 view and on
  /// every view of a Rerun-mode DeepDive.
  std::shared_ptr<const std::vector<double>> materialized_marginals;

  /// Program version of the publishing DeepDive: bumped on every rule
  /// addition/retraction (first-class rule deltas and fragment updates
  /// alike), so clients can observe program evolution, not just data
  /// evolution.
  uint64_t program_version = 0;
  /// Number of rules (deductive + factor) in the program at publication.
  uint64_t rule_count = 0;
  /// FNV-1a fingerprint over the canonical text of every rule in
  /// declaration order — two replicas serving the same program agree on it
  /// regardless of the add/retract path that got them there.
  uint64_t rules_fingerprint = 0;

  /// FNV-1a checksum over (epoch, marginals) stamped by Publish().
  /// Fingerprint() recomputes it from the fields, so a reader can assert
  /// that the view it pinned is internally consistent — the epoch matches
  /// the marginal vector contents it was published with.
  uint64_t content_hash = 0;

  /// Marginal probability of `tuple` under this view (0.5 if the relation or
  /// tuple is unknown), by binary search of the relation index.
  double MarginalOf(const std::string& relation, const Tuple& tuple) const;

  /// Sorted (tuple, marginal) entries of one relation, or nullptr if the
  /// view has no index for it.
  const std::vector<std::pair<Tuple, double>>* Relation(
      const std::string& relation) const;

  /// The first entry of `relation` whose tuple FormatTsvLine renders as
  /// exactly `tsv`, or nullptr. A query relation's tuple is parsed with its
  /// schema and binary-searched; since rendering is one-to-one on ints,
  /// bools, strings and NULL, no other tuple can match. Doubles (rendered
  /// with %g) and a string column's `\N` (NULL renders alike) fall back to
  /// scanning the rendered entries.
  const std::pair<Tuple, double>* FindTsv(const std::string& relation,
                                          const std::string& tsv) const;

  /// Recomputes the (epoch, marginals) checksum; equals content_hash on any
  /// correctly published view.
  uint64_t Fingerprint() const;
};

/// Single-writer / many-reader publication slot for ResultViews. Publish()
/// must be called from the one serving thread — REQUIRES(serving_thread),
/// so a stray writer is a compile error under Clang; Current() is callable
/// from any thread concurrently with Publish() and pins the view it read.
/// Current() never returns null: an empty epoch-0 view is installed at
/// construction.
class ResultPublisher {
 public:
  ResultPublisher();

  /// Pins the current view (any thread; an atomic acquire load).
  std::shared_ptr<const ResultView> Current() const {
    // ordering: acquire — pairs with Publish()'s release store so a reader
    // that pins a view also observes every field the writer froze into it.
    return slot_.load(std::memory_order_acquire);
  }

  /// Blocks until a view with epoch >= `min_epoch` has been published, then
  /// returns. Callable from any thread — this is the explicit readiness
  /// signal for readers that must not start before the writer's first real
  /// publication (min_epoch = 1): they block on the publication CondVar
  /// instead of polling Current() or sleeping through a grace window.
  void WaitForEpoch(uint64_t min_epoch) const EXCLUDES(wait_mu_);

  /// Epoch the next Publish() will stamp. Writer thread only.
  uint64_t next_epoch() const REQUIRES(serving_thread) { return last_epoch_ + 1; }
  /// Epoch of the most recently published view. Writer thread only.
  uint64_t last_epoch() const REQUIRES(serving_thread) { return last_epoch_; }

  /// Stamps `view` with the next epoch and its content checksum, then
  /// publishes it (release store). Writer thread only; the view must not be
  /// mutated afterwards. Returns the stamped epoch.
  uint64_t Publish(std::shared_ptr<ResultView> view) REQUIRES(serving_thread);

 private:
  std::atomic<std::shared_ptr<const ResultView>> slot_;
  uint64_t last_epoch_ GUARDED_BY(serving_thread) = 0;

  /// Readiness signaling for WaitForEpoch: Publish() mirrors the epoch it
  /// stamped into this guarded copy and notifies. Kept separate from the
  /// lock-free slot_ so Current() stays a single acquire load.
  mutable Mutex wait_mu_;
  mutable CondVar published_cv_;
  uint64_t published_epoch_ GUARDED_BY(wait_mu_) = 0;
};

/// Writes one relation of a pinned view as "<marginal>\t<cols...>" TSV
/// lines, skipping entries below `threshold`. A relation absent from the
/// view (e.g. a query relation with no candidate tuples yet) writes nothing.
/// The view is immutable, so this is safe on any thread while updates keep
/// streaming on the serving thread.
Status WriteRelationTsv(const ResultView& view, const std::string& relation,
                        std::FILE* out, double threshold);

}  // namespace deepdive::incremental

#endif  // DEEPDIVE_INCREMENTAL_RESULT_VIEW_H_
