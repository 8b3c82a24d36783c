#include "core/deepdive.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "factor/compiled_graph.h"
#include "grounding/grounding_options.h"
#include "inference/compiled_inference.h"
#include "inference/gibbs.h"
#include "inference/learner.h"
#include "inference/replicated_gibbs.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace deepdive::core {

using factor::GraphDelta;
using factor::VarId;
using factor::WeightId;

namespace {
/// AddRule tickets kept for exact-restore retraction. One is enough for the
/// miner's add-trial-retract loop; a few more absorb interactive sessions
/// that stack several adds before retracting the latest.
constexpr size_t kMaxRuleJournal = 8;

/// The grounder reads only the thread count; its shard threshold keeps its
/// default.
grounding::GroundingOptions GroundingOptionsFor(const inference::Parallelism& parallelism) {
  grounding::GroundingOptions options;
  options.num_threads = parallelism.num_threads;
  return options;
}
}  // namespace

DeepDive::DeepDive(dsl::Program program, DeepDiveConfig config)
    : program_(std::move(program)), config_(config) {}

StatusOr<std::unique_ptr<DeepDive>> DeepDive::Create(const std::string& program_source,
                                                     DeepDiveConfig config) {
  DD_ASSIGN_OR_RETURN(dsl::Program program, dsl::CompileProgram(program_source));
  std::unique_ptr<DeepDive> dd(new DeepDive(std::move(program), config));
  DD_RETURN_IF_ERROR(dd->program_.InstantiateSchema(&dd->db_));
  return dd;
}

Status DeepDive::LoadRows(const std::string& relation, const std::vector<Tuple>& rows) {
  DD_CHECK(!initialized_) << "LoadRows must precede Initialize";
  Table* table = db_.GetTable(relation);
  if (table == nullptr) return Status::NotFound("no relation '" + relation + "'");
  for (const Tuple& row : rows) {
    DD_RETURN_IF_ERROR(table->Insert(row).status());
  }
  return Status::OK();
}

bool DeepDive::HasEvidence() const {
  for (VarId v = 0; v < ground_.graph.NumVariables(); ++v) {
    if (ground_.graph.IsEvidence(v)) return true;
  }
  return false;
}

Status DeepDive::Initialize() {
  DD_CHECK(!initialized_);
  views_ = std::make_unique<engine::ViewMaintainer>(&program_, &db_);
  DD_RETURN_IF_ERROR(views_->Initialize());

  grounder_ = std::make_unique<grounding::IncrementalGrounder>(
      &program_, &db_, &ground_, GroundingOptionsFor(config_.parallelism));
  DD_RETURN_IF_ERROR(grounder_->Initialize());
  DD_RETURN_IF_ERROR(grounder_->GroundAll().status());

  if (HasEvidence()) {
    inference::Learner learner(&ground_.graph, config_.parallelism);
    inference::LearnerOptions lopts = config_.learner;
    lopts.warmstart = false;
    lopts.seed = config_.seed;
    learner.Learn(lopts);
  }

  inference::GibbsOptions gopts = config_.gibbs;
  gopts.seed = Rng::MixSeed(config_.seed, /*stream=*/1);
  marginals_ =
      inference::EstimateMarginalsAuto(ground_.graph, gopts, config_.parallelism).marginals;
  for (VarId v = 0; v < ground_.graph.NumVariables(); ++v) {
    const auto ev = ground_.graph.EvidenceValue(v);
    if (ev.has_value()) marginals_[v] = *ev ? 1.0 : 0.0;
  }

  if (config_.mode == ExecutionMode::kIncremental) {
    inc_engine_ = std::make_unique<incremental::IncrementalEngine>(&ground_.graph,
                                                                   config_.parallelism);
    incremental::MaterializationOptions mopts = config_.materialization;
    mopts.seed = Rng::MixSeed(config_.seed, /*stream=*/2);
    if (mopts.async) {
      // Background materialization: Initialize returns while the snapshot
      // builds; early updates are served conservatively (rerun) until the
      // swap, exactly like updates that outrun a later remat.
      DD_RETURN_IF_ERROR(inc_engine_->MaterializeAsync(mopts));
    } else {
      DD_RETURN_IF_ERROR(inc_engine_->Materialize(mopts));
    }
  }
  initialized_ = true;
  // Publish the initial results: from here on Query() serves the grounded,
  // learned, inferred state to any thread.
  incremental::UpdateReport init_report;
  init_report.label = "initialize";
  init_report.graph_variables = ground_.graph.NumVariables();
  init_report.graph_factors = ground_.graph.NumActiveClauses();
  PublishView(&init_report);
  return Status::OK();
}

void DeepDive::PublishView(incremental::UpdateReport* report) {
  auto view = std::make_shared<incremental::ResultView>();
  view->marginals = marginals_;
  view->relations.reserve(ground_.relation_vars.size());
  // analysis:allow(determinism-unordered): each iteration fills exactly one
  // per-relation bucket of the keyed output map and sorts it by tuple below;
  // no cross-relation state is touched, so visit order cannot reach the view.
  for (const auto& [relation, vars] : ground_.relation_vars) {
    auto& entries = view->relations[relation];
    entries.reserve(vars.size());
    for (const VarId var : vars) {
      entries.emplace_back(ground_.var_tuples[var].second,
                           var < marginals_.size() ? marginals_[var] : 0.5);
    }
    // Sorted by tuple, both for deterministic enumeration (pipelines with
    // different variable-creation histories must compare positionally) and
    // for MarginalOf's binary search.
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  for (const dsl::RelationDecl& rel : program_.relations()) {
    if (rel.kind == dsl::RelationKind::kQuery) {
      view->query_relations.push_back(rel.name);
      view->query_schemas.push_back(rel.schema);
    }
  }
  view->program_version = program_version_;
  view->rule_count = NumRules();
  view->rules_fingerprint = RulesFingerprint();
  report->epoch = publisher_.next_epoch();
  view->report = *report;
  if (inc_engine_ != nullptr) {
    // Copy the serving snapshot's facts and pin (don't copy) its Pr(0)
    // marginals: the aliasing pointer keeps the whole snapshot alive for
    // readers of this view across later materialization swaps.
    const std::shared_ptr<const incremental::MaterializationSnapshot> snapshot =
        inc_engine_->snapshot();
    view->materialization = snapshot->stats;
    view->snapshot_generation = snapshot->generation;
    view->samples_remaining = snapshot->store.remaining();
    view->materialized_marginals = std::shared_ptr<const std::vector<double>>(
        snapshot, &snapshot->materialized_marginals);
  }
  publisher_.Publish(std::move(view));
}

incremental::UpdateReport DeepDive::FinishUpdate(
    incremental::UpdateReport report, const incremental::UpdateOutcome* outcome) {
  if (outcome != nullptr) {
    marginals_ = outcome->marginals;
    report.strategy = outcome->fell_back_to_variational
                          ? incremental::Strategy::kVariational
                          : outcome->strategy;
    report.acceptance_rate = outcome->acceptance_rate;
    report.affected_vars = outcome->affected_vars;
    report.exact_vars = outcome->exact_vars;
    report.sampled_vars = outcome->sampled_vars;
  }
  report.graph_variables = ground_.graph.NumVariables();
  report.graph_factors = ground_.graph.NumActiveClauses();
  // Publish this update's results as a fresh immutable view (stamping
  // report.epoch); views pinned before this line keep serving the previous
  // epoch's marginals untouched.
  PublishView(&report);
  ++updates_applied_;
  return report;
}

uint64_t DeepDive::RulesFingerprint() const {
  // Canonical text in declaration order: two programs with the same rules
  // fingerprint identically regardless of the add/retract path taken.
  std::string text;
  for (const dsl::DeductiveRule& rule : program_.deductive_rules()) {
    text += dsl::DeductiveRuleToString(rule);
    text += '\n';
  }
  for (const dsl::FactorRule& rule : program_.factor_rules()) {
    text += dsl::FactorRuleToString(rule);
    text += '\n';
  }
  return factor::Fnv1aHash(text.data(), text.size());
}

StatusOr<incremental::UpdateReport> DeepDive::ApplyUpdate(
    const UpdateSpec& update) {
  DD_CHECK(initialized_) << "call Initialize first";
  incremental::UpdateReport report;
  report.label = update.label;

  // ---- shared prologue: program fragment + relational changes ----
  Timer ground_timer;

  dsl::Program fragment;
  const bool has_fragment = !update.add_rules.empty();
  if (has_fragment) {
    DD_ASSIGN_OR_RETURN(fragment, dsl::AnalyzeFragment(program_, update.add_rules));
  }
  // Every changed relation must exist or be declared by the fragment; check
  // before any table is created or the program merged.
  auto known = [&](const std::string& relation) {
    if (db_.HasTable(relation)) return true;
    for (const dsl::RelationDecl& rel : fragment.relations()) {
      if (rel.name == relation) return true;
    }
    return false;
  };
  for (const auto& [relation, rows] : update.inserts) {
    if (!known(relation)) {
      return Status::NotFound("insert into unknown relation '" + relation + "'");
    }
  }
  for (const auto& [relation, rows] : update.deletes) {
    if (!known(relation)) {
      return Status::NotFound("delete from unknown relation '" + relation + "'");
    }
  }
  if (has_fragment) {
    // New relations need tables before any data lands in them.
    for (const dsl::RelationDecl& rel : fragment.relations()) {
      if (!db_.HasTable(rel.name)) {
        DD_RETURN_IF_ERROR(db_.CreateTable(rel.name, rel.schema).status());
      }
    }
    DD_RETURN_IF_ERROR(program_.Merge(fragment));
    // The view layer must know about fragment-declared relations before any
    // data lands in them.
    DD_RETURN_IF_ERROR(views_->RefreshRelations());
  }

  engine::RelationDeltas external;
  for (const auto& [relation, rows] : update.inserts) {
    for (const Tuple& row : rows) external[relation].Add(row, +1);
  }
  for (const auto& [relation, rows] : update.deletes) {
    for (const Tuple& row : rows) external[relation].Add(row, -1);
  }

  GraphDelta delta;
  const uint64_t groundings_before = grounder_->groundings_emitted();
  const uint64_t rows_before = views_->rows_visited() + grounder_->rows_visited();
  if (!external.empty()) {
    // Neither layer's delta rules may read a changing relation through a
    // negated atom; reject such an update before any table, derivation
    // count, variable or group changes.
    DD_ASSIGN_OR_RETURN(const std::set<std::string> changing,
                        views_->ChangingRelations(external));
    DD_RETURN_IF_ERROR(grounder_->CheckDeltaEvaluable(changing));
    DD_ASSIGN_OR_RETURN(engine::RelationDeltas set_deltas, views_->ApplyUpdate(external));
    if (delta_listener_) delta_listener_(set_deltas);
    DD_ASSIGN_OR_RETURN(GraphDelta d, grounder_->ApplyRelationDeltas(set_deltas));
    delta.Merge(d);
  }
  if (has_fragment) {
    for (const dsl::DeductiveRule& rule : fragment.deductive_rules()) {
      DD_ASSIGN_OR_RETURN(engine::RelationDeltas set_deltas, views_->AddRule(rule));
      if (delta_listener_) delta_listener_(set_deltas);
      DD_ASSIGN_OR_RETURN(GraphDelta d, grounder_->ApplyRelationDeltas(set_deltas));
      delta.Merge(d);
    }
    for (const dsl::FactorRule& rule : fragment.factor_rules()) {
      DD_ASSIGN_OR_RETURN(GraphDelta d, grounder_->AddFactorRule(rule));
      delta.Merge(d);
    }
    if (!fragment.deductive_rules().empty() || !fragment.factor_rules().empty()) {
      ++program_version_;
    }
  }
  for (const std::string& label : update.remove_rule_labels) {
    // A label may name a deductive rule, a factor rule, or both.
    auto removed_views = views_->RemoveRule(label);
    if (removed_views.ok()) {
      if (delta_listener_) delta_listener_(removed_views.value());
      DD_ASSIGN_OR_RETURN(GraphDelta d,
                          grounder_->ApplyRelationDeltas(removed_views.value()));
      delta.Merge(d);
    }
    auto removed_factors = grounder_->RemoveFactorRule(label);
    if (removed_factors.ok()) delta.Merge(removed_factors.value());
    if (!removed_views.ok() && !removed_factors.ok()) {
      return Status::NotFound("no rule labeled '" + label + "'");
    }
    program_.RemoveRulesByLabel(label);
    ++program_version_;
  }
  report.grounding_seconds = ground_timer.Seconds();
  report.grounding_work = grounder_->groundings_emitted() - groundings_before;
  report.grounding_rows_visited =
      views_->rows_visited() + grounder_->rows_visited() - rows_before;

  if (config_.mode == ExecutionMode::kRerun) {
    DD_RETURN_IF_ERROR(RunFullPipeline(&report, /*cold_learning=*/true));
    return FinishUpdate(std::move(report), nullptr);
  }
  // ---- incremental learning ----
  Timer learn_timer;
  if (!update.analysis_only && !update.skip_learning && HasEvidence() &&
      !delta.empty()) {
    LearnIncremental(&delta);
  }
  report.learning_seconds = learn_timer.Seconds();

  // ---- incremental inference ----
  Timer infer_timer;
  DD_ASSIGN_OR_RETURN(incremental::UpdateOutcome outcome,
                      inc_engine_->ApplyDelta(delta, config_.engine));
  report.inference_seconds = infer_timer.Seconds();
  return FinishUpdate(std::move(report), &outcome);
}

StatusOr<incremental::UpdateReport> DeepDive::AddRule(
    const std::string& rule_source, bool learn) {
  DD_CHECK(initialized_) << "call Initialize first";
  if (config_.mode == ExecutionMode::kRerun) {
    // Rerun mode has no incremental machinery; the rule rides the full
    // pipeline (this is also the baseline the rule-delta bench compares
    // against).
    UpdateSpec spec;
    spec.label = "add_rule";
    spec.add_rules = rule_source;
    spec.skip_learning = !learn;
    return ApplyUpdate(spec);
  }
  DD_ASSIGN_OR_RETURN(dsl::Program fragment,
                      dsl::AnalyzeFragment(program_, rule_source));
  if (!fragment.deductive_rules().empty()) {
    return Status::InvalidArgument(
        "AddRule takes factor rules only; deductive rules change view "
        "contents and must go through ApplyUpdate");
  }
  if (fragment.factor_rules().size() != 1) {
    return Status::InvalidArgument(
        "AddRule takes exactly one factor rule per call");
  }
  for (const dsl::RelationDecl& rel : fragment.relations()) {
    if (program_.FindRelation(rel.name) == nullptr) {
      return Status::InvalidArgument(
          "AddRule cannot declare new relations ('" + rel.name +
          "'); declare them through ApplyUpdate first");
    }
  }
  const dsl::FactorRule rule = fragment.factor_rules().front();
  if (rule.label.empty()) {
    return Status::InvalidArgument("AddRule requires a labeled rule");
  }
  for (const dsl::FactorRule& existing : program_.factor_rules()) {
    if (existing.label == rule.label) {
      return Status::AlreadyExists("a factor rule labeled '" + rule.label +
                                   "' already exists");
    }
  }

  // Journal the pre-add state first: if no update intervenes, RetractRule
  // restores weights and marginals from here bit-for-bit.
  RuleTicket ticket;
  ticket.label = rule.label;
  ticket.marginals_before = marginals_;
  ticket.num_weights_before = ground_.graph.NumWeights();
  ticket.weights_before.resize(ticket.num_weights_before);
  for (WeightId w = 0; w < ticket.num_weights_before; ++w) {
    ticket.weights_before[w] = ground_.graph.WeightValue(w);
  }

  incremental::UpdateReport report;
  report.label = "add_rule:" + rule.label;
  Timer ground_timer;
  DD_RETURN_IF_ERROR(program_.Merge(fragment));
  const uint64_t rows_before = grounder_->rows_visited();
  DD_ASSIGN_OR_RETURN(GraphDelta delta, grounder_->AddFactorRule(rule));
  report.grounding_seconds = ground_timer.Seconds();
  // Work done = the new rule's bindings, nothing else: the proportionality
  // witness that this was not a re-ground.
  report.grounding_work = grounder_->last_rule_groundings();
  report.grounding_rows_visited = grounder_->rows_visited() - rows_before;

  Timer learn_timer;
  if (learn && HasEvidence() && !delta.empty()) LearnIncremental(&delta);
  report.learning_seconds = learn_timer.Seconds();

  Timer infer_timer;
  DD_ASSIGN_OR_RETURN(incremental::UpdateOutcome outcome,
                      inc_engine_->AddRule(delta, config_.engine));
  report.inference_seconds = infer_timer.Seconds();
  ++program_version_;

  ticket.engine_seq_after = inc_engine_->update_seq();
  rule_journal_.push_back(std::move(ticket));
  if (rule_journal_.size() > kMaxRuleJournal) {
    rule_journal_.erase(rule_journal_.begin());
  }
  return FinishUpdate(std::move(report), &outcome);
}

StatusOr<incremental::UpdateReport> DeepDive::RetractRule(
    const std::string& label) {
  DD_CHECK(initialized_) << "call Initialize first";
  if (config_.mode == ExecutionMode::kRerun) {
    UpdateSpec spec;
    spec.label = "retract_rule";
    spec.remove_rule_labels.push_back(label);
    return ApplyUpdate(spec);
  }
  incremental::UpdateReport report;
  report.label = "retract_rule:" + label;
  Timer ground_timer;
  // First-class retraction covers factor rules (the AddRule counterpart);
  // deductive-rule removal changes view contents and stays on ApplyUpdate.
  DD_ASSIGN_OR_RETURN(GraphDelta delta, grounder_->RemoveFactorRule(label));
  program_.RemoveRulesByLabel(label);
  report.grounding_seconds = ground_timer.Seconds();

  // Exact restore applies when the journal holds this label's add and the
  // engine has not moved since: the pre-add state is then the precise
  // posterior of the restored graph.
  auto ticket = rule_journal_.end();
  for (auto it = rule_journal_.rbegin(); it != rule_journal_.rend(); ++it) {
    if (it->label == label) {
      ticket = std::prev(it.base());
      break;
    }
  }
  const std::vector<double>* restore = nullptr;
  if (ticket != rule_journal_.end() &&
      inc_engine_->update_seq() == ticket->engine_seq_after) {
    // Weights the rule appended stay in the (append-only) graph but their
    // groups are deactivated; every pre-existing weight reverts exactly. The
    // delta records the reverts, which cancel the add's learning in the
    // engine's cumulative delta.
    for (WeightId w = 0; w < ticket->num_weights_before; ++w) {
      const double learned = ground_.graph.WeightValue(w);
      const double before = ticket->weights_before[w];
      if (learned != before) {
        delta.weight_changes.push_back(
            GraphDelta::WeightChange{w, learned, before});
      }
      ground_.graph.SetWeightValue(w, before);
    }
    restore = &ticket->marginals_before;
  }

  Timer infer_timer;
  DD_ASSIGN_OR_RETURN(
      incremental::UpdateOutcome outcome,
      inc_engine_->RetractRule(delta, config_.engine, restore));
  report.inference_seconds = infer_timer.Seconds();
  ++program_version_;
  if (ticket != rule_journal_.end()) rule_journal_.erase(ticket);
  return FinishUpdate(std::move(report), &outcome);
}

Status DeepDive::RunFullPipeline(incremental::UpdateReport* report,
                                 bool cold_learning) {
  // Re-ground from scratch: fresh graph, fresh grounder (Rerun baseline).
  Timer ground_timer;
  ground_ = grounding::GroundGraph{};
  grounder_ = std::make_unique<grounding::IncrementalGrounder>(
      &program_, &db_, &ground_, GroundingOptionsFor(config_.parallelism));
  DD_RETURN_IF_ERROR(grounder_->Initialize());
  DD_RETURN_IF_ERROR(grounder_->GroundAll().status());
  report->grounding_seconds += ground_timer.Seconds();

  Timer learn_timer;
  if (HasEvidence()) {
    inference::Learner learner(&ground_.graph, config_.parallelism);
    inference::LearnerOptions lopts = config_.learner;
    lopts.warmstart = !cold_learning;
    lopts.seed = Rng::MixSeed(config_.seed, /*stream=*/3, updates_applied_);
    learner.Learn(lopts);
  }
  report->learning_seconds = learn_timer.Seconds();

  Timer infer_timer;
  inference::GibbsOptions gopts = config_.gibbs;
  gopts.seed = Rng::MixSeed(config_.seed, /*stream=*/4, updates_applied_ + 1);
  marginals_ =
      inference::EstimateMarginalsAuto(ground_.graph, gopts, config_.parallelism).marginals;
  for (VarId v = 0; v < ground_.graph.NumVariables(); ++v) {
    const auto ev = ground_.graph.EvidenceValue(v);
    if (ev.has_value()) marginals_[v] = *ev ? 1.0 : 0.0;
  }
  report->inference_seconds = infer_timer.Seconds();
  report->strategy = incremental::Strategy::kRerun;
  return Status::OK();
}

void DeepDive::LearnIncremental(GraphDelta* delta) {
  std::vector<double> before(ground_.graph.NumWeights());
  for (WeightId w = 0; w < ground_.graph.NumWeights(); ++w) {
    before[w] = ground_.graph.WeightValue(w);
  }
  inference::Learner learner(&ground_.graph, config_.parallelism);
  inference::LearnerOptions lopts = config_.learner;
  lopts.warmstart = true;
  lopts.epochs = config_.incremental_learning_epochs;
  lopts.seed = Rng::MixSeed(config_.seed, /*stream=*/5, updates_applied_ + 1);
  learner.Learn(lopts);
  for (WeightId w = 0; w < ground_.graph.NumWeights(); ++w) {
    const double after = ground_.graph.WeightValue(w);
    if (std::abs(after - before[w]) > 1e-12) {
      delta->weight_changes.push_back(
          GraphDelta::WeightChange{w, before[w], after});
    }
  }
}

}  // namespace deepdive::core
