#include "core/deepdive.h"

#include <algorithm>
#include <cmath>
#include <optional>
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
/// The grounder reads only the thread count; its shard threshold keeps its
/// default.
grounding::GroundingOptions GroundingOptionsFor(const inference::Parallelism& parallelism) {
  grounding::GroundingOptions options;
  options.num_threads = parallelism.num_threads;
  return options;
}

template <typename Rule>
size_t CountLabel(const std::vector<Rule>& rules, const std::string& label) {
  return std::count_if(rules.begin(), rules.end(),
                       [&](const Rule& rule) { return rule.label == label; });
}

/// True when `label` names a deductive or a factor rule of `program`.
bool NamesRule(const dsl::Program& program, const std::string& label) {
  return CountLabel(program.deductive_rules(), label) +
             CountLabel(program.factor_rules(), label) > 0;
}

/// The first relation `fragment` declares that `program` lacks, or null.
const dsl::RelationDecl* NewRelation(const dsl::Program& program,
                                     const dsl::Program& fragment) {
  for (const dsl::RelationDecl& rel : fragment.relations()) {
    if (program.FindRelation(rel.name) == nullptr) return &rel;
  }
  return nullptr;
}

/// Every weight's value, by WeightId.
std::vector<double> WeightValues(const factor::FactorGraph& graph) {
  std::vector<double> values(graph.NumWeights());
  for (WeightId w = 0; w < values.size(); ++w) values[w] = graph.WeightValue(w);
  return values;
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
    report.strategy = outcome->strategy;
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

StatusOr<incremental::UpdateReport> DeepDive::AddRule(
    const std::string& rule_source, bool learn) {
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
  if (const dsl::RelationDecl* rel = NewRelation(program_, fragment)) {
    return Status::InvalidArgument(
        "AddRule cannot declare new relations ('" + rel->name +
        "'); declare them through ApplyUpdate first");
  }
  const std::string& label = fragment.factor_rules().front().label;
  if (label.empty()) {
    return Status::InvalidArgument("AddRule requires a labeled rule");
  }
  UpdateSpec spec;
  spec.label = "add_rule:" + label;
  spec.add_rules = rule_source;
  spec.skip_learning = !learn;
  return ApplyUpdate(spec);
}

StatusOr<incremental::UpdateReport> DeepDive::RetractRule(
    const std::string& label) {
  UpdateSpec spec;
  spec.label = "retract_rule:" + label;
  spec.remove_rule_labels.push_back(label);
  spec.skip_learning = true;
  return ApplyUpdate(spec);
}

StatusOr<incremental::UpdateReport> DeepDive::ApplyUpdate(
    const UpdateSpec& update) {
  DD_CHECK(initialized_) << "call Initialize first";
  incremental::UpdateReport report;
  report.label = update.label;
  Timer ground_timer;

  dsl::Program fragment;
  if (!update.add_rules.empty()) {
    DD_ASSIGN_OR_RETURN(fragment, dsl::AnalyzeFragment(program_, update.add_rules));
  }
  // Every changed relation must exist or be declared by the fragment, and
  // every removal must name a rule of the program or the fragment, once;
  // check before any table is created or the program merged.
  auto known = [&](const std::string& relation) {
    return db_.HasTable(relation) || fragment.FindRelation(relation) != nullptr;
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
  std::set<std::string> removing;
  for (const std::string& label : update.remove_rule_labels) {
    if (!(NamesRule(program_, label) || NamesRule(fragment, label)) ||
        !removing.insert(label).second) {
      return Status::NotFound("no rule labeled '" + label + "'");
    }
  }
  const bool adds_rules =
      !fragment.deductive_rules().empty() || !fragment.factor_rules().empty();
  engine::RelationDeltas external;
  for (const auto& [relation, rows] : update.inserts) {
    for (const Tuple& row : rows) external[relation].Add(row, +1);
  }
  for (const auto& [relation, rows] : update.deletes) {
    for (const Tuple& row : rows) external[relation].Add(row, -1);
  }
  for (const auto& [relation, changes] : external) {
    if (db_.HasTable(relation)) continue;
    // A relation this update declares holds no rows the update may delete.
    Status absent = Status::OK();
    changes.ForEach([&](const Tuple& tuple, int64_t count) {
      if (count < 0 && absent.ok()) {
        absent = Status::InvalidArgument("delete of absent tuple " + TupleToString(tuple) +
                                         " from " + relation);
      }
    });
    DD_RETURN_IF_ERROR(absent);
  }
  if (!external.empty()) {
    // Neither layer's delta rules may read a changing relation through a
    // negated atom. Both checks read only the rules the program already
    // has, so they run before the fragment merges: a rejected update changes
    // no rule, table, derivation count, variable or group.
    DD_ASSIGN_OR_RETURN(const std::set<std::string> changing,
                        views_->ChangingRelations(external));
    DD_RETURN_IF_ERROR(grounder_->CheckDeltaEvaluable(changing));
  }

  // The rule journal (incremental mode only). An update whose only change is
  // one labeled factor rule over declared relations records the marginals and
  // weights before it. An update whose only change removes that label, while
  // the engine is still at the update that recorded them, restores them: they
  // are then the exact posterior of the graph the removal leaves.
  std::optional<RuleTicket> ticket;
  const RuleTicket* restore = nullptr;
  if (inc_engine_ != nullptr && external.empty()) {
    if (!update.analysis_only && update.remove_rule_labels.empty() &&
        fragment.deductive_rules().empty() && fragment.factor_rules().size() == 1 &&
        !fragment.factor_rules().front().label.empty() &&
        NewRelation(program_, fragment) == nullptr) {
      ticket = RuleTicket{fragment.factor_rules().front().label, 0, marginals_,
                          WeightValues(ground_.graph)};
    }
    if (update.add_rules.empty() && update.remove_rule_labels.size() == 1 &&
        rule_journal_.has_value() &&
        rule_journal_->label == update.remove_rule_labels.front() &&
        rule_journal_->engine_seq_after == inc_engine_->update_seq()) {
      restore = &*rule_journal_;
    }
  }

  if (!update.add_rules.empty()) {
    // New relations need tables, and the view layer must know them, before
    // any data lands in them.
    bool new_relations = false;
    for (const dsl::RelationDecl& rel : fragment.relations()) {
      if (!db_.HasTable(rel.name)) {
        DD_RETURN_IF_ERROR(db_.CreateTable(rel.name, rel.schema).status());
        new_relations = true;
      }
    }
    DD_RETURN_IF_ERROR(program_.Merge(fragment));
    if (new_relations) DD_RETURN_IF_ERROR(views_->RefreshRelations());
  }

  GraphDelta delta;
  const uint64_t groundings_before = grounder_->groundings_emitted();
  const uint64_t rows_before = views_->rows_visited() + grounder_->rows_visited();
  // Grounds one batch of view maintenance's set-level deltas into `delta`.
  auto ground_views = [&](const engine::RelationDeltas& set_deltas) -> Status {
    if (delta_listener_) delta_listener_(set_deltas);
    DD_ASSIGN_OR_RETURN(GraphDelta d, grounder_->ApplyRelationDeltas(set_deltas));
    delta.Merge(d);
    return Status::OK();
  };
  if (!external.empty()) {
    DD_ASSIGN_OR_RETURN(engine::RelationDeltas set_deltas, views_->ApplyUpdate(external));
    DD_RETURN_IF_ERROR(ground_views(set_deltas));
  }
  for (const dsl::DeductiveRule& rule : fragment.deductive_rules()) {
    DD_ASSIGN_OR_RETURN(engine::RelationDeltas set_deltas, views_->AddRule(rule));
    DD_RETURN_IF_ERROR(ground_views(set_deltas));
  }
  for (const dsl::FactorRule& rule : fragment.factor_rules()) {
    DD_ASSIGN_OR_RETURN(GraphDelta d, grounder_->AddFactorRule(rule));
    delta.Merge(d);
  }
  if (adds_rules) ++program_version_;
  for (const std::string& label : update.remove_rule_labels) {
    // A label may name deductive rules, a factor rule, or both; every rule
    // it names leaves the views, the graph and the program. The views drop
    // one rule per call, each against tables the previous call settled.
    for (size_t n = CountLabel(program_.deductive_rules(), label); n > 0; --n) {
      DD_ASSIGN_OR_RETURN(engine::RelationDeltas set_deltas, views_->RemoveRule(label));
      DD_RETURN_IF_ERROR(ground_views(set_deltas));
    }
    if (CountLabel(program_.factor_rules(), label) > 0) {
      DD_ASSIGN_OR_RETURN(GraphDelta d, grounder_->RemoveFactorRule(label));
      delta.Merge(d);
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
  if (restore != nullptr) {
    // Weights the rule appended stay in the (append-only) graph but their
    // groups are deactivated; every pre-existing weight reverts exactly. The
    // delta records the reverts, which cancel the add's learning in the
    // engine's cumulative delta.
    GraphDelta reverts;
    for (WeightId w = 0; w < restore->weights_before.size(); ++w) {
      const double learned = ground_.graph.WeightValue(w);
      const double before = restore->weights_before[w];
      if (learned != before) {
        reverts.weight_changes.push_back(GraphDelta::WeightChange{w, learned, before});
      }
      ground_.graph.SetWeightValue(w, before);
    }
    delta.Merge(reverts);
  }
  // ---- incremental learning ----
  Timer learn_timer;
  if (restore == nullptr && !update.analysis_only && !update.skip_learning &&
      HasEvidence() && !delta.empty()) {
    LearnIncremental(&delta);
  }
  report.learning_seconds = learn_timer.Seconds();

  // ---- incremental inference ----
  Timer infer_timer;
  // Before ApplyDelta, which may install a finished background build: a
  // build of the old program must already be stale.
  if (adds_rules || !update.remove_rule_labels.empty()) inc_engine_->RuleSetChanged();
  DD_ASSIGN_OR_RETURN(
      incremental::UpdateOutcome outcome,
      inc_engine_->ApplyDelta(delta, config_.engine,
                              restore != nullptr ? &restore->marginals_before : nullptr));
  report.inference_seconds = infer_timer.Seconds();
  // Every successful update advances the engine's update_seq, so a ticket
  // can restore only until the next one: this update's ticket, if any,
  // replaces the journal's.
  if (ticket.has_value()) ticket->engine_seq_after = inc_engine_->update_seq();
  rule_journal_ = std::move(ticket);
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
  const std::vector<double> before = WeightValues(ground_.graph);
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
