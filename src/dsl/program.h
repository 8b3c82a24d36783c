#ifndef DEEPDIVE_DSL_PROGRAM_H_
#define DEEPDIVE_DSL_PROGRAM_H_

#include <map>
#include <string>
#include <vector>

#include "dsl/ast.h"
#include "storage/database.h"
#include "util/status.h"

namespace deepdive::dsl {

/// A semantically validated DeepDive program. Produced by AnalyzeProgram;
/// grounding and incremental maintenance consume this (never the raw AST).
class Program {
 public:
  Program() = default;

  /// The accessors alias program state. A Program is immutable once built by
  /// AnalyzeProgram, but DeepDive's working copy is mutated by rule updates,
  /// so references obtained through it follow the serving-thread contract of
  /// DeepDive::program().
  const std::vector<RelationDecl>& relations() const { return relations_; }
  const std::vector<DeductiveRule>& deductive_rules() const { return deductive_rules_; }
  const std::vector<FactorRule>& factor_rules() const { return factor_rules_; }

  /// Relation by name; nullptr if absent.
  const RelationDecl* FindRelation(const std::string& name) const;

  bool IsQueryRelation(const std::string& name) const;
  bool IsEvidenceRelation(const std::string& name) const;

  /// For an evidence relation, the query relation it labels.
  const RelationDecl* EvidenceTarget(const std::string& evidence_name) const;

  /// Evidence relations declared `for` the given query relation.
  std::vector<const RelationDecl*> EvidenceRelationsFor(const std::string& query) const;

  /// Creates one table per declared relation in `db` (error if any exists).
  Status InstantiateSchema(Database* db) const;

  /// Adds rules/relations from another analyzed program fragment (the
  /// incremental development loop extends a running program). Re-validates
  /// that relation declarations don't conflict.
  Status Merge(const Program& other);

  /// Removes all rules (deductive or factor) with the given label.
  /// Returns the number removed.
  size_t RemoveRulesByLabel(const std::string& label);

  /// Source-order index of a factor rule (stable rule ids for grounding).
  size_t NumFactorRules() const { return factor_rules_.size(); }

  std::string ToString() const;

 private:
  friend StatusOr<Program> AnalyzeProgram(const ProgramAst& ast);
  friend class Analyzer;

  std::vector<RelationDecl> relations_;
  std::vector<DeductiveRule> deductive_rules_;
  std::vector<FactorRule> factor_rules_;
  std::map<std::string, size_t> relation_index_;
};

/// Validates an AST: declared predicates, head/condition/weight variable
/// safety, consistent variable typing, negation bound by positive atoms,
/// evidence schemas = target schema + trailing bool label column, and
/// factor-rule labels that do not repeat (AlreadyExists). Unlabeled rules
/// and a label shared by a deductive and a factor rule are fine.
StatusOr<Program> AnalyzeProgram(const ProgramAst& ast);

/// Convenience: parse + analyze.
StatusOr<Program> CompileProgram(std::string_view source);

/// Parses and validates a program *fragment* (new rules and/or relations) in
/// the context of an existing program. The returned Program contains the
/// base relations plus the fragment's declarations, but ONLY the fragment's
/// rules — suitable for Program::Merge and for incremental rule addition.
/// A fragment factor rule may not reuse a factor-rule label of `base`
/// (AlreadyExists).
StatusOr<Program> AnalyzeFragment(const Program& base, std::string_view source);

}  // namespace deepdive::dsl

#endif  // DEEPDIVE_DSL_PROGRAM_H_
