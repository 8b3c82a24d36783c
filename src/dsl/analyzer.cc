#include "dsl/analyzer.h"

#include <set>

#include "dsl/parser.h"
#include "dsl/program.h"
#include "util/string_util.h"

namespace deepdive::dsl {

namespace {

const RelationDecl* Find(const std::vector<RelationDecl>& relations,
                         const std::string& name) {
  for (const RelationDecl& r : relations) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

Status CheckAtomArity(const std::vector<RelationDecl>& relations, const Atom& atom) {
  const RelationDecl* rel = Find(relations, atom.predicate);
  if (rel == nullptr) {
    return Status::NotFound("undeclared predicate '" + atom.predicate + "'");
  }
  if (rel->schema.arity() != atom.terms.size()) {
    return Status::InvalidArgument(
        StrFormat("atom %s has %zu args but relation has arity %zu",
                  AtomToString(atom).c_str(), atom.terms.size(), rel->schema.arity()));
  }
  return Status::OK();
}

Status BindAtomTypes(const std::vector<RelationDecl>& relations, const Atom& atom,
                     std::map<std::string, ValueType>* types) {
  DD_RETURN_IF_ERROR(CheckAtomArity(relations, atom));
  const RelationDecl* rel = Find(relations, atom.predicate);
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    const ValueType want = rel->schema.column(i).type;
    if (t.is_var()) {
      auto [it, inserted] = types->emplace(t.var, want);
      if (!inserted && it->second != want) {
        return Status::InvalidArgument(
            StrFormat("variable '%s' used as %s and %s", t.var.c_str(),
                      ValueTypeName(it->second), ValueTypeName(want)));
      }
    } else if (!t.constant.is_null() && t.constant.type() != want) {
      return Status::InvalidArgument(
          StrFormat("constant %s has type %s, column '%s' expects %s",
                    TermToString(t).c_str(), ValueTypeName(t.constant.type()),
                    rel->schema.column(i).name.c_str(), ValueTypeName(want)));
    }
  }
  return Status::OK();
}

/// Variables bound by positive body atoms (the "safe" variables).
std::set<std::string> PositiveVars(const std::vector<Atom>& body) {
  std::set<std::string> vars;
  for (const Atom& atom : body) {
    if (atom.negated) continue;
    for (const Term& t : atom.terms) {
      if (t.is_var()) vars.insert(t.var);
    }
  }
  return vars;
}

Status CheckRuleCommon(const std::vector<RelationDecl>& relations, const Atom& head,
                       const std::vector<Atom>& body,
                       const std::vector<Condition>& conditions,
                       const std::string& label) {
  const std::string where = label.empty() ? AtomToString(head) : label;
  if (body.empty()) {
    return Status::InvalidArgument("rule " + where + " has an empty body");
  }
  bool any_positive = false;
  for (const Atom& atom : body) any_positive |= !atom.negated;
  if (!any_positive) {
    return Status::InvalidArgument("rule " + where +
                                   " needs at least one positive body atom");
  }

  std::map<std::string, ValueType> types;
  for (const Atom& atom : body) DD_RETURN_IF_ERROR(BindAtomTypes(relations, atom, &types));
  DD_RETURN_IF_ERROR(BindAtomTypes(relations, head, &types));

  const std::set<std::string> bound = PositiveVars(body);

  // Head variables must be bound (range restriction).
  for (const Term& t : head.terms) {
    if (t.is_var() && !bound.count(t.var)) {
      return Status::InvalidArgument("rule " + where + ": head variable '" + t.var +
                                     "' is not bound by a positive body atom");
    }
  }
  // Negated-atom variables must be bound elsewhere (safe negation).
  for (const Atom& atom : body) {
    if (!atom.negated) continue;
    for (const Term& t : atom.terms) {
      if (t.is_var() && !bound.count(t.var)) {
        return Status::InvalidArgument("rule " + where + ": variable '" + t.var +
                                       "' appears only in a negated atom");
      }
    }
  }
  // Condition variables must be bound.
  for (const Condition& c : conditions) {
    for (const Term* t : {&c.lhs, &c.rhs}) {
      if (t->is_var() && !bound.count(t->var)) {
        return Status::InvalidArgument("rule " + where + ": condition variable '" +
                                       t->var + "' is not bound");
      }
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::map<std::string, ValueType>> InferVariableTypes(
    const std::vector<RelationDecl>& relations, const Atom& head,
    const std::vector<Atom>& body) {
  std::map<std::string, ValueType> types;
  for (const Atom& atom : body) DD_RETURN_IF_ERROR(BindAtomTypes(relations, atom, &types));
  DD_RETURN_IF_ERROR(BindAtomTypes(relations, head, &types));
  return types;
}

StatusOr<Program> AnalyzeFragment(const Program& base, std::string_view source) {
  DD_ASSIGN_OR_RETURN(ProgramAst fragment, ParseProgram(source));
  ProgramAst combined;
  for (const RelationDecl& r : base.relations()) combined.relations.push_back(r);
  // analysis:allow(determinism-unordered): ProgramAst::relations is a
  // vector in source order; the name merely collides with ResultView's
  // unordered relation index.
  for (const RelationDecl& r : fragment.relations) {
    const RelationDecl* existing = base.FindRelation(r.name);
    if (existing != nullptr) {
      if (!(existing->schema == r.schema) || existing->kind != r.kind) {
        return Status::InvalidArgument("fragment redeclares relation '" + r.name +
                                       "' with a different schema");
      }
      continue;
    }
    combined.relations.push_back(r);
  }
  combined.deductive_rules = fragment.deductive_rules;
  combined.factor_rules = fragment.factor_rules;
  // A factor rule is retracted by its label, so the label must stay unique
  // across the merged program (repeats within the fragment fail below).
  for (const FactorRule& rule : fragment.factor_rules) {
    for (const FactorRule& existing : base.factor_rules()) {
      if (!rule.label.empty() && existing.label == rule.label) {
        return Status::AlreadyExists("a factor rule labeled '" + rule.label +
                                     "' already exists");
      }
    }
  }
  return AnalyzeProgram(combined);
}

StatusOr<Program> AnalyzeProgram(const ProgramAst& ast) {
  Program program;

  // Relation declarations: unique names; evidence schema = target schema +
  // trailing bool label column.
  // analysis:allow(determinism-unordered): ProgramAst::relations is a
  // vector in source order; the name merely collides with ResultView's
  // unordered relation index.
  for (const RelationDecl& decl : ast.relations) {
    if (program.relation_index_.count(decl.name)) {
      return Status::AlreadyExists("relation '" + decl.name + "' declared twice");
    }
    program.relation_index_[decl.name] = program.relations_.size();
    program.relations_.push_back(decl);
  }
  for (const RelationDecl& decl : program.relations_) {
    if (decl.kind != RelationKind::kEvidence) continue;
    const RelationDecl* target = program.FindRelation(decl.evidence_for);
    if (target == nullptr || target->kind != RelationKind::kQuery) {
      return Status::InvalidArgument("evidence relation '" + decl.name +
                                     "' must reference a query relation");
    }
    if (decl.schema.arity() != target->schema.arity() + 1) {
      return Status::InvalidArgument(
          "evidence relation '" + decl.name +
          "' must have the target's columns plus one bool label column");
    }
    for (size_t i = 0; i < target->schema.arity(); ++i) {
      if (decl.schema.column(i).type != target->schema.column(i).type) {
        return Status::InvalidArgument("evidence relation '" + decl.name +
                                       "' column types must match '" +
                                       target->name + "'");
      }
    }
    if (decl.schema.column(decl.schema.arity() - 1).type != ValueType::kBool) {
      return Status::InvalidArgument("evidence relation '" + decl.name +
                                     "' label column must be bool");
    }
  }

  // Deductive rules.
  for (const DeductiveRule& rule : ast.deductive_rules) {
    DD_RETURN_IF_ERROR(
        CheckRuleCommon(program.relations_, rule.head, rule.body, rule.conditions,
                        rule.label));
    const RelationDecl* head_rel = program.FindRelation(rule.head.predicate);
    if (head_rel->kind == RelationKind::kEvidence) {
      // Supervision rule: the label position must be a constant bool (or a
      // bound bool variable; constants are the common case per S1 in §2.2).
      const Term& label_term = rule.head.terms.back();
      if (!label_term.is_var() && label_term.constant.type() != ValueType::kBool) {
        return Status::InvalidArgument("supervision rule head label must be bool");
      }
    }
    program.deductive_rules_.push_back(rule);
  }

  // Factor rules; a non-empty label names one of them.
  std::set<std::string> factor_labels;
  for (const FactorRule& rule : ast.factor_rules) {
    if (!rule.label.empty() && !factor_labels.insert(rule.label).second) {
      return Status::AlreadyExists("factor rule label '" + rule.label +
                                   "' used twice");
    }
    DD_RETURN_IF_ERROR(
        CheckRuleCommon(program.relations_, rule.head, rule.body, rule.conditions,
                        rule.label));
    const RelationDecl* head_rel = program.FindRelation(rule.head.predicate);
    if (head_rel->kind != RelationKind::kQuery) {
      return Status::InvalidArgument("factor rule head '" + rule.head.predicate +
                                     "' must be a query relation");
    }
    for (const Atom& atom : rule.body) {
      const RelationDecl* rel = program.FindRelation(atom.predicate);
      if (rel->kind == RelationKind::kEvidence) {
        return Status::InvalidArgument(
            "factor rule bodies may not reference evidence relations");
      }
      if (atom.negated && rel->kind == RelationKind::kQuery) {
        return Status::Unimplemented(
            "negated query atoms in factor rules are not supported");
      }
    }
    if (rule.weight.kind == WeightSpec::Kind::kTied) {
      const std::set<std::string> bound = PositiveVars(rule.body);
      for (const std::string& v : rule.weight.tied_vars) {
        if (!bound.count(v)) {
          return Status::InvalidArgument("weight-tying variable '" + v +
                                         "' is not bound in the rule body");
        }
      }
    }
    program.factor_rules_.push_back(rule);
  }

  return program;
}

}  // namespace deepdive::dsl
