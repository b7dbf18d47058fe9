#ifndef WDR_DATALOG_PROGRAM_H_
#define WDR_DATALOG_PROGRAM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace wdr::datalog {

// Interned symbol (constant) and predicate identifiers.
using Sym = uint32_t;
using PredId = uint32_t;
// Rule-scoped variable index.
using DlVarId = uint32_t;

// A term of an atom: either a constant symbol or a rule-scoped variable.
struct DlTerm {
  bool is_var = false;
  uint32_t id = 0;  // Sym when constant, DlVarId when variable

  static DlTerm Constant(Sym sym) { return DlTerm{false, sym}; }
  static DlTerm Variable(DlVarId var) { return DlTerm{true, var}; }

  friend bool operator==(const DlTerm&, const DlTerm&) = default;
};

// p(t1, ..., tn).
struct DlAtom {
  PredId pred = 0;
  std::vector<DlTerm> args;

  friend bool operator==(const DlAtom&, const DlAtom&) = default;
};

// head :- body. Facts are rules with an empty, ground body.
struct DlRule {
  DlAtom head;
  std::vector<DlAtom> body;
  // Variable names, indexed by DlVarId (for diagnostics / round-tripping).
  std::vector<std::string> var_names;
};

// A Datalog program: symbol/predicate tables, facts, and rules.
class DlProgram {
 public:
  DlProgram() = default;

  // Interns a predicate. The first use fixes its arity; later uses with a
  // different arity are an error at Validate() time.
  PredId InternPred(const std::string& name, size_t arity);
  Sym InternSym(const std::string& name);

  const std::string& pred_name(PredId p) const { return pred_names_[p]; }
  size_t pred_arity(PredId p) const { return pred_arities_[p]; }
  size_t pred_count() const { return pred_names_.size(); }
  const std::string& sym_name(Sym s) const { return sym_names_[s]; }
  size_t sym_count() const { return sym_names_.size(); }

  Result<PredId> PredByName(const std::string& name) const;

  void AddFact(DlAtom fact) { facts_.push_back(std::move(fact)); }
  void AddRule(DlRule rule) { rules_.push_back(std::move(rule)); }

  const std::vector<DlAtom>& facts() const { return facts_; }
  const std::vector<DlRule>& rules() const { return rules_; }

  // Checks well-formedness: arities consistent, facts ground, and every
  // rule range-restricted (each head variable occurs in the body).
  Status Validate() const;

  // Human-readable rendering of an atom, e.g. "ancestor(X, tom)". A
  // constant with no interned name renders as "#<id>".
  std::string AtomToString(const DlAtom& atom,
                           const std::vector<std::string>& var_names) const;

 private:
  std::vector<std::string> pred_names_;
  std::vector<size_t> pred_arities_;
  std::unordered_map<std::string, PredId> pred_index_;
  std::vector<std::string> sym_names_;
  std::unordered_map<std::string, Sym> sym_index_;
  std::vector<DlAtom> facts_;
  std::vector<DlRule> rules_;
};

}  // namespace wdr::datalog

#endif  // WDR_DATALOG_PROGRAM_H_
