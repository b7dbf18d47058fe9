#include "datalog/program.h"

#include <unordered_set>

namespace wdr::datalog {

PredId DlProgram::InternPred(const std::string& name, size_t arity) {
  auto it = pred_index_.find(name);
  if (it != pred_index_.end()) return it->second;
  PredId id = static_cast<PredId>(pred_names_.size());
  pred_names_.push_back(name);
  pred_arities_.push_back(arity);
  pred_index_.emplace(name, id);
  return id;
}

Sym DlProgram::InternSym(const std::string& name) {
  auto it = sym_index_.find(name);
  if (it != sym_index_.end()) return it->second;
  Sym id = static_cast<Sym>(sym_names_.size());
  sym_names_.push_back(name);
  sym_index_.emplace(name, id);
  return id;
}

Result<PredId> DlProgram::PredByName(const std::string& name) const {
  auto it = pred_index_.find(name);
  if (it == pred_index_.end()) {
    return NotFoundError("no predicate named '" + name + "'");
  }
  return it->second;
}

Status DlProgram::Validate() const {
  auto check_atom = [this](const DlAtom& atom) -> Status {
    if (atom.pred >= pred_names_.size()) {
      return InternalError("atom references unknown predicate id");
    }
    if (atom.args.size() != pred_arities_[atom.pred]) {
      return InvalidArgumentError("arity mismatch for predicate '" +
                                  pred_names_[atom.pred] + "': expected " +
                                  std::to_string(pred_arities_[atom.pred]) +
                                  ", got " +
                                  std::to_string(atom.args.size()));
    }
    return Status::Ok();
  };

  for (const DlAtom& fact : facts_) {
    WDR_RETURN_IF_ERROR(check_atom(fact));
    for (const DlTerm& t : fact.args) {
      if (t.is_var) {
        return InvalidArgumentError("fact for predicate '" +
                                    pred_names_[fact.pred] +
                                    "' contains a variable");
      }
    }
  }
  for (const DlRule& rule : rules_) {
    WDR_RETURN_IF_ERROR(check_atom(rule.head));
    std::unordered_set<DlVarId> body_vars;
    for (const DlAtom& atom : rule.body) {
      WDR_RETURN_IF_ERROR(check_atom(atom));
      for (const DlTerm& t : atom.args) {
        if (t.is_var) body_vars.insert(t.id);
      }
    }
    for (const DlTerm& t : rule.head.args) {
      if (t.is_var && body_vars.count(t.id) == 0) {
        return InvalidArgumentError(
            "rule for '" + pred_names_[rule.head.pred] +
            "' is not range-restricted: head variable does not occur in "
            "the body");
      }
    }
  }
  return Status::Ok();
}

std::string DlProgram::AtomToString(
    const DlAtom& atom, const std::vector<std::string>& var_names) const {
  std::string out = pred_names_[atom.pred];
  out += '(';
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    const DlTerm& t = atom.args[i];
    if (t.is_var) {
      out += t.id < var_names.size() ? var_names[t.id]
                                     : "V" + std::to_string(t.id);
    } else if (t.id < sym_names_.size()) {
      out += sym_names_[t.id];
    } else {
      // A symbol with no name: the RDF translation's symbols are TermIds.
      out += '#';
      out += std::to_string(t.id);
    }
  }
  out += ')';
  return out;
}

}  // namespace wdr::datalog
