#include "datalog/magic.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_set>

#include "obs/metrics.h"

namespace wdr::datalog {
namespace {

// Bound/free pattern, one char per argument: 'b' or 'f'.
using Adornment = std::string;

Adornment AdornAtom(const DlAtom& atom,
                    const std::unordered_set<DlVarId>& bound_vars) {
  Adornment adornment;
  adornment.reserve(atom.args.size());
  for (const DlTerm& t : atom.args) {
    bool bound = !t.is_var || bound_vars.count(t.id) > 0;
    adornment += bound ? 'b' : 'f';
  }
  return adornment;
}

// Arguments of `atom` at the bound positions of `adornment`.
std::vector<DlTerm> BoundArgs(const DlAtom& atom,
                              const Adornment& adornment) {
  std::vector<DlTerm> args;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (adornment[i] == 'b') args.push_back(atom.args[i]);
  }
  return args;
}

size_t BoundCount(const Adornment& adornment) {
  return static_cast<size_t>(
      std::count(adornment.begin(), adornment.end(), 'b'));
}

// Performs the transformation on a normalized program (no IDB predicate
// has facts).
class MagicBuilder {
 public:
  MagicBuilder(const DlProgram& source,
               const std::unordered_set<PredId>& idb)
      : source_(source), idb_(idb) {}

  Result<MagicProgram> Build(const DlAtom& query) {
    // Mirror symbols and predicates so existing ids stay valid.
    for (Sym s = 0; s < source_.sym_count(); ++s) {
      out_.program.InternSym(source_.sym_name(s));
    }
    for (PredId p = 0; p < source_.pred_count(); ++p) {
      out_.program.InternPred(source_.pred_name(p), source_.pred_arity(p));
    }
    for (const DlAtom& fact : source_.facts()) out_.program.AddFact(fact);

    // Seed from the query's adornment.
    Adornment query_adornment = AdornAtom(query, {});
    PredId answer = AdornedPred(query.pred, query_adornment);
    Process();

    // Magic seed: the query's constants.
    DlAtom seed;
    seed.pred = MagicPred(query.pred, query_adornment);
    seed.args = BoundArgs(query, query_adornment);
    out_.program.AddFact(std::move(seed));

    out_.answer_pred = answer;
    out_.query_atom = query;
    out_.query_atom.pred = answer;
    return std::move(out_);
  }

 private:
  PredId AdornedPred(PredId p, const Adornment& adornment) {
    auto key = std::make_pair(p, adornment);
    auto it = adorned_.find(key);
    if (it != adorned_.end()) return it->second;
    PredId id = out_.program.InternPred(
        source_.pred_name(p) + "__" + adornment, source_.pred_arity(p));
    adorned_.emplace(key, id);
    worklist_.push_back(key);
    return id;
  }

  PredId MagicPred(PredId p, const Adornment& adornment) {
    // Interning is idempotent, so no separate bookkeeping is needed.
    return out_.program.InternPred(
        "m_" + source_.pred_name(p) + "__" + adornment,
        BoundCount(adornment));
  }

  void Process() {
    while (!worklist_.empty()) {
      auto [pred, adornment] = worklist_.front();
      worklist_.pop_front();
      for (const DlRule& rule : source_.rules()) {
        if (rule.head.pred == pred) RewriteRule(rule, adornment);
      }
    }
  }

  void RewriteRule(const DlRule& rule, const Adornment& head_adornment) {
    // The guard: magic_p^α over the head's bound arguments.
    DlAtom guard;
    guard.pred = MagicPred(rule.head.pred, head_adornment);
    guard.args = BoundArgs(rule.head, head_adornment);

    std::unordered_set<DlVarId> bound_vars;
    for (const DlTerm& t : guard.args) {
      if (t.is_var) bound_vars.insert(t.id);
    }

    DlRule adorned_rule;
    adorned_rule.head = rule.head;
    adorned_rule.head.pred = AdornedPred(rule.head.pred, head_adornment);
    adorned_rule.var_names = rule.var_names;
    adorned_rule.body.push_back(guard);

    for (const DlAtom& atom : rule.body) {
      DlAtom rewritten = atom;
      if (idb_.count(atom.pred) > 0) {
        Adornment atom_adornment = AdornAtom(atom, bound_vars);
        rewritten.pred = AdornedPred(atom.pred, atom_adornment);

        // Magic rule: bindings flowing into this body atom. Emitted even
        // for all-free adornments (zero-arity magic predicate): the guard
        // still gates whether the adorned rules for `atom.pred` fire at
        // all.
        DlRule magic_rule;
        magic_rule.head.pred = MagicPred(atom.pred, atom_adornment);
        magic_rule.head.args = BoundArgs(atom, atom_adornment);
        magic_rule.body = adorned_rule.body;  // guard + preceding atoms
        magic_rule.var_names = rule.var_names;
        out_.program.AddRule(std::move(magic_rule));
      }
      adorned_rule.body.push_back(rewritten);
      for (const DlTerm& t : atom.args) {
        if (t.is_var) bound_vars.insert(t.id);
      }
    }
    out_.program.AddRule(std::move(adorned_rule));
  }

  const DlProgram& source_;
  const std::unordered_set<PredId>& idb_;
  MagicProgram out_;
  std::map<std::pair<PredId, Adornment>, PredId> adorned_;
  std::deque<std::pair<PredId, Adornment>> worklist_;
};

// Moves the facts of IDB predicates into fresh "<p>__base" EDB predicates
// bridged by a rule, so the transformation's IDB/EDB split is clean (the
// RDF translation's `triple` predicate has both facts and rules).
DlProgram NormalizeMixedPredicates(const DlProgram& source,
                                   std::unordered_set<PredId>* idb) {
  for (const DlRule& rule : source.rules()) idb->insert(rule.head.pred);

  bool has_mixed = false;
  for (const DlAtom& fact : source.facts()) {
    if (idb->count(fact.pred) > 0) {
      has_mixed = true;
      break;
    }
  }
  if (!has_mixed) return source;  // cheap copy-through

  DlProgram normalized;
  for (Sym s = 0; s < source.sym_count(); ++s) {
    normalized.InternSym(source.sym_name(s));
  }
  for (PredId p = 0; p < source.pred_count(); ++p) {
    normalized.InternPred(source.pred_name(p), source.pred_arity(p));
  }
  std::unordered_set<PredId> bridged;
  for (const DlAtom& fact : source.facts()) {
    if (idb->count(fact.pred) == 0) {
      normalized.AddFact(fact);
      continue;
    }
    PredId base = normalized.InternPred(
        source.pred_name(fact.pred) + "__base", fact.args.size());
    DlAtom moved = fact;
    moved.pred = base;
    normalized.AddFact(std::move(moved));
    if (bridged.insert(fact.pred).second) {
      DlRule bridge;
      bridge.head.pred = fact.pred;
      for (size_t i = 0; i < source.pred_arity(fact.pred); ++i) {
        bridge.head.args.push_back(
            DlTerm::Variable(static_cast<DlVarId>(i)));
        bridge.var_names.push_back("X" + std::to_string(i));
      }
      DlAtom body = bridge.head;
      body.pred = base;
      bridge.body.push_back(std::move(body));
      normalized.AddRule(std::move(bridge));
    }
  }
  for (const DlRule& rule : source.rules()) normalized.AddRule(rule);
  return normalized;
}

}  // namespace

Result<MagicProgram> MagicTransform(const DlProgram& program,
                                    const DlAtom& query) {
  if (query.pred >= program.pred_count()) {
    return InvalidArgumentError("query predicate is unknown");
  }
  if (query.args.size() != program.pred_arity(query.pred)) {
    return InvalidArgumentError("query atom arity mismatch");
  }

  std::unordered_set<PredId> idb;
  DlProgram normalized = NormalizeMixedPredicates(program, &idb);
  if (idb.count(query.pred) == 0) {
    // Pure EDB query: nothing to optimize.
    MagicProgram out;
    out.program = std::move(normalized);
    out.answer_pred = query.pred;
    out.query_atom = query;
    return out;
  }
  return MagicBuilder(normalized, idb).Build(query);
}

Result<std::vector<Tuple>> AnswerWithMagic(const DlProgram& program,
                                           const DlAtom& query,
                                           EvalStats* stats,
                                           const EdbSources* edb) {
  WDR_ASSIGN_OR_RETURN(MagicProgram magic, MagicTransform(program, query));
  WDR_COUNTER_INC("wdr.datalog.magic.transforms");
  WDR_COUNTER_ADD("wdr.datalog.magic.rules", magic.program.rules().size());
  if (program.rules().size() <= magic.program.rules().size()) {
    WDR_COUNTER_ADD("wdr.datalog.magic.rules_added",
                    magic.program.rules().size() - program.rules().size());
  }
  WDR_ASSIGN_OR_RETURN(Database db,
                       MaterializeWithOptions(magic.program,
                                              MaterializeOptions{}, stats, edb));

  // Projection: the query's variables in increasing variable-id order.
  std::vector<DlVarId> projection;
  for (const DlTerm& t : magic.query_atom.args) {
    if (t.is_var) projection.push_back(t.id);
  }
  std::sort(projection.begin(), projection.end());
  projection.erase(std::unique(projection.begin(), projection.end()),
                   projection.end());
  return EvaluateQuery(magic.program, db, {magic.query_atom}, projection,
                       /*plan=*/nullptr, edb);
}

}  // namespace wdr::datalog
