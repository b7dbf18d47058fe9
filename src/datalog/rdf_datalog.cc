#include "datalog/rdf_datalog.h"

#include <set>
#include <string>

#include "datalog/magic.h"

namespace wdr::datalog {
namespace {

using query::BgpQuery;
using query::PatternTerm;
using query::TriplePattern;
using rdf::TermId;

// Builds the bridge and the six RDFS rules over the reified triple
// predicate. Variable ids within each rule: S=0, P=1, O=2, C=3 (roles vary
// per rule).
void AddRules(DlProgram& program, PredId triple, PredId base,
              PredId resource, const schema::Vocabulary& vocab) {
  const Sym type = vocab.type;
  const Sym sco = vocab.sub_class_of;
  const Sym spo = vocab.sub_property_of;
  const Sym dom = vocab.domain;
  const Sym rng = vocab.range;
  auto v = [](DlVarId id) { return DlTerm::Variable(id); };
  auto c = [](Sym s) { return DlTerm::Constant(s); };
  auto atom = [&](PredId pred, std::vector<DlTerm> args) {
    DlAtom a;
    a.pred = pred;
    a.args = std::move(args);
    return a;
  };
  auto rule = [&](DlAtom head, std::vector<DlAtom> body,
                  std::vector<std::string> names) {
    DlRule r;
    r.head = std::move(head);
    r.body = std::move(body);
    r.var_names = std::move(names);
    program.AddRule(std::move(r));
  };

  // Bridge: triple(S,P,O) :- triple__base(S,P,O).
  rule(atom(triple, {v(0), v(1), v(2)}), {atom(base, {v(0), v(1), v(2)})},
       {"S", "P", "O"});
  // rdfs9: triple(S,type,C2) :- triple(C1,sco,C2), triple(S,type,C1).
  rule(atom(triple, {v(0), c(type), v(2)}),
       {atom(triple, {v(1), c(sco), v(2)}), atom(triple, {v(0), c(type), v(1)})},
       {"S", "C1", "C2"});
  // rdfs7: triple(S,P2,O) :- triple(P1,spo,P2), triple(S,P1,O).
  rule(atom(triple, {v(0), v(2), v(3)}),
       {atom(triple, {v(1), c(spo), v(2)}), atom(triple, {v(0), v(1), v(3)})},
       {"S", "P1", "P2", "O"});
  // rdfs2: triple(S,type,C) :- triple(P,dom,C), triple(S,P,O).
  rule(atom(triple, {v(0), c(type), v(2)}),
       {atom(triple, {v(1), c(dom), v(2)}), atom(triple, {v(0), v(1), v(3)})},
       {"S", "P", "C", "O"});
  // rdfs3 (guarded): triple(O,type,C) :- triple(P,rng,C), triple(S,P,O),
  //                                      resource(O).
  rule(atom(triple, {v(3), c(type), v(2)}),
       {atom(triple, {v(1), c(rng), v(2)}), atom(triple, {v(0), v(1), v(3)}),
        atom(resource, {v(3)})},
       {"S", "P", "C", "O"});
  // rdfs11: triple(C1,sco,C3) :- triple(C1,sco,C2), triple(C2,sco,C3).
  rule(atom(triple, {v(0), c(sco), v(2)}),
       {atom(triple, {v(0), c(sco), v(1)}), atom(triple, {v(1), c(sco), v(2)})},
       {"C1", "C2", "C3"});
  // rdfs5: triple(P1,spo,P3) :- triple(P1,spo,P2), triple(P2,spo,P3).
  rule(atom(triple, {v(0), c(spo), v(2)}),
       {atom(triple, {v(0), c(spo), v(1)}), atom(triple, {v(1), c(spo), v(2)})},
       {"P1", "P2", "P3"});
}

// One UCQ branch as a conjunctive query over `triple`. Symbols are
// TermIds, so constants carry over as they are; preset bindings become
// constants too. Projected preset variables are `fixed` columns, filled
// in after evaluation; the query itself projects `effective`.
struct BranchQuery {
  std::vector<DlAtom> body;
  size_t width = 0;  // projection columns
  std::vector<DlVarId> effective;
  std::vector<size_t> effective_cols;
  std::vector<std::pair<size_t, TermId>> fixed;  // (column, value)
};

BranchQuery TranslateBranch(const BgpQuery& branch, PredId triple) {
  BranchQuery out;
  auto term = [&](const PatternTerm& t) {
    if (!t.is_var()) return DlTerm::Constant(t.id);
    auto it = branch.preset().find(t.var);
    return it != branch.preset().end() ? DlTerm::Constant(it->second)
                                       : DlTerm::Variable(t.var);
  };
  for (const TriplePattern& atom : branch.atoms()) {
    DlAtom dl;
    dl.pred = triple;
    dl.args = {term(atom.s), term(atom.p), term(atom.o)};
    out.body.push_back(std::move(dl));
  }
  out.width = branch.projection().size();
  for (size_t i = 0; i < out.width; ++i) {
    const query::VarId v = branch.projection()[i];
    auto it = branch.preset().find(v);
    if (it != branch.preset().end()) {
      out.fixed.emplace_back(i, it->second);
    } else {
      out.effective.push_back(v);
      out.effective_cols.push_back(i);
    }
  }
  return out;
}

// Answers every branch of `q` with `answer` (BranchQuery -> the distinct
// `effective` tuples) and folds the rows into one deduplicated result.
template <typename AnswerFn>
Result<query::ResultSet> AnswerUnion(const query::UnionQuery& q,
                                     PredId triple, AnswerFn&& answer) {
  query::ResultSet result;
  std::set<query::Row> seen;
  for (const BgpQuery& branch : q.branches()) {
    if (result.var_names.empty()) {
      result.var_names = branch.ProjectionNames();
    }
    const BranchQuery bq = TranslateBranch(branch, triple);
    WDR_ASSIGN_OR_RETURN(std::vector<Tuple> tuples, answer(bq));
    for (const Tuple& tuple : tuples) {
      query::Row row(bq.width, rdf::kNullTermId);
      for (size_t i = 0; i < bq.effective_cols.size(); ++i) {
        row[bq.effective_cols[i]] = tuple[i];
      }
      for (const auto& [col, value] : bq.fixed) row[col] = value;
      if (seen.insert(row).second) result.rows.push_back(std::move(row));
    }
  }
  query::ApplySolutionModifiers(q, result);
  return result;
}

}  // namespace

RdfDatalogTranslation TranslateGraph(const rdf::Graph& graph,
                                     const schema::Vocabulary& vocab) {
  RdfDatalogTranslation xlat;
  DlProgram& program = xlat.program;
  xlat.triple_pred = program.InternPred("triple", 3);
  xlat.base_pred = program.InternPred("triple__base", 3);
  xlat.resource_pred = program.InternPred("resource", 1);
  AddRules(program, xlat.triple_pred, xlat.base_pred, xlat.resource_pred,
           vocab);
  xlat.store = &graph.store();
  ExtendLiteralFlags(xlat, graph.dict());
  return xlat;
}

void ExtendLiteralFlags(RdfDatalogTranslation& xlat,
                        const rdf::Dictionary& dict) {
  if (xlat.literal.empty()) xlat.literal.push_back(1);  // the null id
  xlat.literal.reserve(dict.size() + 1);
  for (size_t id = xlat.literal.size(); id <= dict.size(); ++id) {
    xlat.literal.push_back(
        dict.term(static_cast<TermId>(id)).is_literal() ? 1 : 0);
  }
}

TranslationEdb::TranslationEdb(const RdfDatalogTranslation& xlat)
    : base_(*xlat.store), resource_(xlat.literal) {
  sources_.Bind(xlat.base_pred, &base_);
  sources_.Bind(xlat.resource_pred, &resource_);
}

Result<Database> MaterializeTranslation(const RdfDatalogTranslation& xlat,
                                        const MaterializeOptions& options,
                                        EvalStats* stats) {
  const TranslationEdb edb(xlat);
  return MaterializeWithOptions(xlat.program, options, stats, edb.sources());
}

Result<rdf::FlatTripleStore> MaterializeViaDatalog(
    const rdf::Graph& graph, const schema::Vocabulary& vocab,
    Strategy strategy, EvalStats* stats) {
  MaterializeOptions options;
  options.strategy = strategy;
  return MaterializeViaDatalog(graph, vocab, options, stats);
}

Result<rdf::FlatTripleStore> MaterializeViaDatalog(
    const rdf::Graph& graph, const schema::Vocabulary& vocab,
    const MaterializeOptions& options, EvalStats* stats) {
  const RdfDatalogTranslation xlat = TranslateGraph(graph, vocab);
  WDR_ASSIGN_OR_RETURN(Database db,
                       MaterializeTranslation(xlat, options, stats));
  std::vector<rdf::Triple> triples;
  triples.reserve(db.relation(xlat.triple_pred).size());
  for (const Tuple& t : db.relation(xlat.triple_pred).tuples()) {
    triples.emplace_back(t[0], t[1], t[2]);
  }
  rdf::FlatTripleStore closure;
  closure.Build(std::move(triples));
  return closure;
}

Result<query::ResultSet> AnswerViaDatalog(const RdfDatalogTranslation& xlat,
                                          const Database& db,
                                          const query::UnionQuery& q,
                                          const BodyPlanOptions* plan) {
  return AnswerUnion(q, xlat.triple_pred, [&](const BranchQuery& bq) {
    return EvaluateQuery(xlat.program, db, bq.body, bq.effective, plan);
  });
}

Result<query::ResultSet> AnswerViaMagicUnion(const RdfDatalogTranslation& xlat,
                                             const query::UnionQuery& q,
                                             EvalStats* stats) {
  const TranslationEdb edb(xlat);
  return AnswerUnion(
      q, xlat.triple_pred,
      [&](const BranchQuery& bq) -> Result<std::vector<Tuple>> {
        // Wrap the branch in a fresh answer predicate so the magic
        // transform has an IDB query atom to adorn; its all-free query
        // atom then asks for the distinct projections.
        DlProgram program = xlat.program;
        const PredId answer =
            program.InternPred("__magic_answer", bq.effective.size());
        DlRule rule;
        rule.head.pred = answer;
        for (DlVarId v : bq.effective) {
          rule.head.args.push_back(DlTerm::Variable(v));
        }
        rule.body = bq.body;
        program.AddRule(std::move(rule));

        DlAtom query_atom;
        query_atom.pred = answer;
        for (size_t i = 0; i < bq.effective.size(); ++i) {
          query_atom.args.push_back(
              DlTerm::Variable(static_cast<DlVarId>(i)));
        }
        EvalStats branch_stats;
        Result<std::vector<Tuple>> tuples = AnswerWithMagic(
            program, query_atom, stats != nullptr ? &branch_stats : nullptr,
            edb.sources());
        if (stats != nullptr) {
          stats->derived_tuples += branch_stats.derived_tuples;
          stats->iterations += branch_stats.iterations;
          stats->rule_evaluations += branch_stats.rule_evaluations;
        }
        return tuples;
      });
}

}  // namespace wdr::datalog
