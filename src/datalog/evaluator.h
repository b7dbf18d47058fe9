#ifndef WDR_DATALOG_EVALUATOR_H_
#define WDR_DATALOG_EVALUATOR_H_

#include <vector>

#include "common/status.h"
#include "datalog/database.h"
#include "datalog/program.h"
#include "exec/plan.h"
#include "exec/source.h"

namespace wdr::datalog {

// Bottom-up evaluation strategy.
enum class Strategy {
  // Re-evaluates every rule against the whole database each round.
  kNaive,
  // Each round restricts one body atom to the tuples derived in the
  // previous round (the textbook optimization the paper's [29] builds on).
  kSemiNaive,
};

struct EvalStats {
  size_t iterations = 0;
  size_t derived_tuples = 0;  // beyond the initial facts
  size_t rule_evaluations = 0;
};

// EDB relations served from outside the Database, by predicate: the RDF
// translation reads its base triples straight from the graph's StoreView
// (exec::StoreSource) instead of copying them into facts. Atoms over a
// bound predicate scan its source, bound arguments pushed into the scan;
// such a predicate may head no rule and hold no fact. A source must have
// its predicate's arity; sources are not owned and must outlive the
// evaluation.
struct EdbSources {
  std::vector<const exec::TupleSource*> by_pred;  // null: in the Database

  void Bind(PredId pred, const exec::TupleSource* source) {
    if (pred >= by_pred.size()) by_pred.resize(pred + 1, nullptr);
    by_pred[pred] = source;
  }
  const exec::TupleSource* Find(PredId pred) const {
    return pred < by_pred.size() ? by_pred[pred] : nullptr;
  }
};

// Knobs for the wdr::exec physical-plan route through rule-body joins.
struct BodyPlanOptions {
  bool hash_joins = true;
  size_t batch_rows = 1024;
};

// Full materialization configuration. `plan` compiles each rule-body join
// into the shared wdr::exec physical-plan IR — cost-based join order and
// join algorithm from live relation statistics (sizes and per-column
// distinct counts are maintained by Relation inserts, so the estimator is
// never stale) — instead of the recursive per-binding BodyJoin. Both
// routes derive the same database (property-tested differentially).
// WDR_PLAN=1 in the environment flips the `plan` default on.
struct MaterializeOptions {
  Strategy strategy = Strategy::kSemiNaive;
  bool plan = exec::PlanModeDefault();
  BodyPlanOptions plan_options;
};

// `edb`, when non-null, serves the atoms of its predicates; the Database
// then holds only the facts and the derived (IDB) relations.
Result<Database> MaterializeWithOptions(const DlProgram& program,
                                        const MaterializeOptions& options,
                                        EvalStats* stats = nullptr,
                                        const EdbSources* edb = nullptr);

// Materializes the least fixpoint of `program` (facts + rules).
// The program must Validate(); the two strategies produce identical
// databases (property-tested), differing only in work done.
Result<Database> Materialize(const DlProgram& program, Strategy strategy,
                             EvalStats* stats = nullptr);

// Evaluates a conjunctive query (the `body` atoms, sharing variable ids)
// against a materialized database, returning the distinct projections of
// `projection` variables. Every projected variable must occur in `body`.
// When `plan` is non-null the body runs through a wdr::exec physical plan
// (cost-based over live relation statistics); answers are identical.
// Atoms over `edb` predicates scan their external source.
Result<std::vector<Tuple>> EvaluateQuery(const DlProgram& program,
                                         const Database& db,
                                         const std::vector<DlAtom>& body,
                                         const std::vector<DlVarId>& projection,
                                         const BodyPlanOptions* plan = nullptr,
                                         const EdbSources* edb = nullptr);

}  // namespace wdr::datalog

#endif  // WDR_DATALOG_EVALUATOR_H_
