#ifndef WDR_DATALOG_RDF_DATALOG_H_
#define WDR_DATALOG_RDF_DATALOG_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "exec/source.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "rdf/flat_triple_store.h"
#include "rdf/graph.h"
#include "rdf/store_view.h"
#include "schema/vocabulary.h"

namespace wdr::datalog {

// Translation of RDF + RDFS entailment to Datalog (§II-D open issue:
// "alternative methods ... based on translation to Datalog"). A Datalog
// symbol IS the term's rdf::TermId, so the translation keeps no second id
// space and copies no fact. The program is rules only:
//
//   triple(S, P, O) :- triple__base(S, P, O).
//
// bridges the graph's triples into the ternary `triple` predicate, and the
// RDFS rules of Fig. 2 plus the two transitivity rules become six rules
// over `triple`. `triple__base` and `resource` are external EDB relations
// (EdbSources): the graph's StoreView serves `triple__base`, bound
// arguments becoming prefix scans, and a literal-flag vector serves the
// unary guard `resource(x)` (literals cannot be subjects, so the rdfs3
// rule is guarded). Materializing the program computes exactly the
// saturation G∞ in `triple` (property-tested against the native
// saturator).
struct RdfDatalogTranslation {
  DlProgram program;
  PredId triple_pred = 0;    // the closure (IDB)
  PredId base_pred = 0;      // the graph's triples (external)
  PredId resource_pred = 0;  // non-literal terms (external)
  // The store serving `base_pred`. Not owned; ReasoningStore re-points it
  // at its own graph at each Datalog Prepare, so a moved store keeps a
  // valid translation.
  const rdf::StoreView* store = nullptr;
  // literal[id] != 0 iff term `id` is a literal; entry 0 (the null id) is
  // set. Ids at or past the end answer "not a resource": only terms
  // interned after the last ExtendLiteralFlags land there, and until a
  // write stores them those are query constants, which occur in no stored
  // triple. Evaluation reads this vector, never the dictionary.
  std::vector<uint8_t> literal;
};

// Builds the translation of `graph`: the seven rules, bound to the graph's
// store, with literal flags for every interned term.
RdfDatalogTranslation TranslateGraph(const rdf::Graph& graph,
                                     const schema::Vocabulary& vocab);

// Flags the terms interned since the translation was built or last
// extended. Call after a write stores new terms, at a point where no
// evaluation over `xlat` runs.
void ExtendLiteralFlags(RdfDatalogTranslation& xlat,
                        const rdf::Dictionary& dict);

// The translation's external relations, bound for one evaluation:
// `base_pred` scans `xlat.store`, `resource_pred` reads `xlat.literal`.
class TranslationEdb {
 public:
  explicit TranslationEdb(const RdfDatalogTranslation& xlat);
  TranslationEdb(const TranslationEdb&) = delete;
  TranslationEdb& operator=(const TranslationEdb&) = delete;

  const EdbSources* sources() const { return &sources_; }

 private:
  // resource(x): x is a flagged non-literal term.
  class ResourceSource final : public exec::TupleSource {
   public:
    explicit ResourceSource(const std::vector<uint8_t>& literal)
        : literal_(&literal) {}
    size_t arity() const override { return 1; }
    double EstimateBound(const exec::Value* values,
                         const uint8_t* bound) const override {
      if (bound[0]) return IsResource(values[0]) ? 1 : 0;
      return static_cast<double>(literal_->size());
    }
    bool Scan(const exec::Value* values, const uint8_t* bound,
              exec::FunctionRef<bool(const exec::Value*)> fn) const override {
      if (bound[0]) return !IsResource(values[0]) || fn(values);
      for (exec::Value id = 0; id < literal_->size(); ++id) {
        if (IsResource(id) && !fn(&id)) return false;
      }
      return true;
    }

   private:
    bool IsResource(exec::Value id) const {
      return id < literal_->size() && (*literal_)[id] == 0;
    }
    const std::vector<uint8_t>* literal_;  // not owned
  };

  exec::StoreSource<rdf::StoreView> base_;
  ResourceSource resource_;
  EdbSources sources_;
};

// Materializes the translation against its store; the result's `triple`
// relation is G∞.
Result<Database> MaterializeTranslation(const RdfDatalogTranslation& xlat,
                                        const MaterializeOptions& options = {},
                                        EvalStats* stats = nullptr);

// Translates `graph`, materializes it, and returns the `triple` relation
// as a flat store.
Result<rdf::FlatTripleStore> MaterializeViaDatalog(
    const rdf::Graph& graph, const schema::Vocabulary& vocab,
    Strategy strategy = Strategy::kSemiNaive, EvalStats* stats = nullptr);

// Same, with the full materialization configuration (the wdr::exec
// physical-plan route, ...).
Result<rdf::FlatTripleStore> MaterializeViaDatalog(
    const rdf::Graph& graph, const schema::Vocabulary& vocab,
    const MaterializeOptions& options, EvalStats* stats = nullptr);

// Answers a BGP / union query through the Datalog route: translates each
// branch into a conjunctive query over `triple` and evaluates it against
// the database MaterializeTranslation built. Results are set-semantics
// rows in the projection order of the query.
// `plan`, when non-null, routes each branch's conjunctive body through a
// wdr::exec physical plan instead of the recursive join.
Result<query::ResultSet> AnswerViaDatalog(const RdfDatalogTranslation& xlat,
                                          const Database& db,
                                          const query::UnionQuery& q,
                                          const BodyPlanOptions* plan = nullptr);

// Answers a BGP / union query through Datalog + magic sets, with NO prior
// materialization: each branch is wrapped in a fresh answer predicate whose
// single defining rule is the branch body, and magic-sets evaluation
// (datalog/magic.h) derives only the closure fragment relevant to that
// branch. This is the store's kDatalog route — reasoning cost is paid per
// query, focused by the query's constants, against the live triples of
// `xlat.store`; each branch's magic program carries only its seed fact.
// Preset bindings are substituted as constants (same convention as
// AnswerViaDatalog). `stats`, when non-null, accumulates the per-branch
// materialization stats.
Result<query::ResultSet> AnswerViaMagicUnion(const RdfDatalogTranslation& xlat,
                                             const query::UnionQuery& q,
                                             EvalStats* stats = nullptr);

}  // namespace wdr::datalog

#endif  // WDR_DATALOG_RDF_DATALOG_H_
