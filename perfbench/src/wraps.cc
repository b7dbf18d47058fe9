// Link-time span wrappers for the traced build (wdr_perfbench_traced).
//
// The linker's --wrap=SYMBOL redirects every undefined reference to SYMBOL
// to __wrap_SYMBOL and makes __real_SYMBOL name the original definition.
// Each wrapper below opens a span, calls the original and closes the span,
// so the library is timed at its module boundaries without any change to
// its code. A member function is declared here as a free function taking
// the object pointer first, which is the same calling convention under the
// Itanium C++ ABI. The mangled names must match PERFBENCH_WRAPPED_SYMBOLS
// in CMakeLists.txt; a signature change in the library makes the traced
// build fail to link rather than silently lose a layer.
#include "backward/backward_evaluator.h"
#include "datalog/rdf_datalog.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "io/turtle.h"
#include "query/evaluator.h"
#include "query/sparql_parser.h"
#include "reasoning/saturated_graph.h"
#include "reformulation/reformulator.h"
#include "server/snapshot_store.h"
#include "store/reasoning_store.h"
#include "trace.h"

namespace perfbench::trace {
bool LayerWrapsLinked() { return true; }
}  // namespace perfbench::trace

namespace {

using perfbench::trace::Site;
using perfbench::trace::Span;

// Server-side entry points also bind their thread to the client session
// whose request it is serving (see trace.h).
struct ServerSpan {
  explicit ServerSpan(Site site)
      : span((perfbench::trace::MaybeBindServerThread(), site)) {}
  Span span;
};

}  // namespace

#define PERFBENCH_WRAP(SPAN, SITE, SYMBOL, RET, PARAMS, ARGS) \
  extern "C" RET __real_##SYMBOL PARAMS;                      \
  extern "C" RET __wrap_##SYMBOL PARAMS {                     \
    SPAN span(Site::SITE);                                    \
    return __real_##SYMBOL ARGS;                              \
  }

// server::SnapshotStore::Query(string_view, const ReadOptions&, PlanCache*,
// bool)
PERFBENCH_WRAP(
    ServerSpan, kSnapshotQuery,
    _ZN3wdr6server13SnapshotStore5QueryESt17basic_string_viewIcSt11char_traitsIcEERKNS_5store11ReadOptionsEPNS1_9PlanCacheEb,
    wdr::Result<wdr::server::SnapshotStore::ReadResult>,
    (wdr::server::SnapshotStore * self, std::string_view sparql,
     const wdr::store::ReadOptions& options,
     wdr::server::SnapshotStore::PlanCache* cache, bool decode),
    (self, sparql, options, cache, decode))

// server::SnapshotStore::Update(string_view)
PERFBENCH_WRAP(
    ServerSpan, kSnapshotUpdate,
    _ZN3wdr6server13SnapshotStore6UpdateESt17basic_string_viewIcSt11char_traitsIcEE,
    wdr::Result<wdr::store::UpdateInfo>,
    (wdr::server::SnapshotStore * self, std::string_view update),
    (self, update))

// store::ReasoningStore::Prepare(string_view, const ReadOptions&)
PERFBENCH_WRAP(
    Span, kPrepare,
    _ZN3wdr5store14ReasoningStore7PrepareESt17basic_string_viewIcSt11char_traitsIcEERKNS0_11ReadOptionsE,
    wdr::Result<wdr::store::PreparedQuery>,
    (wdr::store::ReasoningStore * self, std::string_view sparql,
     const wdr::store::ReadOptions& options),
    (self, sparql, options))

// store::ReasoningStore::Execute(const PreparedQuery&, QueryInfo*) const
PERFBENCH_WRAP(
    Span, kExecute,
    _ZNK3wdr5store14ReasoningStore7ExecuteERKNS0_13PreparedQueryEPNS0_9QueryInfoE,
    wdr::Result<wdr::query::ResultSet>,
    (const wdr::store::ReasoningStore* self,
     const wdr::store::PreparedQuery& prepared, wdr::store::QueryInfo* info),
    (self, prepared, info))

// store::ReasoningStore::DecodeRow(const query::Row&) const
PERFBENCH_WRAP(
    Span, kDecodeRow,
    _ZNK3wdr5store14ReasoningStore9DecodeRowB5cxx11ERKSt6vectorIjSaIjEE,
    std::vector<std::string>,
    (const wdr::store::ReasoningStore* self, const wdr::query::Row& row),
    (self, row))

// store::ReasoningStore::Update(string_view)
PERFBENCH_WRAP(
    Span, kStoreUpdate,
    _ZN3wdr5store14ReasoningStore6UpdateESt17basic_string_viewIcSt11char_traitsIcEE,
    wdr::Result<wdr::store::UpdateInfo>,
    (wdr::store::ReasoningStore * self, std::string_view update),
    (self, update))

// store::ReasoningStore::Warm()
PERFBENCH_WRAP(Span, kWarm, _ZN3wdr5store14ReasoningStore4WarmEv, void,
               (wdr::store::ReasoningStore * self), (self))

// store::ReasoningStore::LoadTurtle(string_view)
PERFBENCH_WRAP(
    Span, kStoreLoad,
    _ZN3wdr5store14ReasoningStore10LoadTurtleESt17basic_string_viewIcSt11char_traitsIcEE,
    wdr::Result<size_t>,
    (wdr::store::ReasoningStore * self, std::string_view text), (self, text))

// query::ParseSparql(string_view, rdf::Dictionary&)
PERFBENCH_WRAP(
    Span, kParseSparql,
    _ZN3wdr5query11ParseSparqlESt17basic_string_viewIcSt11char_traitsIcEERNS_3rdf10DictionaryE,
    wdr::Result<wdr::query::UnionQuery>,
    (std::string_view text, wdr::rdf::Dictionary& dict), (text, dict))

// query::Evaluator::Evaluate(const UnionQuery&, obs::ProfileNode*) const
PERFBENCH_WRAP(
    Span, kEvaluate,
    _ZNK3wdr5query9Evaluator8EvaluateERKNS0_10UnionQueryEPNS_3obs11ProfileNodeE,
    wdr::Result<wdr::query::ResultSet>,
    (const wdr::query::Evaluator* self, const wdr::query::UnionQuery& q,
     wdr::obs::ProfileNode* profile),
    (self, q, profile))

// reformulation::Reformulator::Reformulate(const UnionQuery&,
// ReformulationStats*) const
PERFBENCH_WRAP(
    Span, kReformulate,
    _ZNK3wdr13reformulation12Reformulator11ReformulateERKNS_5query10UnionQueryEPNS0_18ReformulationStatsE,
    wdr::Result<wdr::query::UnionQuery>,
    (const wdr::reformulation::Reformulator* self,
     const wdr::query::UnionQuery& q,
     wdr::reformulation::ReformulationStats* stats),
    (self, q, stats))

// exec::PlanConjunctive(const ConjunctiveSpec&, const PlannerOptions&)
PERFBENCH_WRAP(
    Span, kPlan,
    _ZN3wdr4exec15PlanConjunctiveERKNS0_15ConjunctiveSpecERKNS0_14PlannerOptionsE,
    wdr::exec::CompiledPlan,
    (const wdr::exec::ConjunctiveSpec& spec,
     const wdr::exec::PlannerOptions& options),
    (spec, options))

// exec::Run(const PlanNode&, const vector<const TupleSource*>&,
// const ExecOptions&, RowSink, obs::ProfileNode*)
PERFBENCH_WRAP(
    Span, kExecRun,
    _ZN3wdr4exec3RunERKNS0_8PlanNodeERKSt6vectorIPKNS0_11TupleSourceESaIS7_EERKNS0_11ExecOptionsENS0_11FunctionRefIFbPKjmEEEPNS_3obs11ProfileNodeE,
    bool,
    (const wdr::exec::PlanNode& plan,
     const std::vector<const wdr::exec::TupleSource*>& sources,
     const wdr::exec::ExecOptions& options, wdr::exec::RowSink emit,
     wdr::obs::ProfileNode* profile),
    (plan, sources, options, emit, profile))

// backward::BackwardChainingEvaluator::Evaluate(const UnionQuery&,
// BackwardStats*) const
PERFBENCH_WRAP(
    Span, kBackwardEval,
    _ZNK3wdr8backward25BackwardChainingEvaluator8EvaluateERKNS_5query10UnionQueryEPNS0_13BackwardStatsE,
    wdr::Result<wdr::query::ResultSet>,
    (const wdr::backward::BackwardChainingEvaluator* self,
     const wdr::query::UnionQuery& q, wdr::backward::BackwardStats* stats),
    (self, q, stats))

// datalog::TranslateGraph(const rdf::Graph&, const schema::Vocabulary&)
PERFBENCH_WRAP(
    Span, kTranslate,
    _ZN3wdr7datalog14TranslateGraphERKNS_3rdf5GraphERKNS_6schema10VocabularyE,
    wdr::datalog::RdfDatalogTranslation,
    (const wdr::rdf::Graph& graph, const wdr::schema::Vocabulary& vocab),
    (graph, vocab))

// datalog::AnswerViaMagicUnion(const RdfDatalogTranslation&,
// const query::UnionQuery&, EvalStats*)
PERFBENCH_WRAP(
    Span, kDatalogEval,
    _ZN3wdr7datalog19AnswerViaMagicUnionERKNS0_21RdfDatalogTranslationERKNS_5query10UnionQueryEPNS0_9EvalStatsE,
    wdr::Result<wdr::query::ResultSet>,
    (const wdr::datalog::RdfDatalogTranslation& xlat,
     const wdr::query::UnionQuery& q, wdr::datalog::EvalStats* stats),
    (xlat, q, stats))

// reasoning::SaturatedGraph::SaturatedGraph(const rdf::Graph&,
// const schema::Vocabulary&, bool, const SaturationOptions&)
PERFBENCH_WRAP(
    Span, kSaturate,
    _ZN3wdr9reasoning14SaturatedGraphC1ERKNS_3rdf5GraphERKNS_6schema10VocabularyEbRKNS0_17SaturationOptionsE,
    void,
    (wdr::reasoning::SaturatedGraph * self, const wdr::rdf::Graph& base,
     const wdr::schema::Vocabulary& vocab, bool flag,
     const wdr::reasoning::SaturationOptions& options),
    (self, base, vocab, flag, options))

// reasoning::SaturatedGraph::Insert(const rdf::Triple&)
PERFBENCH_WRAP(
    Span, kMaintainInsert,
    _ZN3wdr9reasoning14SaturatedGraph6InsertERKNS_3rdf6TripleE, size_t,
    (wdr::reasoning::SaturatedGraph * self, const wdr::rdf::Triple& t),
    (self, t))

// reasoning::SaturatedGraph::Erase(const rdf::Triple&)
PERFBENCH_WRAP(
    Span, kMaintainErase,
    _ZN3wdr9reasoning14SaturatedGraph5EraseERKNS_3rdf6TripleE, size_t,
    (wdr::reasoning::SaturatedGraph * self, const wdr::rdf::Triple& t),
    (self, t))

// io::ParseTurtle(string_view, rdf::Graph&)
PERFBENCH_WRAP(
    Span, kParseTurtle,
    _ZN3wdr2io11ParseTurtleESt17basic_string_viewIcSt11char_traitsIcEERNS_3rdf5GraphE,
    wdr::Result<size_t>, (std::string_view text, wdr::rdf::Graph& graph),
    (text, graph))
