// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call into a layer's public entry point. The benchmark
// opens root spans around its own operations (a Client::Call, an embedded
// read, a setup); the traced build wraps the library's cross-module entry
// points (see wraps.cc) so each nested call opens a child span on its
// thread. Spans of one operation share a request id and point to their
// parent, including across the client/server thread boundary: a server
// session thread is bound to the client session it serves, and its
// outermost span takes that session's open root as parent.
//
// Recording is off unless Enable(true); a disabled span costs one relaxed
// load. Repeated sibling calls of the same site under one parent (a
// DecodeRow per row, a PlanConjunctive per conjunctive query) merge into a
// single record with a call count, which bounds memory per operation.
// Records stay in memory until Summarize()/WriteTsv() after the run.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench::trace {

// Every traced call site. Keep in step with kSiteInfo in trace.cc.
enum class Site : uint16_t {
  kClientCall,      // server::Client::Call, around one protocol request
  kBenchRead,       // one embedded Prepare -> Execute -> DecodeRow read
  kBenchSetup,      // one timed set-up
  kBenchProbe,      // a direct measurement outside any operation
  kSnapshotQuery,   // server::SnapshotStore::Query
  kSnapshotUpdate,  // server::SnapshotStore::Update
  kPrepare,         // store::ReasoningStore::Prepare
  kExecute,         // store::ReasoningStore::Execute
  kDecodeRow,       // store::ReasoningStore::DecodeRow
  kStoreUpdate,     // store::ReasoningStore::Update
  kWarm,            // store::ReasoningStore::Warm
  kStoreLoad,       // store::ReasoningStore::LoadTurtle
  kParseSparql,     // query::ParseSparql
  kEvaluate,        // query::Evaluator::Evaluate
  kReformulate,     // reformulation::Reformulator::Reformulate
  kPlan,            // exec::PlanConjunctive
  kExecRun,         // exec::Run
  kStatsBuild,      // exec::Statistics::Build (benchmark probe)
  kBackwardEval,    // backward::BackwardChainingEvaluator::Evaluate
  kTranslate,       // datalog::TranslateGraph
  kDatalogEval,     // datalog::AnswerViaMagicUnion
  kSaturate,        // reasoning::SaturatedGraph construction (closure build)
  kMaintainInsert,  // reasoning::SaturatedGraph::Insert
  kMaintainErase,   // reasoning::SaturatedGraph::Erase
  kParseTurtle,     // io::ParseTurtle
  kCount,
};
inline constexpr size_t kSiteCount = static_cast<size_t>(Site::kCount);

// "server", "store", ... — the module a site belongs to.
const char* SiteLayer(Site site);
// "SnapshotStore::Query", ... — the function a site wraps.
const char* SiteFunction(Site site);

void Enable(bool on);
bool Enabled();

// True in the build that links wraps.cc (wdr_perfbench_traced); only then
// do library-internal calls open spans.
bool LayerWrapsLinked();

// RAII span on the calling thread. With `session` >= 0 the span is a
// session's root: server-side spans of the request it covers become its
// children.
class Span {
 public:
  explicit Span(Site site, int session = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

// Binding of server session threads to client sessions: while a binding is
// pending, the next server-side span on a not-yet-bound thread binds that
// thread to `session`. The benchmark connects its clients one at a time
// and issues one request each while the binding is pending.
inline constexpr int kMaxSessions = 64;
void BindNextServerThread(int session);
void ClearPendingBinding();
// Called by the wrappers in wraps.cc before opening a server-side span.
void MaybeBindServerThread();

// Drops every record (the thread bindings stay).
void Clear();

// Per-site totals over all records.
struct SiteTotals {
  uint64_t calls = 0;
  double total_ms = 0;  // inclusive
  double self_ms = 0;   // inclusive minus child spans
};
struct Summary {
  // Over every record: set-ups and probes included.
  std::array<SiteTotals, kSiteCount> all{};
  // Only over records under operation roots (kClientCall, kBenchRead):
  // the per-operation split of latency.
  std::array<SiteTotals, kSiteCount> in_ops{};
  uint64_t operations = 0;  // calls of kClientCall / kBenchRead roots
  uint64_t records = 0;
  uint64_t orphans = 0;  // records whose parent id was never recorded
};
// Call only when no thread is recording (all sessions joined).
Summary Summarize();

// Writes every record as tab-separated lines (id, parent, request, layer,
// function, calls, start_ns, duration_ns). Returns false on I/O error.
bool WriteTsv(const std::string& path);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
