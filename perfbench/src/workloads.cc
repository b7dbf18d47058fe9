#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "exec/statistics.h"
#include "io/turtle_writer.h"
#include "obs/metrics.h"
#include "reasoning/saturated_graph.h"
#include "reformulation/reformulator.h"
#include "schema/vocabulary.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "store/reasoning_store.h"
#include "trace.h"
#include "workload/queries.h"
#include "workload/university.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

using wdr::Rng;
using wdr::server::Client;
using wdr::server::Response;
using wdr::server::Server;
using wdr::server::SnapshotStore;
using wdr::store::ReadOptions;
using wdr::store::ReasoningMode;
using wdr::store::ReasoningStore;
using Clock = std::chrono::steady_clock;
using trace::Site;

// Closed-loop client sessions of the served workloads: the host has four
// cores, and each session is a caller waiting for its reply.
constexpr int kSessions = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 7;
// Graph sizes, in universities of the generator.
constexpr int kReadUniversities = 8;
constexpr int kReadWriteUniversities = 12;
// serve-rw: one request in kUpdateEvery is an update, and each session
// keeps this many of its fresh individuals before deleting the oldest.
constexpr uint64_t kUpdateEvery = 4;
constexpr size_t kLiveWindow = 8;
// serve-rw point reads: constants drawn per seed.
constexpr size_t kTypeQueries = 48;
constexpr size_t kDepartmentQueries = 16;
// Statistics::Build probe repetitions (traced runs).
constexpr int kStatsProbeReps = 5;

constexpr ReasoningMode kRoutes[] = {
    ReasoningMode::kSaturation, ReasoningMode::kReformulation,
    ReasoningMode::kBackward, ReasoningMode::kDatalog};
constexpr size_t kRouteCount = std::size(kRoutes);

constexpr const char* kFreshNs = "http://wdr.example.org/perfbench#";

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

std::string Iri(const char* iri) { return std::string("<") + iri + ">"; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Inputs

// Serializes one workload query as SPARQL text (constants in the university
// workload are always IRIs).
std::string ToSparql(const wdr::query::BgpQuery& q,
                     const wdr::rdf::Dictionary& dict) {
  std::string text = "SELECT";
  if (q.distinct()) text += " DISTINCT";
  for (wdr::query::VarId v : q.projection()) text += " ?" + q.var_name(v);
  text += " WHERE {";
  bool first = true;
  for (const wdr::query::TriplePattern& atom : q.atoms()) {
    if (!first) text += " .";
    first = false;
    for (const wdr::query::PatternTerm* term : {&atom.s, &atom.p, &atom.o}) {
      text += ' ';
      text += term->is_var() ? "?" + q.var_name(term->var)
                             : dict.term(term->id).ToNTriples();
    }
  }
  text += " }";
  return text;
}

// Everything the program under test receives comes from here: generated
// Turtle and SPARQL text, a function of the seed.
struct Dataset {
  wdr::workload::UniversityData data;
  std::string turtle;
  std::vector<std::string> query_names;  // Q1 .. Q10
  std::vector<std::string> queries;
};

Dataset MakeDataset(uint64_t seed, int universities) {
  Dataset ds;
  wdr::workload::UniversityConfig config;
  config.seed = seed;
  config.universities = universities;
  ds.data = wdr::workload::GenerateUniversityData(config);
  wdr::reformulation::CloseSchema(ds.data.graph, ds.data.vocab);
  ds.turtle = wdr::io::WriteTurtle(ds.data.graph);
  for (const auto& nq :
       wdr::workload::StandardQuerySet(ds.data.graph.dict())) {
    ds.query_names.push_back(nq.name);
    ds.queries.push_back(ToSparql(nq.query, ds.data.graph.dict()));
  }
  return ds;
}

// One read through the store's Prepare -> Execute -> DecodeRow path with
// the route chosen per read. `decoded` receives the rendered rows.
wdr::Status ReadRows(ReasoningStore& store, std::string_view sparql,
                     ReasoningMode route, std::vector<std::string>* decoded) {
  ReadOptions options;
  options.mode = route;
  auto prepared = store.Prepare(sparql, options);
  if (!prepared.ok()) return prepared.status();
  auto result = store.Execute(prepared.value());
  if (!result.ok()) return result.status();
  decoded->clear();
  decoded->reserve(result.value().rows.size());
  for (const auto& row : result.value().rows) {
    decoded->push_back(RenderRow(store.DecodeRow(row)));
  }
  return wdr::Status();
}

AnswerDigest Digest(const std::vector<std::string>& rows) {
  AnswerDigest digest;
  for (const std::string& row : rows) digest.AddRow(row);
  return digest;
}

// Expected answers of `queries`, each required identical on every route.
// Queries whose routes disagree get no trustworthy answer; they are counted
// in `counts` as failed and their expected digest is left empty.
std::vector<AnswerDigest> ExpectedAnswers(
    ReasoningStore& store, const std::vector<std::string>& queries,
    const std::vector<ReasoningMode>& routes, OpCounts* counts,
    std::string* log) {
  std::vector<AnswerDigest> expected(queries.size());
  std::vector<std::string> rows;
  for (size_t q = 0; q < queries.size(); ++q) {
    std::optional<AnswerDigest> agreed;
    bool agree = true;
    for (ReasoningMode route : routes) {
      const wdr::Status status = ReadRows(store, queries[q], route, &rows);
      const std::optional<AnswerDigest> got =
          status.ok() ? std::optional<AnswerDigest>(Digest(rows))
                      : std::nullopt;
      if (!got.has_value()) {
        *log += "# answer check: query " + std::to_string(q + 1) + " on " +
                wdr::store::ReasoningModeName(route) +
                " failed: " + status.ToString() + "\n";
        agree = false;
      } else if (!agreed.has_value()) {
        agreed = got;
      } else if (!(*got == *agreed)) {
        *log += "# answer check: query " + std::to_string(q + 1) + " on " +
                wdr::store::ReasoningModeName(route) +
                " disagrees with the first route\n";
        agree = false;
      }
    }
    counts->Record(agree);
    if (agree && agreed.has_value()) expected[q] = *agreed;
  }
  return expected;
}

// ---------------------------------------------------------------------------
// Served set-up

struct Served {
  std::unique_ptr<SnapshotStore> store;
  std::unique_ptr<Server> server;
};

// The timed set-up of a served workload: Turtle load into both left-right
// sides (closure build and Warm included) and server start, with the
// store's shipped defaults.
wdr::Result<Served> StartServed(const std::string& turtle) {
  Served served;
  served.store = std::make_unique<SnapshotStore>();
  auto loaded = served.store->LoadTurtle(turtle);
  if (!loaded.ok()) return loaded.status();
  served.server = std::make_unique<Server>(*served.store);
  const wdr::Status started = served.server->Start();
  if (!started.ok()) return started;
  return served;
}

// Runs `setup` kSetupReps times, tracing the last one when tracing is on,
// and returns the durations in seconds.
template <typename Fn>
std::vector<double> RepeatSetup(bool trace_last, Fn&& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool traced = trace_last && rep == kSetupReps - 1;
    trace::Enable(traced);
    const Clock::time_point start = Clock::now();
    {
      trace::Span span(Site::kBenchSetup);
      setup();
    }
    seconds.push_back(MillisSince(start) / 1e3);
    trace::Enable(false);
  }
  return seconds;
}

// ---------------------------------------------------------------------------
// Per-run bookkeeping

// Latency samples of one phase, in ms, by operation class.
struct Samples {
  std::vector<double> reads;
  std::vector<double> updates;
  OpCounts counts;
  double busy_seconds = 0;  // wall time of the phase (served) or summed
                            // operation time (embedded)
  std::vector<double> sweep_ms[kRouteCount];  // embedded only

  size_t operations() const { return reads.size() + updates.size(); }
  std::vector<double> all() const {
    std::vector<double> v = reads;
    v.insert(v.end(), updates.begin(), updates.end());
    return v;
  }
  void Merge(const Samples& other) {
    reads.insert(reads.end(), other.reads.begin(), other.reads.end());
    updates.insert(updates.end(), other.updates.begin(),
                   other.updates.end());
    counts.Merge(other.counts);
  }
};

struct RunState {
  std::string log;            // "# ..." report lines
  OpCounts checks;            // answer checks outside timed operations
  std::vector<double> setup_seconds;
  std::string config_json;    // resolved store settings
  double stats_build_ms = 0;  // traced runs: Statistics::Build probe
};

std::string ConfigJson(const ReasoningStore& reference, uint64_t seed,
                       const std::string& workload) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string json = "{";
  json += "\"workload\": " + JsonString(workload);
  json += ", \"seed\": " + std::to_string(seed);
  json += ", \"mode\": " +
          JsonString(wdr::store::ReasoningModeName(reference.mode()));
  json += ", \"backend\": " +
          JsonString(wdr::rdf::StorageBackendName(reference.backend()));
  json += std::string(", \"plan\": ") +
          (reference.plan_mode() ? "true" : "false");
  json += std::string(", \"encoding\": ") +
          (reference.encoding_enabled() ? "true" : "false");
  json += ", \"query_threads\": " + std::to_string(reference.query_threads());
  json += ", \"saturation_threads\": " +
          std::to_string(reference.saturation_threads());
  json += ", \"shards\": " + std::to_string(reference.shard_count());
  json += ", \"base_triples\": " + std::to_string(reference.size());
  json += ", \"closure_triples\": " +
          std::to_string(reference.effective_size());
  json += ", \"nproc\": " + std::to_string(nproc);
  json += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  json += ", \"cxx_flags\": " + JsonString(PERFBENCH_CXX_FLAGS);
  json += "}";
  return json;
}

// Times Statistics::Build over the base graph and its closure, the work
// Warm() repeats on every write (the build is a header template inlined
// into the store, so the traced build cannot wrap it there).
double ProbeStatsBuild(const Dataset& ds) {
  trace::Span probe(Site::kBenchProbe);
  const wdr::reasoning::SaturatedGraph closure(ds.data.graph, ds.data.vocab);
  std::vector<double> ms;
  for (int rep = 0; rep < kStatsProbeReps; ++rep) {
    const Clock::time_point start = Clock::now();
    {
      trace::Span span(Site::kStatsBuild);
      const auto base_stats =
          wdr::exec::Statistics::Build(ds.data.graph.store());
      const auto closure_stats =
          wdr::exec::Statistics::Build(closure.closure());
      (void)base_stats;
      (void)closure_stats;
    }
    ms.push_back(MillisSince(start));
  }
  return Median(ms);
}

// Registry snapshots around a traced phase.
struct RegistryDelta {
  wdr::obs::MetricsSnapshot before;
  wdr::obs::MetricsSnapshot after;

  double Counter(const char* name) const {
    return static_cast<double>(after.counter(name) - before.counter(name));
  }
  // Mean of a histogram's samples recorded between the two snapshots, ms.
  double HistogramMeanMs(std::initializer_list<const char*> names) const {
    uint64_t count = 0;
    uint64_t nanos = 0;
    for (const char* name : names) {
      const auto* a = after.histogram(name);
      const auto* b = before.histogram(name);
      if (a == nullptr) continue;
      count += a->count - (b == nullptr ? 0 : b->count);
      nanos += a->sum_nanos - (b == nullptr ? 0 : b->sum_nanos);
    }
    return count == 0 ? 0 : static_cast<double>(nanos) / 1e6 /
                                static_cast<double>(count);
  }
};

double Ratio(double num, double den) { return den <= 0 ? 0 : num / den; }

// The per-layer metrics of a traced run.
std::vector<Metric> LayerMetrics(const trace::Summary& s,
                                 const RegistryDelta& d,
                                 const Samples& traced,
                                 const Samples& untraced,
                                 double plan_cache_hit_ratio,
                                 double stats_build_ms) {
  const auto op = [&](Site site) { return s.in_ops[size_t(site)]; };
  const auto all = [&](Site site) { return s.all[size_t(site)]; };
  // Set-ups and probes: every record outside the operations.
  const auto outside = [&](Site site) {
    trace::SiteTotals t = s.all[size_t(site)];
    t.calls -= s.in_ops[size_t(site)].calls;
    t.total_ms -= s.in_ops[size_t(site)].total_ms;
    return t;
  };
  const auto mean = [](const trace::SiteTotals& t) {
    return Ratio(t.total_ms, static_cast<double>(t.calls));
  };
  const double client_call_ms = mean(op(Site::kClientCall));
  const double handler_ms = d.HistogramMeanMs(
      {"wdr.server.latency.query", "wdr.server.latency.update"});
  const double ops = static_cast<double>(traced.operations());

  std::vector<Metric> m;
  const auto add = [&](const char* name, double value, const char* unit) {
    m.push_back(Metric{name, value, unit});
  };
  add("server.client_call_ms", client_call_ms, "ms");
  add("server.client_update_ms", Mean(traced.updates), "ms");
  add("server.handler_ms", handler_ms, "ms");
  add("server.transport_ms",
      op(Site::kClientCall).calls == 0 ? 0 : client_call_ms - handler_ms,
      "ms");
  add("server.snapshot_query_ms", mean(op(Site::kSnapshotQuery)), "ms");
  add("server.plan_cache_hit_ratio", plan_cache_hit_ratio, "ratio");
  add("server.snapshot_update_ms", mean(op(Site::kSnapshotUpdate)), "ms");
  add("server.catchup_batches_per_update",
      Ratio(d.Counter("wdr.server.store.catchup_batches"),
            d.Counter("wdr.server.updates")),
      "count");
  add("store.prepare_ms", mean(op(Site::kPrepare)), "ms");
  add("store.execute_ms", mean(op(Site::kExecute)), "ms");
  add("store.decode_ms",
      Ratio(op(Site::kDecodeRow).total_ms,
            static_cast<double>(op(Site::kExecute).calls)),
      "ms");
  add("store.update_ms", mean(op(Site::kStoreUpdate)), "ms");
  add("store.warm_ms", mean(op(Site::kWarm)), "ms");
  add("exec.stats_build_ms", stats_build_ms, "ms");
  add("exec.plan_ms", mean(op(Site::kPlan)), "ms");
  add("exec.run_ms", mean(op(Site::kExecRun)), "ms");
  add("exec.triples_per_row",
      Ratio(d.Counter("wdr.exec.triples"), d.Counter("wdr.exec.rows")),
      "count");
  add("datalog.translate_ms", mean(all(Site::kTranslate)), "ms");
  add("datalog.eval_ms", mean(op(Site::kDatalogEval)), "ms");
  add("datalog.derived_per_query",
      Ratio(d.Counter("wdr.datalog.derived_tuples"),
            d.Counter("wdr.datalog.runs")),
      "count");
  add("datalog.iterations_per_query",
      Ratio(d.Counter("wdr.datalog.iterations"),
            d.Counter("wdr.datalog.runs")),
      "count");
  add("query.parse_ms", mean(op(Site::kParseSparql)), "ms");
  add("query.eval_ms", mean(op(Site::kEvaluate)), "ms");
  add("query.scan_cache_hit_ratio",
      Ratio(d.Counter("wdr.query.scan_cache.hits"),
            d.Counter("wdr.query.scan_cache.hits") +
                d.Counter("wdr.query.scan_cache.misses")),
      "ratio");
  add("reformulation.rewrite_ms", mean(op(Site::kReformulate)), "ms");
  // Over the whole process: the memo answers repeated rewritings, so a
  // steady phase alone has no fresh ones to count.
  add("reformulation.cqs_per_query",
      Ratio(static_cast<double>(d.after.counter("wdr.reformulation.cqs")),
            static_cast<double>(d.after.counter("wdr.reformulation.runs"))),
      "count");
  add("reformulation.memo_hit_ratio",
      Ratio(d.Counter("wdr.reformulation.memo_hits"),
            d.Counter("wdr.reformulation.memo_hits") +
                d.Counter("wdr.reformulation.runs")),
      "ratio");
  add("backward.eval_ms", mean(op(Site::kBackwardEval)), "ms");
  add("backward.expansions_per_query",
      Ratio(d.Counter("wdr.backward.goal_expansions"),
            d.Counter("wdr.backward.evals")),
      "count");
  add("backward.memo_hit_ratio",
      Ratio(d.Counter("wdr.backward.memo_hits"),
            d.Counter("wdr.backward.memo_hits") +
                d.Counter("wdr.backward.goal_expansions")),
      "ratio");
  add("reasoning.saturate_ms", mean(all(Site::kSaturate)), "ms");
  add("reasoning.maintain_ms",
      Ratio(op(Site::kMaintainInsert).total_ms +
                op(Site::kMaintainErase).total_ms,
            static_cast<double>(op(Site::kStoreUpdate).calls)),
      "ms");
  add("reasoning.overdeleted_per_delete",
      Ratio(d.Counter("wdr.maintenance.overdeleted"),
            d.Counter("wdr.maintenance.deletes")),
      "count");
  add("rdf.scans_per_query",
      Ratio(d.Counter("wdr.store.flat.scans") +
                d.Counter("wdr.store.ordered.scans"),
            ops),
      "count");
  add("rdf.compactions_deferred",
      d.Counter("wdr.store.flat.compactions_deferred"), "count");
  add("io.turtle_parse_ms", mean(outside(Site::kParseTurtle)), "ms");

  // Self time per layer, per operation: the additive split of latency.
  const char* kLayers[] = {"client", "server",  "store",    "query",
                           "reformulation", "exec", "backward", "datalog",
                           "reasoning", "io"};
  for (const char* layer : kLayers) {
    double self = 0;
    for (size_t i = 0; i < trace::kSiteCount; ++i) {
      if (std::string_view(trace::SiteLayer(Site(i))) == layer) {
        self += s.in_ops[i].self_ms;
      }
    }
    m.push_back(Metric{std::string("self.") + layer + "_ms",
                       Ratio(self, static_cast<double>(s.operations)),
                       "ms"});
  }
  add("trace.overhead_ms", Mean(traced.all()) - Mean(untraced.all()), "ms");
  add("trace.orphan_spans", static_cast<double>(s.orphans), "count");
  return m;
}

// ---------------------------------------------------------------------------
// Served workloads

// A connected client session and its private random stream.
struct Session {
  Client client;
  Rng rng{0};
};

// Connects kSessions clients. Each is bound to its server thread (traced
// runs link spans across that boundary) by one request issued while the
// binding is pending.
wdr::Status ConnectSessions(int port, const std::string& bind_payload,
                            std::vector<Session>* sessions, uint64_t seed) {
  sessions->resize(kSessions);
  for (int k = 0; k < kSessions; ++k) {
    Session& s = (*sessions)[k];
    s.rng = Rng(seed * 1000003ull + static_cast<uint64_t>(k) + 1);
    const wdr::Status connected = s.client.Connect(port);
    if (!connected.ok()) return connected;
    trace::BindNextServerThread(k);
    auto r = s.client.Call(bind_payload);
    trace::ClearPendingBinding();
    if (!r.ok()) return r.status();
    if (!r.value().ok) {
      return wdr::InternalError("binding request failed: " + r.value().head);
    }
  }
  return wdr::Status();
}

// Sums plan_hits / plan_misses over the sessions' INFO replies.
std::pair<double, double> PlanCacheCounts(std::vector<Session>& sessions) {
  double hits = 0;
  double misses = 0;
  for (Session& s : sessions) {
    auto r = s.client.Call("INFO");
    if (!r.ok() || !r.value().ok) continue;
    const std::string& head = r.value().head;
    const auto field = [&](const char* key) {
      const size_t pos = head.find(key);
      return pos == std::string::npos
                 ? 0.0
                 : std::strtod(head.c_str() + pos + std::strlen(key),
                               nullptr);
    };
    hits += field(" plan_hits=");
    misses += field(" plan_misses=");
  }
  return {hits, misses};
}

// Runs one closed-loop phase of `seconds` on every session in its own
// thread. `step(k, session, samples)` issues one request.
template <typename Step>
Samples RunSessions(std::vector<Session>& sessions, int seconds, Step step) {
  std::vector<Samples> per_session(sessions.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::seconds(seconds);
  std::vector<Clock::time_point> last(sessions.size(), start);
  {
    std::vector<std::thread> threads;
    for (size_t k = 0; k < sessions.size(); ++k) {
      threads.emplace_back([&, k] {
        while (Clock::now() < end) {
          step(static_cast<int>(k), sessions[k], &per_session[k]);
        }
        last[k] = Clock::now();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Samples merged;
  for (const Samples& s : per_session) merged.Merge(s);
  merged.busy_seconds =
      std::chrono::duration<double>(*std::max_element(last.begin(),
                                                      last.end()) -
                                    start)
          .count();
  return merged;
}

// One timed protocol request under a session root span.
wdr::Result<Response> TimedCall(int session_index, Session& s,
                                const std::string& payload, double* ms) {
  const Clock::time_point start = Clock::now();
  wdr::Result<Response> r = [&] {
    trace::Span root(Site::kClientCall, session_index);
    return s.client.Call(payload);
  }();
  *ms = MillisSince(start);
  return r;
}

struct PhaseResult {
  Samples untraced;  // trace runs: the untraced comparison phase
  Samples measured;  // the phase the metrics come from
  std::vector<Metric> layer_metrics;
};

// Runs the measured phase. A traced run first runs an untraced comparison
// phase, then the measured phase with spans on, and derives the per-layer
// metrics from the spans, the registry deltas and `plan_cache()` (summed
// plan-cache hits and misses, read before and after).
template <typename Phase, typename PlanCache>
PhaseResult RunPhases(const RunOptions& options, const RunState& state,
                      Phase phase, PlanCache plan_cache) {
  PhaseResult result;
  if (!options.trace) {
    result.measured = phase();
    return result;
  }
  result.untraced = phase();
  const auto [hits0, misses0] = plan_cache();
  RegistryDelta delta;
  delta.before = wdr::obs::MetricsRegistry::Get().Snapshot();
  trace::Enable(true);
  result.measured = phase();
  trace::Enable(false);
  delta.after = wdr::obs::MetricsRegistry::Get().Snapshot();
  const auto [hits1, misses1] = plan_cache();
  result.layer_metrics = LayerMetrics(
      trace::Summarize(), delta, result.measured, result.untraced,
      Ratio(hits1 - hits0, (hits1 - hits0) + (misses1 - misses0)),
      state.stats_build_ms);
  return result;
}

// The phases of a served workload: every session runs `step` in a closed
// loop for the run's seconds.
template <typename Step>
PhaseResult RunServedPhases(const RunOptions& options,
                            std::vector<Session>& sessions,
                            const RunState& state, Step step) {
  return RunPhases(
      options, state,
      [&] { return RunSessions(sessions, options.seconds, step); },
      [&] { return PlanCacheCounts(sessions); });
}

// serve-read: four sessions cycle seeded permutations of Q1-Q10 against a
// read-only server; every response is checked against the answers all
// four routes agreed on at set-up.
wdr::Result<PhaseResult> ServeRead(const RunOptions& options,
                                   RunState& state) {
  Dataset ds = MakeDataset(options.seed, kReadUniversities);
  std::optional<Served> served;
  state.setup_seconds = RepeatSetup(options.trace, [&] {
    served.reset();
    auto started = StartServed(ds.turtle);
    if (started.ok()) served = std::move(started).value();
  });
  if (!served.has_value()) return wdr::InternalError("server set-up failed");

  ReasoningStore reference;
  if (auto r = reference.LoadTurtle(ds.turtle); !r.ok()) return r.status();
  state.config_json =
      ConfigJson(reference, options.seed, options.workload);
  const std::vector<AnswerDigest> expected = ExpectedAnswers(
      reference, ds.queries, {std::begin(kRoutes), std::end(kRoutes)},
      &state.checks, &state.log);
  if (options.trace) {
    trace::Enable(true);
    state.stats_build_ms = ProbeStatsBuild(ds);
    trace::Enable(false);
  }

  std::vector<std::string> payloads;
  for (const std::string& q : ds.queries) payloads.push_back("QUERY\n" + q);
  std::vector<Session> sessions;
  if (auto s = ConnectSessions(served->server->port(), payloads[0],
                               &sessions, options.seed);
      !s.ok()) {
    return s;
  }
  std::vector<std::vector<size_t>> order(sessions.size());
  for (size_t k = 0; k < sessions.size(); ++k) {
    order[k].resize(payloads.size());
    std::iota(order[k].begin(), order[k].end(), 0);
    std::shuffle(order[k].begin(), order[k].end(),
                 sessions[k].rng.engine());
  }
  std::vector<size_t> cursor(sessions.size(), 0);
  auto step = [&](int k, Session& s, Samples* out) {
    const size_t q = order[k][cursor[k]++ % order[k].size()];
    double ms = 0;
    const auto r = TimedCall(k, s, payloads[q], &ms);
    out->reads.push_back(ms);
    out->counts.Record(r.ok() && r.value().ok &&
                       DigestResponseBody(r.value().body) == expected[q]);
  };
  PhaseResult result = RunServedPhases(options, sessions, state, step);
  for (Session& s : sessions) s.client.Close();
  served->server->Stop();
  return result;
}

// A fresh individual one serve-rw session inserted.
struct Fresh {
  std::string iri;
  std::string course;
};

std::string FreshTriples(const Fresh& f) {
  return f.iri + " " + Iri(wdr::schema::iri::kType) + " " +
         Iri(wdr::workload::univ::kUndergraduateStudent) + " . " + f.iri +
         " " + Iri(wdr::workload::univ::kTakesCourse) + " " + f.course;
}

// Decoded answers of one query on the reference store (saturation route).
wdr::Result<std::vector<std::string>> Column(ReasoningStore& store,
                                             const std::string& sparql) {
  std::vector<std::string> rows;
  const wdr::Status s =
      ReadRows(store, sparql, ReasoningMode::kSaturation, &rows);
  if (!s.ok()) return s;
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Draws `n` distinct entries of `from` (all of them when n >= size).
std::vector<std::string> Draw(std::vector<std::string> from, size_t n,
                              Rng& rng) {
  std::shuffle(from.begin(), from.end(), rng.engine());
  if (from.size() > n) from.resize(n);
  return from;
}

// serve-rw: four sessions, one request in four an update inserting a fresh
// individual (and deleting one the session inserted earlier), the rest
// point reads with seeded constants.
wdr::Result<PhaseResult> ServeReadWrite(const RunOptions& options,
                                        RunState& state) {
  Dataset ds = MakeDataset(options.seed, kReadWriteUniversities);
  std::optional<Served> served;
  state.setup_seconds = RepeatSetup(options.trace, [&] {
    served.reset();
    auto started = StartServed(ds.turtle);
    if (started.ok()) served = std::move(started).value();
  });
  if (!served.has_value()) return wdr::InternalError("server set-up failed");

  ReasoningStore reference;
  if (auto r = reference.LoadTurtle(ds.turtle); !r.ok()) return r.status();
  state.config_json =
      ConfigJson(reference, options.seed, options.workload);
  namespace univ = wdr::workload::univ;
  const std::string type = Iri(wdr::schema::iri::kType);
  auto persons = Column(reference, "SELECT ?x WHERE { ?x " + type + " " +
                                       Iri(univ::kPerson) + " }");
  auto departments = Column(reference, "SELECT ?x WHERE { ?x " + type +
                                           " " + Iri(univ::kDepartment) +
                                           " }");
  auto courses = Column(reference, "SELECT ?x WHERE { ?x " + type + " " +
                                       Iri(univ::kCourse) + " }");
  if (!persons.ok() || !departments.ok() || !courses.ok() ||
      courses.value().empty()) {
    return wdr::InternalError("could not list the generated constants");
  }
  Rng pool_rng(options.seed ^ 0x5eedf00dull);
  std::vector<std::string> reads;
  for (const std::string& p : Draw(persons.value(), kTypeQueries, pool_rng)) {
    reads.push_back("SELECT ?c WHERE { " + p + " " + type + " ?c }");
  }
  for (const std::string& d :
       Draw(departments.value(), kDepartmentQueries, pool_rng)) {
    reads.push_back("SELECT ?x WHERE { ?x " + Iri(univ::kMemberOf) + " " + d +
                    " . ?x " + type + " " + Iri(univ::kPerson) + " }");
  }
  // The fresh individuals never touch these answers, so they hold for the
  // whole run whatever the interleaving, on every route.
  const std::vector<AnswerDigest> expected = ExpectedAnswers(
      reference, reads, {std::begin(kRoutes), std::end(kRoutes)},
      &state.checks, &state.log);
  if (options.trace) {
    trace::Enable(true);
    state.stats_build_ms = ProbeStatsBuild(ds);
    trace::Enable(false);
  }

  std::vector<std::string> payloads;
  for (const std::string& q : reads) payloads.push_back("QUERY\n" + q);
  std::vector<Session> sessions;
  if (auto s = ConnectSessions(served->server->port(), payloads[0],
                               &sessions, options.seed);
      !s.ok()) {
    return s;
  }
  // Session k reads through route k: the store keeps its saturation default
  // (every write maintains the closure), and each read pays its own route's
  // cost, the trade-off the paper measures.
  for (size_t k = 0; k < sessions.size(); ++k) {
    const auto r = sessions[k].client.Call(
        std::string("SET mode=") +
        wdr::store::ReasoningModeName(kRoutes[k % kRouteCount]) + "\n");
    if (!r.ok()) return r.status();
    if (!r.value().ok) return wdr::InternalError("SET: " + r.value().head);
  }
  const std::vector<std::string>& course_list = courses.value();
  std::vector<std::deque<Fresh>> live(sessions.size());
  std::vector<uint64_t> issued(sessions.size(), 0);
  auto step = [&](int k, Session& s, Samples* out) {
    const uint64_t n = issued[k]++;
    double ms = 0;
    if (n % kUpdateEvery == static_cast<uint64_t>(k) % kUpdateEvery) {
      Fresh fresh;
      fresh.iri = std::string("<") + kFreshNs + "s" + std::to_string(k) +
                  "_" + std::to_string(n) + ">";
      fresh.course = course_list[static_cast<size_t>(
          s.rng.Uniform(0, static_cast<int64_t>(course_list.size()) - 1))];
      std::string payload =
          "UPDATE\nINSERT DATA { " + FreshTriples(fresh) + " }";
      const bool evict = live[k].size() >= kLiveWindow;
      if (evict) {
        payload += " ; DELETE DATA { " + FreshTriples(live[k].front()) + " }";
      }
      const auto r = TimedCall(k, s, payload, &ms);
      out->updates.push_back(ms);
      const std::string want =
          std::string("inserted=2 deleted=") + (evict ? "2" : "0") + " ";
      const bool ok = r.ok() && r.value().ok &&
                      r.value().head.compare(0, want.size(), want) == 0;
      out->counts.Record(ok);
      if (ok) {
        live[k].push_back(std::move(fresh));
        if (evict) live[k].pop_front();
      }
      return;
    }
    const size_t q = static_cast<size_t>(
        s.rng.Uniform(0, static_cast<int64_t>(payloads.size()) - 1));
    const auto r = TimedCall(k, s, payloads[q], &ms);
    out->reads.push_back(ms);
    out->counts.Record(r.ok() && r.value().ok &&
                       DigestResponseBody(r.value().body) == expected[q]);
  };
  PhaseResult result = RunServedPhases(options, sessions, state, step);

  // Final state: the server's Q1-Q10 answers must equal a fresh store's
  // over the base data plus every session's net inserts.
  ReasoningStore fresh_store;
  if (auto r = fresh_store.LoadTurtle(ds.turtle); !r.ok()) return r.status();
  std::string net;
  for (const auto& session_live : live) {
    for (const Fresh& f : session_live) net += FreshTriples(f) + " . ";
  }
  if (!net.empty()) {
    if (auto r = fresh_store.Update("INSERT DATA { " + net + "}"); !r.ok()) {
      return r.status();
    }
  }
  const int port = served->server->port();
  const auto check = [&](const std::string& name, const std::string& sparql) {
    std::vector<std::string> rows;
    const wdr::Status s =
        ReadRows(fresh_store, sparql, ReasoningMode::kSaturation, &rows);
    Client client;
    AnswerDigest answer;
    bool served_ok = client.Connect(port).ok();
    if (served_ok) {
      const auto r = client.Call("QUERY\n" + sparql);
      served_ok = r.ok() && r.value().ok;
      if (served_ok) answer = DigestResponseBody(r.value().body);
    }
    const bool ok = s.ok() && served_ok && answer == Digest(rows);
    if (!ok) {
      state.log += "# final-state check: " + name + " served " +
                   (served_ok ? std::to_string(answer.rows) + " rows"
                              : std::string("an error")) +
                   ", the fresh store " + std::to_string(rows.size()) +
                   " rows\n";
    }
    state.checks.Record(ok);
  };
  for (size_t q = 0; q < ds.queries.size(); ++q) {
    if (ds.query_names[q] != "Q8") {
      check(ds.query_names[q], ds.queries[q]);
      continue;
    }
    // Q8 (full typing, ?x a ?c) answers ~1.4 MB here, beyond the client's
    // 1 MiB frame cap, so it is compared class by class: the class list,
    // then every class's members.
    const std::string classes = "SELECT DISTINCT ?c WHERE { ?x " + type +
                                " ?c }";
    check("Q8 classes", classes);
    auto class_list = Column(fresh_store, classes);
    if (!class_list.ok()) return class_list.status();
    for (const std::string& cls : class_list.value()) {
      check("Q8 " + cls,
            "SELECT ?x WHERE { ?x " + type + " " + cls + " }");
    }
  }
  for (Session& s : sessions) s.client.Close();
  served->server->Stop();
  return result;
}

// ---------------------------------------------------------------------------
// Embedded workload

// embedded: one thread, no server. Q1-Q10 sweeps through Prepare ->
// Execute -> DecodeRow, the route chosen per read, the four routes
// interleaved sweep by sweep.
wdr::Result<PhaseResult> Embedded(const RunOptions& options,
                                  RunState& state) {
  Dataset ds = MakeDataset(options.seed, kReadUniversities);
  std::optional<ReasoningStore> store;
  state.setup_seconds = RepeatSetup(options.trace, [&] {
    store.reset();
    store.emplace();
    if (store->LoadTurtle(ds.turtle).ok()) {
      store->Warm();
    } else {
      store.reset();
    }
  });
  if (!store.has_value()) return wdr::InternalError("store set-up failed");

  ReasoningStore reference;
  if (auto r = reference.LoadTurtle(ds.turtle); !r.ok()) return r.status();
  state.config_json =
      ConfigJson(reference, options.seed, options.workload);
  const std::vector<AnswerDigest> expected = ExpectedAnswers(
      reference, ds.queries, {std::begin(kRoutes), std::end(kRoutes)},
      &state.checks, &state.log);

  std::vector<std::string> rows;
  // One timed read; `ms` excludes the answer check.
  const auto read = [&](size_t q, ReasoningMode route, double* ms) {
    const Clock::time_point start = Clock::now();
    wdr::Status status;
    {
      trace::Span root(Site::kBenchRead);
      status = ReadRows(*store, ds.queries[q], route, &rows);
    }
    *ms = MillisSince(start);
    return status.ok() && Digest(rows) == expected[q];
  };
  // Warm-up: one checked sweep per route fills the lazy per-route caches
  // (Datalog translation, rewriting memos). Traced runs trace it as a
  // probe so the one-off translation shows in datalog.translate_ms.
  trace::Enable(options.trace);
  {
    trace::Span probe(Site::kBenchProbe);
    for (ReasoningMode route : kRoutes) {
      for (size_t q = 0; q < ds.queries.size(); ++q) {
        double ms = 0;
        state.checks.Record(read(q, route, &ms));
      }
    }
  }
  if (options.trace) state.stats_build_ms = ProbeStatsBuild(ds);
  trace::Enable(false);

  const auto phase = [&]() {
    Samples out;
    const Clock::time_point end =
        Clock::now() + std::chrono::seconds(options.seconds);
    while (Clock::now() < end) {
      for (size_t r = 0; r < kRouteCount; ++r) {
        double sweep = 0;
        for (size_t q = 0; q < ds.queries.size(); ++q) {
          double ms = 0;
          out.counts.Record(read(q, kRoutes[r], &ms));
          out.reads.push_back(ms);
          sweep += ms;
        }
        out.sweep_ms[r].push_back(sweep);
        out.busy_seconds += sweep / 1e3;
      }
    }
    return out;
  };
  return RunPhases(options, state, phase,
                   [] { return std::pair<double, double>(0, 0); });
}

// ---------------------------------------------------------------------------
// Reporting

std::string TailJson(const char* name, const std::vector<double>& v) {
  const double q = HighestTailQuantile(v.size());
  std::string json = JsonString(std::string(name) + "_p50_ms") + ": " +
                     JsonNumber(Quantile(v, 0.5));
  json += ", " + JsonString(std::string(name) + "_tail_ms") + ": " +
          JsonNumber(q == 0 ? 0 : Quantile(v, q));
  json += ", " + JsonString(std::string(name) + "_tail_quantile") + ": " +
          JsonNumber(q);
  json += ", " + JsonString(std::string(name) + "_samples") + ": " +
          std::to_string(v.size());
  return json;
}

// The workload-specific figures that are not end-to-end metrics of every
// workload: per-class latency, per-route sweeps, sample counts.
std::string DetailJson(const RunState& state, const Samples& s) {
  const std::vector<double> all = s.all();
  std::string json = "{\"config\": " + state.config_json;
  json += ", " + TailJson("query", s.reads);
  if (!s.updates.empty()) json += ", " + TailJson("update", s.updates);
  for (size_t r = 0; r < kRouteCount; ++r) {
    if (s.sweep_ms[r].empty()) continue;
    json += ", " +
            JsonString(std::string("sweep_ms.") +
                       wdr::store::ReasoningModeName(kRoutes[r])) +
            ": " + JsonNumber(Median(s.sweep_ms[r]));
    json += ", " +
            JsonString(std::string("sweeps.") +
                       wdr::store::ReasoningModeName(kRoutes[r])) +
            ": " + std::to_string(s.sweep_ms[r].size());
  }
  json += ", \"samples\": " + std::to_string(all.size());
  json += ", \"latency_tail_quantile\": " + JsonNumber(kTailQuantile);
  json += std::string(", \"tail_rule_holds\": ") +
          (TailRuleHolds(all.size(), kTailQuantile) ? "true" : "false");
  json += ", \"setup_s_reps\": [";
  for (size_t i = 0; i < state.setup_seconds.size(); ++i) {
    if (i != 0) json += ", ";
    json += JsonNumber(state.setup_seconds[i]);
  }
  json += "]}";
  return json;
}

// Why this build must not report numbers (unoptimised or sanitizer), or ""
// when it may.
std::string BuildRefusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build (build type " PERFBENCH_BUILD_TYPE ")";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer build (flags: " PERFBENCH_CXX_FLAGS ")";
  }
  return "";
#endif
}

}  // namespace

bool IsWorkload(std::string_view name) {
  return name == "serve-read" || name == "serve-rw" || name == "embedded";
}

int RunWorkload(const RunOptions& options) {
  if (!IsWorkload(options.workload)) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  if (const std::string refusal = BuildRefusal(); !refusal.empty()) {
    std::fprintf(stderr, "refusing to report numbers: %s\n", refusal.c_str());
    return 2;
  }
  if (options.trace && !trace::LayerWrapsLinked()) {
    std::fprintf(stderr, "a traced run needs the traced build\n");
    return 2;
  }
  RunState state;
  wdr::Result<PhaseResult> phases =
      options.workload == "serve-read" ? ServeRead(options, state)
      : options.workload == "serve-rw" ? ServeReadWrite(options, state)
                                       : Embedded(options, state);
  if (!phases.ok()) {
    std::fprintf(stderr, "workload %s could not run: %s\n",
                 options.workload.c_str(),
                 phases.status().ToString().c_str());
    return 1;
  }
  const PhaseResult& result = phases.value();
  const Samples& s = result.measured;
  OpCounts counts = s.counts;
  counts.Merge(result.untraced.counts);
  counts.Merge(state.checks);

  std::fputs(state.log.c_str(), stdout);
  std::printf("# detail %s\n", DetailJson(state, s).c_str());
  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = result.layer_metrics;
    if (!options.trace_out.empty() && !trace::WriteTsv(options.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", options.trace_out.c_str());
    }
  } else {
    const std::vector<double> all = s.all();
    metrics = {
        {"setup_s", Median(state.setup_seconds), "s"},
        {"latency_p50_ms", SmoothedMedian(all), "ms"},
        {"latency_p97_ms", Quantile(all, kTailQuantile), "ms"},
        {"ops_per_s", Ratio(static_cast<double>(s.operations()),
                            s.busy_seconds),
         "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }
  std::printf("%s\n", FormatResult(counts.failed == 0 && counts.attempted > 0,
                                   counts.attempted, counts.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
