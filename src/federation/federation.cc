#include "federation/federation.h"

#include "common/timer.h"
#include "io/turtle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/sparql_parser.h"
#include "reasoning/saturation.h"
#include "reformulation/reformulator.h"
#include "rdf/graph.h"
#include "schema/schema.h"

namespace wdr::federation {

Federation::Federation() : vocab_(schema::Vocabulary::Intern(dict_)) {}

EndpointId Federation::AddEndpoint(std::string name) {
  endpoints_.push_back(
      Endpoint{std::move(name), std::make_unique<rdf::FlatTripleStore>()});
  return endpoints_.size() - 1;
}

Result<size_t> Federation::LoadTurtle(EndpointId id, std::string_view text) {
  if (id >= endpoints_.size()) {
    return InvalidArgumentError("unknown endpoint id");
  }
  rdf::Graph scratch;
  WDR_ASSIGN_OR_RETURN(size_t parsed, io::ParseTurtle(text, scratch));
  (void)parsed;
  // Re-encode into the shared dictionary, then hand the store one batch so
  // log-structured backends can bulk-load instead of inserting one by one.
  std::vector<rdf::Triple> encoded;
  encoded.reserve(scratch.size());
  bool any_schema = false;
  scratch.store().Match(0, 0, 0, [&](const rdf::Triple& t) {
    encoded.emplace_back(dict_.Intern(scratch.dict().term(t.s)),
                         dict_.Intern(scratch.dict().term(t.p)),
                         dict_.Intern(scratch.dict().term(t.o)));
    any_schema |= vocab_.IsSchemaProperty(encoded.back().p);
  });
  const size_t added = endpoints_[id].store->InsertBatch(encoded);
  if (any_schema && added != 0) ++schema_rev_;
  return added;
}

bool Federation::Insert(EndpointId id, const rdf::Triple& t) {
  const bool inserted = endpoints_[id].store->Insert(t);
  if (inserted && vocab_.IsSchemaProperty(t.p)) ++schema_rev_;
  return inserted;
}

bool Federation::Erase(EndpointId id, const rdf::Triple& t) {
  const bool erased = endpoints_[id].store->Erase(t);
  if (erased && vocab_.IsSchemaProperty(t.p)) ++schema_rev_;
  return erased;
}

size_t Federation::size() const {
  size_t total = 0;
  for (const Endpoint& endpoint : endpoints_) total += endpoint.store->size();
  return total;
}

rdf::FlatTripleStore Federation::ClosedFederatedSchemaStore() const {
  rdf::FlatTripleStore merged;
  for (const Endpoint& endpoint : endpoints_) {
    endpoint.store->Match(0, 0, 0, [&](const rdf::Triple& t) {
      if (vocab_.IsSchemaProperty(t.p)) merged.Insert(t);
    });
  }
  reasoning::Saturator saturator(vocab_, &dict_);
  return saturator.Saturate(merged);
}

Federation::SchemaCache& Federation::CachedSchemaCache() {
  if (schema_cache_ == nullptr || schema_cache_rev_ != schema_rev_) {
    schema_cache_ =
        std::make_unique<SchemaCache>(ClosedFederatedSchemaStore(), vocab_);
    schema_cache_rev_ = schema_rev_;
    WDR_COUNTER_INC("wdr.federation.schema_rebuilds");
  }
  return *schema_cache_;
}

Result<query::ResultSet> Federation::Query(std::string_view sparql,
                                           FederationQueryInfo* info) {
  WDR_ASSIGN_OR_RETURN(query::UnionQuery q,
                       query::ParseSparql(sparql, dict_));
  return Query(q, info);
}

Result<query::ResultSet> Federation::Query(const query::UnionQuery& q,
                                           FederationQueryInfo* info) {
  static obs::Histogram& latency =
      obs::MetricsRegistry::Get().GetHistogram("wdr.federation.query");
  obs::Span span("wdr.federation.query", &latency);
  WDR_COUNTER_INC("wdr.federation.queries");
  Timer timer;
  // The schemas of all endpoints combine: constraints from any endpoint
  // apply to facts from any other. The closed merged schema is cached
  // against the schema revision counter: only a schema-triple change
  // rebuilds it, so instance-heavy workloads stop paying a re-closure and
  // a fresh reformulator (with a cold memo) on every query.
  SchemaCache& cache = CachedSchemaCache();
  WDR_ASSIGN_OR_RETURN(query::UnionQuery reformulated,
                       cache.reformulator.Reformulate(q));

  // Evaluate over closed schema ∪ endpoints, copying nothing.
  rdf::UnionStore view;
  view.AddMember(&cache.closed_schema);
  for (const Endpoint& endpoint : endpoints_) {
    view.AddMember(endpoint.store.get());
  }
  view.EnableMemberStats();
  query::EvaluatorOptions eval_options = query_options_;
  eval_options.dict = &dict_;
  query::FederatedEvaluator evaluator(view, eval_options);
  query::ResultSet result = evaluator.Evaluate(reformulated);

  // Member 0 is the synthetic closed-schema store; endpoints follow.
  // Snapshot by value: the live counters are atomics.
  const std::vector<rdf::UnionStore::MemberStats> member_stats =
      view.member_stats();
  uint64_t endpoint_rows = 0;
  uint64_t endpoint_matches = 0;
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    endpoint_matches += member_stats[i + 1].matches;
    endpoint_rows += member_stats[i + 1].rows;
  }
  WDR_COUNTER_ADD("wdr.federation.endpoint_calls", endpoint_matches);
  WDR_COUNTER_ADD("wdr.federation.endpoint_rows", endpoint_rows);

  if (info != nullptr) {
    info->union_size = reformulated.size();
    info->endpoints_scanned = endpoints_.size();
    info->seconds = timer.ElapsedSeconds();
    info->endpoints.clear();
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      info->endpoints.push_back({endpoints_[i].name,
                                 member_stats[i + 1].matches,
                                 member_stats[i + 1].rows});
    }
  }
  return result;
}

}  // namespace wdr::federation
