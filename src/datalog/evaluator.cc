#include "datalog/evaluator.h"

#include <algorithm>
#include <optional>
#include <set>

#include "exec/executor.h"
#include "exec/planner.h"
#include "obs/metrics.h"

namespace wdr::datalog {
namespace {

constexpr Sym kUnbound = static_cast<Sym>(-1);

size_t VarCount(const std::vector<DlAtom>& atoms) {
  size_t count = 0;
  for (const DlAtom& atom : atoms) {
    for (const DlTerm& t : atom.args) {
      if (t.is_var) count = std::max(count, static_cast<size_t>(t.id) + 1);
    }
  }
  return count;
}

// TupleSource over one relation: a scan streams the smallest matching
// per-column index bucket (verifying the remaining bound columns) or the
// full tuple list when nothing is bound.
class RelationSource final : public exec::TupleSource {
 public:
  explicit RelationSource(const Relation& rel) : rel_(&rel) {}

  size_t arity() const override { return rel_->arity(); }

  double EstimateBound(const exec::Value* values,
                       const uint8_t* bound) const override {
    const size_t col = BestColumn(values, bound);
    return static_cast<double>(col == SIZE_MAX
                                   ? rel_->size()
                                   : rel_->Probe(col, values[col]).size());
  }

  bool Scan(const exec::Value* values, const uint8_t* bound,
            exec::FunctionRef<bool(const exec::Value*)> fn) const override {
    const size_t best_col = BestColumn(values, bound);
    if (best_col == SIZE_MAX) {
      for (const Tuple& tuple : rel_->tuples()) {
        if (!fn(tuple.data())) return false;
      }
      return true;
    }
    for (uint32_t pos : rel_->Probe(best_col, values[best_col])) {
      const Tuple& tuple = rel_->tuples()[pos];
      bool matches = true;
      for (size_t col = 0; col < rel_->arity() && matches; ++col) {
        matches = !bound[col] || tuple[col] == values[col];
      }
      if (matches && !fn(tuple.data())) return false;
    }
    return true;
  }

 private:
  // The bound column with the smallest index bucket; SIZE_MAX when no
  // column is bound.
  size_t BestColumn(const exec::Value* values, const uint8_t* bound) const {
    size_t best_col = SIZE_MAX;
    size_t best_bucket = SIZE_MAX;
    for (size_t col = 0; col < rel_->arity(); ++col) {
      if (!bound[col]) continue;
      const size_t bucket = rel_->Probe(col, values[col]).size();
      if (bucket < best_bucket) {
        best_bucket = bucket;
        best_col = col;
      }
    }
    return best_col;
  }

  const Relation* rel_;  // not owned
};

// What each atom of one body join scans: the semi-naive delta at
// `delta_pos`, the external source of an EDB predicate, or the Database
// relation. `relation(i)` is null for external atoms.
class BodySources {
 public:
  BodySources(const Database& db, const std::vector<DlAtom>& body,
              std::optional<size_t> delta_pos, const Relation* delta_relation,
              const EdbSources* edb) {
    owned_.reserve(body.size());  // sources_ points into owned_
    for (size_t i = 0; i < body.size(); ++i) {
      const PredId pred = body[i].pred;
      const exec::TupleSource* external =
          edb != nullptr ? edb->Find(pred) : nullptr;
      if (delta_pos == i) {
        relations_.push_back(delta_relation);
      } else if (external != nullptr) {
        relations_.push_back(nullptr);
        sources_.push_back(external);
        continue;
      } else {
        relations_.push_back(&db.relation(pred));
      }
      owned_.emplace_back(*relations_.back());
      sources_.push_back(&owned_.back());
    }
  }

  const exec::TupleSource& source(size_t i) const { return *sources_[i]; }
  const Relation* relation(size_t i) const { return relations_[i]; }
  const std::vector<const exec::TupleSource*>& sources() const {
    return sources_;
  }

 private:
  std::vector<RelationSource> owned_;
  std::vector<const exec::TupleSource*> sources_;
  std::vector<const Relation*> relations_;
};

// Recursive join over `body`, left to right: each atom scans its source
// with the columns bound so far pushed into the scan.
class BodyJoin {
 public:
  BodyJoin(const BodySources& sources, const std::vector<DlAtom>& body)
      : sources_(sources),
        body_(body),
        bindings_(VarCount(body), kUnbound),
        values_(body.size()),
        bound_(body.size()) {
    for (size_t i = 0; i < body.size(); ++i) {
      values_[i].resize(body[i].args.size());
      bound_[i].resize(body[i].args.size());
    }
  }

  template <typename EmitFn>
  void Run(EmitFn&& emit) {
    Recurse(0, emit);
  }

 private:
  template <typename EmitFn>
  void Recurse(size_t atom_index, EmitFn&& emit) {
    if (atom_index == body_.size()) {
      emit(bindings_.data());
      return;
    }
    const std::vector<DlTerm>& args = body_[atom_index].args;
    exec::Value* values = values_[atom_index].data();
    uint8_t* bound = bound_[atom_index].data();
    for (size_t col = 0; col < args.size(); ++col) {
      const Sym value = args[col].is_var ? bindings_[args[col].id]
                                         : args[col].id;
      bound[col] = value == kUnbound ? exec::TupleSource::kUnbound
                                     : exec::TupleSource::kPoint;
      values[col] = value;
    }
    // Columns unbound here bind from each tuple; a variable repeated
    // within the atom binds at its first column and is checked at the
    // rest. Unbinding every unbound column's variable afterwards restores
    // the bindings the scan started from.
    auto unbind = [&] {
      for (size_t col = 0; col < args.size(); ++col) {
        if (!bound[col]) bindings_[args[col].id] = kUnbound;
      }
    };
    sources_.source(atom_index).Scan(
        values, bound, [&](const exec::Value* tuple) {
          bool ok = true;
          for (size_t col = 0; col < args.size() && ok; ++col) {
            if (bound[col]) continue;
            Sym& slot = bindings_[args[col].id];
            if (slot == kUnbound) {
              slot = tuple[col];
            } else {
              ok = slot == tuple[col];
            }
          }
          if (ok) Recurse(atom_index + 1, emit);
          unbind();
          return true;
        });
  }

  const BodySources& sources_;
  const std::vector<DlAtom>& body_;
  std::vector<Sym> bindings_;
  // Per-atom scan patterns, reused across the scans of one atom.
  std::vector<std::vector<exec::Value>> values_;
  std::vector<std::vector<uint8_t>> bound_;
};

Tuple InstantiateHead(const DlAtom& head, const Sym* bindings) {
  Tuple tuple;
  tuple.reserve(head.args.size());
  for (const DlTerm& t : head.args) {
    tuple.push_back(t.is_var ? bindings[t.id] : t.id);
  }
  return tuple;
}

// ---------------------------------------------------------------------------
// Physical-plan route: rule bodies compiled into the shared wdr::exec IR.

// Cardinality oracle over the sources of a body. Database relations scale
// by exact index-bucket selectivity for constants and by one over the
// column's distinct-value count for run-time-bound columns — never stale,
// Relation maintains both on every insert — so the planner always runs
// cost-based here. External sources price their constants through
// EstimateBound and treat run-time-bound columns as wild, the
// conservative direction (as exec::StoreEstimator does).
class RelationEstimator final : public exec::CardinalityEstimator {
 public:
  explicit RelationEstimator(const BodySources& sources)
      : sources_(sources) {}

  double Estimate(size_t source, const exec::Value* values,
                  const exec::Value* /*values_hi*/, const uint8_t* modes,
                  size_t arity) const override {
    // Datalog specs never carry kRange positions; a range mode would fall
    // through as unconstrained here, which is the conservative default.
    const Relation* rel = sources_.relation(source);
    if (rel == nullptr) {
      std::vector<uint8_t> bound(arity);
      for (size_t i = 0; i < arity; ++i) bound[i] = modes[i] == kConst;
      return sources_.source(source).EstimateBound(values, bound.data());
    }
    double est = static_cast<double>(rel->size());
    if (est <= 0) return 0;
    for (size_t i = 0; i < arity; ++i) {
      if (modes[i] == kConst) {
        est *= static_cast<double>(rel->Probe(i, values[i]).size()) /
               static_cast<double>(rel->size());
      } else if (modes[i] == kRuntime) {
        est /=
            static_cast<double>(std::max<size_t>(1, rel->DistinctValues(i)));
      }
    }
    return est;
  }

 private:
  const BodySources& sources_;
};

// Compiles `body` into a physical plan over `sources` and streams
// `projection` columns to `emit`. Returns false when the planner declines
// (the caller falls back to BodyJoin).
template <typename EmitFn>
bool PlanBody(const BodySources& sources, const std::vector<DlAtom>& body,
              const BodyPlanOptions& popts,
              const std::vector<DlVarId>& projection, EmitFn&& emit) {
  exec::ConjunctiveSpec spec;
  for (size_t i = 0; i < body.size(); ++i) {
    exec::PlanConjunct conjunct;
    conjunct.source = i;
    exec::AtomAlt alt;
    alt.terms.reserve(body[i].args.size());
    for (const DlTerm& t : body[i].args) {
      alt.terms.push_back(t.is_var ? exec::AtomTerm::Var(t.id)
                                   : exec::AtomTerm::Const(t.id));
    }
    conjunct.alts.push_back(std::move(alt));
    spec.conjuncts.push_back(std::move(conjunct));
  }
  spec.projection.assign(projection.begin(), projection.end());

  RelationEstimator estimator(sources);
  exec::PlannerOptions planner_options;
  planner_options.estimator = &estimator;
  planner_options.hash_joins = popts.hash_joins;
  exec::CompiledPlan plan = exec::PlanConjunctive(spec, planner_options);
  if (plan.root == nullptr) return false;

  exec::ExecOptions exec_options;
  exec_options.batch_rows = popts.batch_rows;
  exec::Run(*plan.root, sources.sources(), exec_options,
            [&](const exec::Value* row, size_t) {
              emit(row);
              return true;
            });
  return true;
}

// One rule-body join, through whichever route `options` selects. `emit`
// receives the full variable-binding row (one Sym per DlVarId).
template <typename EmitFn>
void RunBody(const BodySources& sources, const std::vector<DlAtom>& body,
             const MaterializeOptions& options, EmitFn&& emit) {
  if (options.plan) {
    std::vector<DlVarId> all_vars(VarCount(body));
    for (DlVarId v = 0; v < all_vars.size(); ++v) all_vars[v] = v;
    if (PlanBody(sources, body, options.plan_options, all_vars, emit)) {
      return;
    }
  }
  BodyJoin(sources, body).Run(emit);
}

// Registry flush, once per materialization run.
void FlushEvalCounters(const EvalStats& s) {
  WDR_COUNTER_INC("wdr.datalog.runs");
  WDR_COUNTER_ADD("wdr.datalog.iterations", s.iterations);
  WDR_COUNTER_ADD("wdr.datalog.derived_tuples", s.derived_tuples);
  WDR_COUNTER_ADD("wdr.datalog.rule_evaluations", s.rule_evaluations);
}

// External predicates are read-only EDB: no fact and no rule head may
// name one.
Status CheckExternal(const DlProgram& program, const EdbSources* edb) {
  if (edb == nullptr) return Status::Ok();
  auto external = [&](const DlAtom& atom) {
    return edb->Find(atom.pred) != nullptr;
  };
  bool written = std::any_of(program.facts().begin(), program.facts().end(),
                             external);
  for (const DlRule& rule : program.rules()) written |= external(rule.head);
  if (!written) return Status::Ok();
  return InvalidArgumentError(
      "an external predicate has a fact or heads a rule");
}

std::vector<Relation> EmptyRelations(const DlProgram& program) {
  std::vector<Relation> relations;
  relations.reserve(program.pred_count());
  for (PredId p = 0; p < program.pred_count(); ++p) {
    relations.emplace_back(program.pred_arity(p));
  }
  return relations;
}

}  // namespace

// Naive or semi-naive materialization, rule bodies routed through RunBody
// so the plan and legacy join routes share the fixpoint driver.
Result<Database> MaterializeWithOptions(const DlProgram& program,
                                        const MaterializeOptions& options,
                                        EvalStats* stats,
                                        const EdbSources* edb) {
  WDR_RETURN_IF_ERROR(program.Validate());
  WDR_RETURN_IF_ERROR(CheckExternal(program, edb));
  Database db(program);
  for (const DlAtom& fact : program.facts()) {
    Tuple tuple;
    tuple.reserve(fact.args.size());
    for (const DlTerm& t : fact.args) tuple.push_back(t.id);
    db.Insert(fact.pred, tuple);
  }

  EvalStats local;
  // Evaluates `rule` once — atom `delta_pos` restricted to `delta` when
  // set — and inserts the new head tuples into the database and, when
  // non-null, into `next_delta`. Returns whether anything was new.
  auto fire = [&](const DlRule& rule, std::optional<size_t> delta_pos,
                  const Relation* delta,
                  std::vector<Relation>* next_delta) {
    ++local.rule_evaluations;
    std::vector<Tuple> derived;
    BodySources sources(db, rule.body, delta_pos, delta, edb);
    RunBody(sources, rule.body, options, [&](const Sym* bindings) {
      derived.push_back(InstantiateHead(rule.head, bindings));
    });
    bool changed = false;
    for (const Tuple& tuple : derived) {
      if (!db.Insert(rule.head.pred, tuple)) continue;
      if (next_delta != nullptr) (*next_delta)[rule.head.pred].Insert(tuple);
      changed = true;
      ++local.derived_tuples;
    }
    return changed;
  };

  if (options.strategy == Strategy::kNaive) {
    bool changed = true;
    while (changed) {
      changed = false;
      ++local.iterations;
      for (const DlRule& rule : program.rules()) {
        changed |= fire(rule, std::nullopt, nullptr, nullptr);
      }
    }
  } else {
    // Semi-naive: round 0 evaluates every rule in full (the facts and the
    // external relations are all new); after that, each rule is evaluated
    // once per body position whose predicate gained tuples in the previous
    // round, with that atom restricted to those tuples. External
    // predicates never gain tuples, so they are never a delta position.
    std::vector<Relation> delta = EmptyRelations(program);
    ++local.iterations;
    bool changed = false;
    for (const DlRule& rule : program.rules()) {
      changed |= fire(rule, std::nullopt, nullptr, &delta);
    }
    while (changed) {
      ++local.iterations;
      std::vector<Relation> next_delta = EmptyRelations(program);
      changed = false;
      for (const DlRule& rule : program.rules()) {
        for (size_t pos = 0; pos < rule.body.size(); ++pos) {
          const Relation& d = delta[rule.body[pos].pred];
          if (d.size() == 0) continue;
          changed |= fire(rule, pos, &d, &next_delta);
        }
      }
      delta = std::move(next_delta);
    }
  }

  FlushEvalCounters(local);
  if (stats != nullptr) *stats = local;
  return db;
}

Result<Database> Materialize(const DlProgram& program, Strategy strategy,
                             EvalStats* stats) {
  MaterializeOptions options;
  options.strategy = strategy;
  return MaterializeWithOptions(program, options, stats);
}

Result<std::vector<Tuple>> EvaluateQuery(const DlProgram& program,
                                         const Database& db,
                                         const std::vector<DlAtom>& body,
                                         const std::vector<DlVarId>& projection,
                                         const BodyPlanOptions* plan,
                                         const EdbSources* edb) {
  (void)program;
  size_t var_count = VarCount(body);
  for (DlVarId v : projection) {
    if (v >= var_count) {
      return InvalidArgumentError(
          "projected variable does not occur in the query body");
    }
  }
  std::set<Tuple> rows;
  auto collect = [&](const Sym* bindings) {
    Tuple row;
    row.reserve(projection.size());
    for (DlVarId v : projection) row.push_back(bindings[v]);
    rows.insert(std::move(row));
  };
  // A null `plan` means caller default: legacy join, unless WDR_PLAN=1
  // flips the process-wide default.
  const BodyPlanOptions env_default;
  if (plan == nullptr && exec::PlanModeDefault()) plan = &env_default;
  const BodySources sources(db, body, std::nullopt, nullptr, edb);
  bool planned = false;
  if (plan != nullptr) {
    // The plan projects directly: emitted rows are already in projection
    // order, so they go straight into the dedup set.
    planned = PlanBody(sources, body, *plan, projection, [&](const Sym* row) {
      rows.insert(Tuple(row, row + projection.size()));
    });
  }
  if (!planned) BodyJoin(sources, body).Run(collect);
  return std::vector<Tuple>(rows.begin(), rows.end());
}

}  // namespace wdr::datalog
