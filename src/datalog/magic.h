#ifndef WDR_DATALOG_MAGIC_H_
#define WDR_DATALOG_MAGIC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"

namespace wdr::datalog {

// The magic-sets transformation (§II-D open issue: "smart translations to
// Datalog and possibly RDF-specific Datalog optimization techniques"):
// given a query atom with some arguments bound to constants, rewrites the
// program so that bottom-up materialization derives only tuples relevant
// to that query — the bottom-up counterpart of the backward chaining the
// commercial systems of §II-C implement.
//
// Standard construction with the left-to-right sideways-information-
// passing strategy:
//   - predicates are *adorned* with a bound/free pattern per argument
//     (e.g. path^bf), starting from the query's pattern;
//   - each adorned IDB predicate gets a magic predicate magic_p^α holding
//     the relevant bindings of its bound arguments;
//   - each rule is rewritten to fire only for bindings present in the
//     magic predicate, and magic rules propagate bindings into the body's
//     IDB atoms left to right;
//   - the query's constant bindings seed the magic predicate.
//
// Equivalence with full materialization on the query's answers is
// property-tested.
struct MagicProgram {
  DlProgram program;        // transformed program (facts included)
  PredId answer_pred = 0;   // adorned query predicate
  DlAtom query_atom;        // query atom over answer_pred
};

// Builds the transformed program for `query` (an atom over a predicate of
// `program`; constants bound, variables free). If the query predicate is
// pure EDB (never appears in a rule head), the transformation is the
// identity. Returns InvalidArgument for unknown predicates or arity
// mismatch.
Result<MagicProgram> MagicTransform(const DlProgram& program,
                                    const DlAtom& query);

// Convenience: transform, materialize (semi-naive), and return the
// distinct projections of the query atom's variables, in order of their
// variable ids. `stats` (optional) receives the materialization stats,
// whose derived_tuples is the number the transformation is meant to
// shrink. `edb`, when non-null, serves the atoms of its (EDB) predicates
// in both the materialization and the final query.
Result<std::vector<Tuple>> AnswerWithMagic(const DlProgram& program,
                                           const DlAtom& query,
                                           EvalStats* stats = nullptr,
                                           const EdbSources* edb = nullptr);

}  // namespace wdr::datalog

#endif  // WDR_DATALOG_MAGIC_H_
