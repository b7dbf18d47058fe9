#ifndef WDR_REASONING_SATURATION_H_
#define WDR_REASONING_SATURATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdf/flat_triple_store.h"
#include "rdf/graph.h"
#include "reasoning/rules.h"
#include "schema/vocabulary.h"

namespace wdr::reasoning {

struct SaturationStats {
  size_t base_triples = 0;
  size_t closure_triples = 0;
  size_t derived_triples = 0;  // closure_triples - base_triples
  size_t rounds = 0;           // fixpoint rounds (worklist generations)
  RuleFirings firings;         // successful derivations per rule
};

// Knobs for how the fixpoint is computed. The default is the sequential
// worklist; `threads > 1` switches to round-barrier parallel derivation
// (see PropagateRounds below). The computed closure is identical either
// way — only wall-clock and the obs counters differ.
struct SaturationOptions {
  // Worker threads for the derive phase of each delta generation; <= 1
  // runs the single-threaded worklist.
  int threads = 1;
};

// Round-barrier semi-naive propagation, the shared engine under initial
// saturation, incremental insertion and DRed re-derivation.
//
// Precondition: every triple of `delta` is already present in `closure`
// (so joins between two same-generation triples are visible). Each
// generation of delta triples is joined against the read-only closure —
// with `options.threads > 1`, partitioned across that many workers — and
// the derived candidates are deduplicated and inserted by a single thread
// at the round barrier, in delta order, forming the next generation.
//
// Because the merge consumes worker outputs in partition order and each
// partition is a contiguous slice of the delta, the candidate stream (and
// hence the closure, the firing counts and the next delta) is identical
// for every thread count; the sequential worklist path differs only in
// when duplicates are suppressed, so the *closure* is always the same set.
// This is what tests/differential_test.cc locks down.
//
// Returns the number of triples added to `closure`. `firings` and
// `rounds`, when given, are accumulated (not reset).
size_t PropagateRounds(const RuleEngine& engine, rdf::StoreView& closure,
                       std::vector<rdf::Triple> delta,
                       const SaturationOptions& options,
                       RuleFirings* firings = nullptr,
                       size_t* rounds = nullptr);

// Forward-chaining saturation: computes the closure G∞ of a base store as
// the fixpoint of the immediate entailment rules (semi-naive: each inserted
// triple is joined against the current closure exactly once as a "delta").
//
// The result is deterministic (the closure is unique up to nothing — it is
// a set), regardless of iteration order and thread count; this is
// property-tested.
class Saturator {
 public:
  // `enable_owl` adds the RDFS++ extension rules (see rules.h).
  Saturator(const schema::Vocabulary& vocab, const rdf::Dictionary* dict,
            bool enable_owl = false)
      : engine_(vocab, dict, enable_owl) {}

  // Core: fills `closure` with base ∪ entailed triples. Returns
  // InvalidArgument if `closure` is not empty — saturating into a
  // non-empty store would silently produce wrong stats and a closure of
  // the union, which no caller wants.
  Status SaturateInto(const rdf::StoreView& base, rdf::StoreView& closure,
                      const SaturationOptions& options,
                      SaturationStats* stats = nullptr) const;
  Status SaturateInto(const rdf::StoreView& base, rdf::StoreView& closure,
                      SaturationStats* stats = nullptr) const {
    return SaturateInto(base, closure, SaturationOptions{}, stats);
  }

  // Convenience: returns base ∪ entailed triples in a flat store.
  rdf::FlatTripleStore Saturate(const rdf::StoreView& base,
                                SaturationStats* stats = nullptr,
                                const SaturationOptions& options = {}) const;

  // Convenience: saturates `graph`'s store using its dictionary.
  static rdf::FlatTripleStore SaturateGraph(
      const rdf::Graph& graph, const schema::Vocabulary& vocab,
      SaturationStats* stats = nullptr, const SaturationOptions& options = {});

  const RuleEngine& engine() const { return engine_; }

 private:
  RuleEngine engine_;
};

}  // namespace wdr::reasoning

#endif  // WDR_REASONING_SATURATION_H_
