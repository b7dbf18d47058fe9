#include "reasoning/explain.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "rdf/flat_triple_store.h"

namespace wdr::reasoning {
namespace {

using rdf::StoreView;
using rdf::Triple;
using rdf::TripleHash;

struct Provenance {
  RuleId rule;
  Triple premise_a;
  Triple premise_b;
};

}  // namespace

Result<Explanation> Explain(const StoreView& base,
                            const StoreView& closure,
                            const schema::Vocabulary& vocab,
                            const rdf::Dictionary* dict,
                            const Triple& triple, bool enable_owl) {
  if (base.Contains(triple)) return Explanation{};
  if (!closure.Contains(triple)) {
    return NotFoundError("triple is not entailed by the graph");
  }

  // Re-run the saturation, recording for each derived triple the first
  // derivation that produced it. "First" is well-founded: both premises
  // were present before the conclusion, so following provenance links
  // always terminates even through cyclic schemas.
  RuleEngine engine(vocab, dict, enable_owl);
  rdf::FlatTripleStore working;
  std::deque<Triple> worklist;
  base.Match(0, 0, 0, [&](const Triple& t) {
    working.Insert(t);
    worklist.push_back(t);
  });

  std::unordered_map<Triple, Provenance, TripleHash> provenance;
  while (!worklist.empty()) {
    Triple t = worklist.front();
    worklist.pop_front();
    engine.ForEachDerivation(
        working, t, [&](const Triple& c, RuleId rule, const Triple& other) {
          if (working.Insert(c)) {
            provenance.emplace(c, Provenance{rule, t, other});
            worklist.push_back(c);
          }
        });
  }

  auto it = provenance.find(triple);
  if (it == provenance.end()) {
    // closure was claimed to be the saturation of base but disagrees.
    return InternalError(
        "triple is in the provided closure but not derivable from the base "
        "graph — closure and base are out of sync");
  }

  // Collect the proof DAG bottom-up (post-order), emitting each step once.
  Explanation explanation;
  std::unordered_set<Triple, TripleHash> emitted;
  std::vector<std::pair<Triple, bool>> stack;  // (triple, expanded)
  stack.emplace_back(triple, false);
  while (!stack.empty()) {
    auto [current, expanded] = stack.back();
    stack.pop_back();
    if (base.Contains(current) || emitted.count(current) > 0) continue;
    auto prov = provenance.find(current);
    if (prov == provenance.end()) continue;  // unreachable
    // owl-trans has three premises; the engine reports two and the third
    // is reconstructible: the transitivity declaration always, and — when
    // the declaration itself was the recorded delta — the first chain
    // triple (conclusion.s, p, b.s).
    std::vector<Triple> premises = {prov->second.premise_a,
                                    prov->second.premise_b};
    if (prov->second.rule == RuleId::kOwlTransitive) {
      Triple decl(current.p, vocab.type, vocab.owl_transitive);
      if (premises[0] == decl) {
        premises[0] = Triple(current.s, current.p, premises[1].s);
      }
      premises.push_back(decl);
    }
    if (expanded) {
      emitted.insert(current);
      DerivationStep step;
      step.conclusion = current;
      step.rule = prov->second.rule;
      step.premises = std::move(premises);
      explanation.steps.push_back(std::move(step));
    } else {
      stack.emplace_back(current, true);
      for (const Triple& premise : premises) {
        stack.emplace_back(premise, false);
      }
    }
  }
  return explanation;
}

std::string FormatExplanation(const rdf::Graph& graph,
                              const StoreView& base,
                              const Explanation& explanation) {
  if (explanation.steps.empty()) {
    return "(asserted triple — no derivation needed)\n";
  }
  std::string out;
  for (const DerivationStep& step : explanation.steps) {
    out += graph.Decode(step.conclusion);
    out += "\n  by ";
    out += RuleName(step.rule);
    out += " from:\n";
    for (const Triple& premise : step.premises) {
      out += "    ";
      out += graph.Decode(premise);
      if (base.Contains(premise)) out += "   [asserted]";
      out += "\n";
    }
  }
  return out;
}

}  // namespace wdr::reasoning
