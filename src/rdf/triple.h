#ifndef WDR_RDF_TRIPLE_H_
#define WDR_RDF_TRIPLE_H_

#include <compare>
#include <cstddef>
#include <functional>
#include <ostream>

#include "rdf/term.h"

namespace wdr::rdf {

// A dictionary-encoded RDF triple (s p o). 12 bytes, trivially copyable.
struct Triple {
  TermId s = kNullTermId;
  TermId p = kNullTermId;
  TermId o = kNullTermId;

  Triple() = default;
  Triple(TermId subject, TermId property, TermId object)
      : s(subject), p(property), o(object) {}

  friend auto operator<=>(const Triple&, const Triple&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Triple& t) {
  return os << "(" << t.s << " " << t.p << " " << t.o << ")";
}

struct TripleHash {
  size_t operator()(const Triple& t) const {
    // 64-bit mix of the three 32-bit components (splitmix-style).
    uint64_t h = (static_cast<uint64_t>(t.s) << 32) | t.p;
    h ^= static_cast<uint64_t>(t.o) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<size_t>(h);
  }
};

}  // namespace wdr::rdf

#endif  // WDR_RDF_TRIPLE_H_
