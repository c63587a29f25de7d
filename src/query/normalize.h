// RQ normalization: expansion of star-closure atoms.
//
// Validity intervals are derived from the edges of a path (Def. 20), so a
// zero-length path has no well-defined validity; the engine therefore emits
// only paths with at least one edge. To preserve the semantics of star
// atoms *inside rule bodies* (e.g. Q2 = a . b*), normalization rewrites
// each rule with k star atoms into up to 2^k rules: for every subset of
// star atoms taken as "empty", the atom is dropped and its endpoint
// variables are unified; remaining closure atoms become plus-closures.
// Rules whose body would become empty (a bare top-level star) are dropped,
// which realizes the "no empty matches" convention.

#ifndef SGQ_QUERY_NORMALIZE_H_
#define SGQ_QUERY_NORMALIZE_H_

#include "query/rq.h"

namespace sgq {

/// \brief Whether some body atom of `rq` is a star closure — the queries
/// ExpandStarClosures changes; it returns a copy of any other query.
bool HasStarClosures(const RegularQuery& rq);

/// \brief Returns an equivalent RQ in which every closure atom is a
/// plus-closure (see file comment for the star-elimination construction).
RegularQuery ExpandStarClosures(const RegularQuery& rq);

}  // namespace sgq

#endif  // SGQ_QUERY_NORMALIZE_H_
