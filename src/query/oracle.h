// One-time (non-streaming) query evaluation over snapshot graphs.
//
// This is the reference implementation Q_O of the snapshot-reducibility
// semantics (Def. 14): for every instant t,
//     tau_t(Q(S, W)) == Q_O(tau_t(W(S))).
// The incremental engine (src/core) is tested against this oracle on
// randomized streams.
//
// Evaluation rule: IDB labels in topological order; a closure alias is the
// transitive closure of its label; a rule joins its body atoms left to
// right over a table with one vertex slot per rule variable. After each
// atom the slots that no later atom and not the head reads are cleared and
// duplicate rows dropped. Memory bound: a rule's table holds the distinct
// bindings of its live variables (at most about twice that between
// dedups), never one row per body match, so a chain's cost follows its
// answer, not the number of paths through it. Relations are held as pair
// sets with per-vertex probe lists.

#ifndef SGQ_QUERY_ORACLE_H_
#define SGQ_QUERY_ORACLE_H_

#include <set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "model/snapshot_graph.h"
#include "query/rq.h"
#include "regex/dfa.h"

namespace sgq {

/// \brief A binary relation instance: a sorted set of vertex pairs.
using VertexPairSet = std::set<std::pair<VertexId, VertexId>>;

/// \brief Evaluates a Regular Query on a static snapshot graph; returns the
/// Answer relation. Star closures are expanded first (normalize.h), so a
/// path result always traverses at least one edge.
Result<VertexPairSet> EvaluateOneTime(const RegularQuery& rq,
                                      const SnapshotGraph& graph,
                                      const Vocabulary& vocab);

/// \brief Evaluates a single RPQ given by `dfa` on the snapshot graph:
/// all pairs (u, v) connected by a non-empty path whose label word is in
/// L(dfa). Product-graph BFS; the test oracle for the PATH operators.
VertexPairSet EvaluateRpq(const SnapshotGraph& graph, const Dfa& dfa);

/// \brief Transitive closure (one or more steps) of a binary relation.
VertexPairSet TransitiveClosure(const VertexPairSet& relation);

/// \brief Checks that `path` is a well-formed witness: consecutive edges
/// chain (trg_i == src_{i+1}), endpoints match, and every edge is present
/// in the snapshot graph. Used to validate returned first-class paths.
bool IsValidWitnessPath(const SnapshotGraph& graph, VertexId src,
                        VertexId trg, const Payload& path);

}  // namespace sgq

#endif  // SGQ_QUERY_ORACLE_H_
