// Canonical SGQ -> SGA translation (paper Algorithm SGQParser, §5.2).
//
// Processes the predicates of a Regular Query in dependency order and emits
// the canonical SGA expression: each EDB label becomes a WSCAN, each
// transitive-closure atom a PATH, each rule a PATTERN, and multiple rules
// with the same head a UNION. Star closures are first normalized away
// (query/normalize.h) so that every PATH carries a plus-closure.

#ifndef SGQ_ALGEBRA_TRANSLATE_H_
#define SGQ_ALGEBRA_TRANSLATE_H_

#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "query/rq.h"

namespace sgq {

/// \brief Admission predicate of a plan: the set of raw stream labels its
/// source layer can admit (runtime/query_index.h keys its posting lists on
/// exactly this). Extracted at compile time from the plan's WSCAN leaves —
/// a plan only ever sees stream elements through its scans, so an edge
/// whose label is outside this set cannot affect the plan's output.
struct AdmissionPredicate {
  /// True when some source admits *every* label (a wildcard WSCAN,
  /// input_label == kInvalidLabel): the plan belongs in the query index's
  /// always-on bucket and `labels` lists only its label-constrained scans.
  bool wildcard = false;
  /// Labels admitted by label-constrained scans (sorted, deduplicated).
  std::vector<LabelId> labels;
};

/// \brief Translates an SGQ into its canonical logical SGA plan
/// (Theorem 1: such a plan exists for every SGQ).
Result<LogicalPlan> TranslateToCanonicalPlan(const StreamingGraphQuery& query,
                                             const Vocabulary& vocab);

/// \brief Canonical structural signature of a (sub)plan: equal signatures
/// imply the two subplans produce the same output stream for every input
/// stream. The runtime keys shared WindowStore partitions on it, and the
/// multi-query Engine dedupes whole operator subtrees across registered
/// queries by it (core/engine.h). FILTER conjuncts are order-normalized (a
/// conjunction commutes) and PATTERN variables are alpha-renamed by first
/// occurrence (the join depends on their equality structure, not their
/// spelling); UNION children are not reordered (emission order matters for
/// shared state).
std::string PlanSignature(const LogicalOp& plan);

/// \brief PlanSignature of every node of `plan`, in pre-order: the root
/// first, then each child's subtree in child order, so a node's subtree
/// fills the Size() entries from its own. Each node's string is built once,
/// children first, from its children's finished strings.
std::vector<std::string> PlanSignatures(const LogicalOp& plan);

/// \brief The join key of a PATTERN: its PlanSignature `signature` with
/// the head label (the label its rule derives) left out, so two joins that
/// differ only in head label share one key. Empty for every other operator
/// kind. Cut from the signature string, so it costs one copy, not a second
/// walk of the plan; it never equals any PlanSignature.
std::string JoinSignature(const std::string& signature);

/// \brief Extracts `plan`'s admission predicate (see AdmissionPredicate).
AdmissionPredicate PlanAdmission(const LogicalOp& plan);

}  // namespace sgq

#endif  // SGQ_ALGEBRA_TRANSLATE_H_
