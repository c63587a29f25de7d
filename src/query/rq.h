// Regular Queries (paper Def. 13): binary non-recursive Datalog extended
// with transitive closure of binary predicates. RQ is the logical query
// model underlying SGQ; SGQParser (algebra/translate.h) compiles it to SGA.

#ifndef SGQ_QUERY_RQ_H_
#define SGQ_QUERY_RQ_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "model/types.h"
#include "model/vocabulary.h"
#include "model/window.h"

namespace sgq {

/// \brief Kind of transitive closure applied to a body atom.
enum class ClosureKind {
  kNone,  ///< plain binary predicate l(x, y)
  kPlus,  ///< (l+ (x, y) as d): one or more steps
  kStar,  ///< (l* (x, y) as d): zero or more steps
};

/// \brief One body atom of a rule: l(src, trg), optionally under closure.
///
/// Closure atoms carry the derived label `alias` that names the produced
/// path relation (the "as d" of Def. 13); plain atoms leave it invalid.
struct BodyAtom {
  LabelId label = kInvalidLabel;  ///< predicate label (EDB or IDB)
  std::string src;                ///< source variable name
  std::string trg;                ///< target variable name
  ClosureKind closure = ClosureKind::kNone;
  LabelId alias = kInvalidLabel;  ///< path label for closure atoms

  bool IsClosure() const { return closure != ClosureKind::kNone; }
};

/// \brief One Datalog rule: head(head_src, head_trg) <- body.
struct Rule {
  LabelId head = kInvalidLabel;  ///< derived (IDB) label
  std::string head_src;
  std::string head_trg;
  std::vector<BodyAtom> body;
};

/// \brief A Regular Query: a set of rules plus the designated answer label.
///
/// The implemented fragment keeps the Answer predicate binary (SGA outputs
/// are streaming graphs, which are binary by construction).
class RegularQuery {
 public:
  RegularQuery() = default;

  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }
  void SetAnswer(LabelId label) { answer_ = label; }

  const std::vector<Rule>& rules() const { return rules_; }
  LabelId answer() const { return answer_; }

  /// \brief Rules whose head is `label`.
  std::vector<const Rule*> RulesFor(LabelId label) const;

  /// \brief Checks well-formedness against Def. 13:
  ///  - every head and closure alias is a derived label,
  ///  - head variables appear in the rule body,
  ///  - the dependency graph is acyclic (non-recursive),
  ///  - the answer label is defined by at least one rule.
  /// The acyclicity check computes TopologicalOrder(); when `topo_order`
  /// is given, a valid query's order is stored there, so a caller that
  /// needs both pays for one.
  Status Validate(const Vocabulary& vocab,
                  std::vector<LabelId>* topo_order = nullptr) const;

  /// \brief Topological order of IDB labels (dependencies first).
  /// Closure aliases are ordered after their underlying label's definition.
  /// Fails on recursion.
  Result<std::vector<LabelId>> TopologicalOrder() const;

  /// \brief All EDB labels referenced by the query.
  std::vector<LabelId> InputLabels(const Vocabulary& vocab) const;

  /// \brief Debug rendering.
  std::string ToString(const Vocabulary& vocab) const;

 private:
  std::vector<Rule> rules_;
  LabelId answer_ = kInvalidLabel;
};

/// \brief A streaming graph query (Def. 15): an RQ plus a time-based
/// sliding window; optional per-input-label window overrides support
/// multi-stream queries (paper Example 4 windows two streams differently).
struct StreamingGraphQuery {
  RegularQuery rq;
  WindowSpec window;
  std::unordered_map<LabelId, WindowSpec> per_label_windows;

  /// \brief Window applying to input label `l`.
  const WindowSpec& WindowFor(LabelId l) const {
    auto it = per_label_windows.find(l);
    return it == per_label_windows.end() ? window : it->second;
  }
};

/// \brief Parses the Datalog-style text form of an RQ.
///
/// Syntax, one rule per line (comments start with '#'):
///   RL(x,y) <- likes(x,m), follows+(x,y) as FP, posts(y,m)
///   Answer(x,m) <- RL+(x,y) as RLP, posts(y,m)
/// `label+(x,y)`/`label*(x,y)` denote transitive closure; `as Alias` names
/// the materialized path label (auto-generated when omitted). The rule head
/// named `Answer` (or `Ans`) designates the answer predicate. Labels that
/// never appear as a head or alias are interned as input (EDB) labels.
Result<RegularQuery> ParseRq(std::string_view text, Vocabulary* vocab);

}  // namespace sgq

#endif  // SGQ_QUERY_RQ_H_
