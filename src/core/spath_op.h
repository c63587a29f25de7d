// Algorithm S-PATH (§6.2.4): the novel PATH physical operator using the
// *direct approach* — validity intervals make window expirations free
// (expired nodes are simply ignored and purged), with no re-derivation.

#ifndef SGQ_CORE_SPATH_OP_H_
#define SGQ_CORE_SPATH_OP_H_

#include "core/path_base.h"

namespace sgq {

/// \brief Streaming path navigation, direct approach (Algorithm S-PATH).
///
/// Maintains the Δ-PATH spanning forest; for each node it materializes the
/// derivation with the largest expiry timestamp (coalesce with f_agg = max
/// over expiry, Def. 11 / §6.2.4), so expirations can be decided from the
/// node's own interval. Upon arrival of an sgt the operator:
///  1. adds the edge to the window store,
///  2. for every DFA transition (s, label, t), extends each tree whose
///     (src, s) node is co-valid with the edge (Expand when the target node
///     is absent or stale, Propagate when its expiry improves),
///  3. emits a result whenever an accepting node is created or improved.
class SPathOp : public PathOpBase {
 public:
  SPathOp(Dfa dfa, LabelId output_label)
      : PathOpBase(std::move(dfa), output_label) {}

  std::string Name() const override { return "PATH[S-PATH]"; }

 private:
  void ExtendTrees(const Sgt& tuple) override;

  /// One unit of traversal work: try to attach/improve `child` under
  /// `parent` in the tree rooted at `root`, via an edge labelled `via` with
  /// joint validity `iv` (already intersected with the parent's interval).
  struct AttachWork {
    VertexId root;
    NodeKey parent;
    NodeKey child;
    LabelId via;  ///< label of the edge parent -> child
    Interval iv;
  };

  /// Processes a worklist seeded with one attach request; performs the
  /// recursive Expand/Propagate traversal iteratively.
  void DrainWorklist(std::vector<AttachWork> work);
};

}  // namespace sgq

#endif  // SGQ_CORE_SPATH_OP_H_
