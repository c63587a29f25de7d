// Δ-tree PATH operator following the *negative tuple* approach of
// [Pacaci, Bonifati, Özsu — SIGMOD'20] ([57] in the paper): the comparison
// baseline for S-PATH (§6.2.3, §7.5, Table 3).
//
// Differences from S-PATH (paper Example 10):
//  - On arrival, a node already present in a tree is NOT updated even when
//    the new derivation would expire later (no Propagate).
//  - Window expirations are processed like explicit deletions (DRed-style
//    delete/re-derive): at each time advance, every node whose derivation
//    expired is detached and the operator searches the snapshot graph for
//    alternative valid paths (Dijkstra on maximal expiry), re-inserting
//    survivors. On cyclic graphs this re-derivation dominates the cost —
//    which is precisely the overhead the direct approach avoids.
//
// Expired nodes are found through the base node-expiry calendar (a
// slide-aligned bucket index), so a time advance that expires nothing is
// O(1) and one that expires k nodes costs O(k + re-derivation), never a
// scan of the whole forest.

#ifndef SGQ_CORE_DELTA_PATH_OP_H_
#define SGQ_CORE_DELTA_PATH_OP_H_

#include <vector>

#include "core/path_base.h"

namespace sgq {

/// \brief Streaming path navigation, negative-tuple approach ([57]).
class DeltaPathOp : public PathOpBase {
 public:
  DeltaPathOp(Dfa dfa, LabelId output_label)
      : PathOpBase(std::move(dfa), output_label) {}

  /// \brief Processes pending window expirations (delete + re-derive).
  void OnTimeAdvance(Timestamp now) override;

  /// \brief Also enables the shared window's reverse index: the shards'
  /// expiry re-derivation probes it from the first time advance on, and
  /// a reader may not build it.
  void ReadSharedWindows() override;

  /// \brief Runs pending expirations first, then frees state.
  void Purge(Timestamp now) override;

  std::string Name() const override { return "PATH[delta-tree]"; }

  /// \brief Expiry re-derivation is the Δ-tree's dominant cost; sharded
  /// time-advance phases for it are worth a pool dispatch.
  bool HasTimeDrivenWork() const override { return true; }

  /// \brief Number of delete/re-derive rounds executed (diagnostics; the
  /// S-PATH comparison expects this to dominate on cyclic inputs).
  std::size_t rederivation_rounds() const { return rederivation_rounds_; }

 private:
  struct AttachWork {
    VertexId root;
    NodeKey parent;
    NodeKey child;
    LabelId via;  ///< label of the edge parent -> child
    Interval iv;
  };

  void ExtendTrees(const Sgt& tuple) override;
  void DrainWorklist(std::vector<AttachWork> work);

  /// Scratch for the calendar drain (capacity reused across waves).
  std::vector<std::pair<VertexId, NodeKey>> expired_scratch_;
  std::size_t rederivation_rounds_ = 0;
};

}  // namespace sgq

#endif  // SGQ_CORE_DELTA_PATH_OP_H_
