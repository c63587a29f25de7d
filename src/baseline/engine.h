// Epoch-batched incremental Datalog engine: the Differential-Dataflow-style
// baseline of §7.2.2 (see DESIGN.md for the substitution rationale).
//
// The engine evaluates the same SGQ as the SGA query processor but in the
// general-purpose IVM style the paper attributes to DD:
//  - all arrivals within one slide interval are batched into an epoch and
//    processed together under one logical timestamp (which is why its
//    throughput grows with the slide interval, Fig. 11);
//  - non-recursive rules are maintained with counting IVM (a head tuple's
//    support is its number of derivations);
//  - transitive closures are maintained with semi-naive evaluation plus
//    DRed-style delete/re-derive: every source whose reachable set may be
//    affected is recomputed, which ignores the temporal structure of
//    sliding windows and is therefore expensive on dense cyclic graphs
//    (the SO dataset) — the behaviour Table 2 demonstrates.

#ifndef SGQ_BASELINE_ENGINE_H_
#define SGQ_BASELINE_ENGINE_H_

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "baseline/relation.h"
#include "common/metrics.h"
#include "common/result.h"
#include "model/sgt.h"
#include "model/vocabulary.h"
#include "query/oracle.h"
#include "query/rq.h"

namespace sgq {
namespace baseline {

/// \brief Incremental evaluator of an SGQ over epoch-batched windows.
class DifferentialEngine {
 public:
  /// \brief Prepares the dataflow for `query` (stars are normalized away;
  /// the query must be a valid SGQ).
  static Result<std::unique_ptr<DifferentialEngine>> Create(
      const StreamingGraphQuery& query, const Vocabulary& vocab);

  /// \brief Feeds one stream element (buffered until its epoch closes).
  void Push(const Sge& sge);

  /// \brief Feeds a whole stream in order and closes the final epoch —
  /// the batch loop mirroring Engine::PushAll.
  void PushAll(const InputStream& stream);

  /// \brief Advances the clock to `t`, closing and processing every epoch
  /// boundary passed on the way.
  void AdvanceTo(Timestamp t);

  /// \brief Current content of the Answer relation (as of the last closed
  /// epoch).
  VertexPairSet Answers() const;

  /// \name Metrics
  /// @{
  const LatencyRecorder& epoch_latencies() const { return epoch_latencies_; }
  std::size_t edges_pushed() const { return edges_pushed_; }
  std::size_t edges_processed() const { return edges_processed_; }
  std::size_t answers_emitted() const { return answers_emitted_; }
  /// @}

 private:
  DifferentialEngine() = default;

  /// Closes the epoch ending at `boundary`: expires window content, applies
  /// buffered arrivals, and propagates deltas through the dataflow in
  /// topological order.
  void ProcessEpoch(Timestamp boundary);

  /// Delta-rule evaluation for one rule; updates support counts and applies
  /// net changes to the head relation.
  void EvaluateRuleDelta(const Rule& rule);

  /// Semi-naive + DRed maintenance of a transitive-closure alias.
  void MaintainClosure(LabelId alias, LabelId base);

  VersionedRelation& RelationOf(LabelId label) {
    return relations_[label];
  }

  // --- query structure ---
  RegularQuery rq_;  // star-normalized
  const Vocabulary* vocab_ = nullptr;
  WindowSpec window_;
  std::unordered_map<LabelId, WindowSpec> per_label_windows_;
  std::vector<LabelId> topo_order_;
  std::unordered_map<LabelId, LabelId> alias_to_base_;
  std::set<LabelId> input_labels_;

  // --- state ---
  std::unordered_map<LabelId, VersionedRelation> relations_;
  /// Support counts of rule-derived tuples (counting IVM).
  std::unordered_map<LabelId,
                     std::map<std::pair<VertexId, VertexId>, long>>
      supports_;
  /// Window content per input label: (src,trg) -> expiry (coalesced max).
  std::unordered_map<LabelId,
                     std::map<std::pair<VertexId, VertexId>, Timestamp>>
      window_content_;
  /// Arrivals buffered for the open epoch.
  std::vector<Sge> pending_;

  Timestamp slide_ = 1;
  Timestamp next_boundary_ = kMinTimestamp;
  bool started_ = false;

  LatencyRecorder epoch_latencies_;
  std::size_t edges_pushed_ = 0;
  std::size_t edges_processed_ = 0;
  std::size_t answers_emitted_ = 0;
};

}  // namespace baseline
}  // namespace sgq

#endif  // SGQ_BASELINE_ENGINE_H_
