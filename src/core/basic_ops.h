// Stateless physical operators: WSCAN, FILTER, UNION, and the result SINK
// (§6.2.1: "standard dataflow implementations of stateless FILTER and UNION
// can be used directly; WSCAN is a map adjusting validity intervals").

#ifndef SGQ_CORE_BASIC_OPS_H_
#define SGQ_CORE_BASIC_OPS_H_

#include <vector>

#include "algebra/logical_plan.h"
#include "core/physical.h"
#include "model/coalesce.h"
#include "model/window.h"

namespace sgq {

/// \brief Physical WSCAN (Def. 16): turns input sges into sgts by
/// assigning the validity interval [t, floor(t/beta)*beta + T).
///
/// A source operator: the Executor routes each ingested sge to the scans
/// registered for its label. The runtime deduplicates structurally
/// identical WSCANs — one operator fans its channel out to every consumer.
class WScanOp : public SourceOp {
 public:
  WScanOp(LabelId label, WindowSpec window)
      : label_(label), window_(window) {}

  /// \brief Entry point used by the engine's stream router.
  void OnSge(const Sge& sge) override;

  void OnTuple(int port, const Sgt& tuple) override;
  std::string Name() const override { return "WSCAN"; }

  LabelId label() const { return label_; }
  const WindowSpec& window() const { return window_; }

 private:
  LabelId label_;
  WindowSpec window_;
};

/// \brief Physical FILTER (Def. 17): forwards sgts satisfying every
/// predicate conjunct over the distinguished attributes.
class FilterOp : public PhysicalOp {
 public:
  explicit FilterOp(std::vector<FilterPredicate> predicates)
      : predicates_(std::move(predicates)) {}

  void OnTuple(int port, const Sgt& tuple) override;
  std::string Name() const override { return "FILTER"; }

  /// \brief True when `tuple` satisfies the conjunction.
  bool Matches(const Sgt& tuple) const;

 private:
  std::vector<FilterPredicate> predicates_;
};

/// \brief Physical UNION (Def. 18): merges streams, optionally relabeling
/// each tuple with the derived output label.
///
/// `relabel_join` makes it the relabel stage of a shared join (core/
/// engine.h): its one input is a PATTERN compiled under another head
/// label. A multi-atom PATTERN's payload is its own derived edge, so that
/// edge is relabeled too, and the output is byte-identical to the join
/// compiled under `output_label`.
class UnionOp : public PhysicalOp {
 public:
  explicit UnionOp(LabelId output_label, bool relabel_join = false)
      : output_label_(output_label), relabel_join_(relabel_join) {}

  void OnTuple(int port, const Sgt& tuple) override;
  std::string Name() const override { return "UNION"; }

 private:
  LabelId output_label_;
  bool relabel_join_;
};

/// \brief Result sink: collects output sgts, optionally coalescing
/// value-equivalent results to keep snapshot set semantics without
/// redundancy.
class SinkOp : public PhysicalOp {
 public:
  explicit SinkOp(bool coalesce) : coalesce_(coalesce) {}

  void OnTuple(int port, const Sgt& tuple) override;
  void Purge(Timestamp now) override;
  bool PurgeDue(Timestamp now) const override {
    return coalescer_.AnyDue(now);
  }
  void ConfigureExpirySlide(Timestamp slide) override {
    coalescer_.ConfigureExpirySlide(slide);
  }
  std::string Name() const override { return "SINK"; }
  std::size_t StateSize() const override { return coalescer_.NumKeys(); }
  std::size_t StateBytes() const override {
    return coalescer_.ApproxBytes();
  }

  const std::vector<Sgt>& results() const { return results_; }
  std::vector<Sgt> TakeResults() { return std::move(results_); }
  std::size_t total_emitted() const { return total_emitted_; }

  /// \brief Checkpoint encoding (model/checkpoint.h, DESIGN.md §7): the
  /// dedup coalescer, the buffered results verbatim, and the emission
  /// counter — a restored run re-emits the full prefix, so its output is
  /// byte-comparable against an uninterrupted run.
  void SerializeState(PayloadOut* out) const override;
  Status DeserializeState(ByteReader* in) override;

 private:
  bool coalesce_;
  StreamingCoalescer coalescer_;
  std::vector<Sgt> results_;
  std::size_t total_emitted_ = 0;
};

}  // namespace sgq

#endif  // SGQ_CORE_BASIC_OPS_H_
