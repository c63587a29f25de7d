#include "core/basic_ops.h"

namespace sgq {

void WScanOp::OnSge(const Sge& sge) {
  if (sge.is_deletion) {
    // Negative tuple (§6.2.5): validity start marks the deletion instant.
    Sgt del(sge.src, sge.trg, sge.label, Interval(sge.t, kMaxTimestamp),
            {sge.edge()}, /*del=*/true);
    EmitTuple(del);
    return;
  }
  const Timestamp exp = window_.ExpiryFor(sge.t);
  Sgt tuple(sge.src, sge.trg, sge.label, Interval(sge.t, exp),
            {sge.edge()});
  EmitTuple(tuple);
}

void WScanOp::OnTuple(int port, const Sgt& tuple) {
  // WSCAN is a leaf; tuples can still be fed directly in tests to model a
  // pre-windowed stream.
  (void)port;
  EmitTuple(tuple);
}

bool FilterOp::Matches(const Sgt& t) const {
  for (const FilterPredicate& p : predicates_) {
    switch (p.kind) {
      case FilterPredicate::Kind::kSrcEquals:
        if (t.src != p.vertex) return false;
        break;
      case FilterPredicate::Kind::kTrgEquals:
        if (t.trg != p.vertex) return false;
        break;
      case FilterPredicate::Kind::kSrcEqualsTrg:
        if (t.src != t.trg) return false;
        break;
      case FilterPredicate::Kind::kLabelEquals:
        if (t.label != p.label) return false;
        break;
    }
  }
  return true;
}

void FilterOp::OnTuple(int port, const Sgt& tuple) {
  (void)port;
  if (Matches(tuple)) EmitTuple(tuple);
}

void UnionOp::OnTuple(int port, const Sgt& tuple) {
  (void)port;
  if (output_label_ == kInvalidLabel || tuple.label == output_label_) {
    EmitTuple(tuple);
    return;
  }
  Sgt relabeled = tuple;
  relabeled.label = output_label_;
  if (relabel_join_ && relabeled.payload.size() == 1 &&
      relabeled.payload[0] == tuple.edge()) {
    relabeled.payload[0].label = output_label_;
  }
  EmitTuple(relabeled);
}

void SinkOp::OnTuple(int port, const Sgt& tuple) {
  (void)port;
  if (tuple.is_deletion) {
    coalescer_.Forget(tuple.edge(), tuple.validity.ts);
    results_.push_back(tuple);
    ++total_emitted_;
    return;
  }
  if (!coalesce_ || coalescer_.Offer(tuple)) {
    results_.push_back(tuple);
    ++total_emitted_;
  }
}

void SinkOp::Purge(Timestamp now) { coalescer_.PurgeBefore(now); }

void SinkOp::SerializeState(PayloadOut* out) const {
  coalescer_.SerializeState(out);
  PutU64(out, results_.size());
  for (const Sgt& t : results_) PutSgt(out, t);
  PutU64(out, total_emitted_);
}

Status SinkOp::DeserializeState(ByteReader* in) {
  if (!results_.empty() || total_emitted_ != 0) {
    return in->Fail("sink not empty before restore");
  }
  SGQ_RETURN_NOT_OK(coalescer_.DeserializeState(in));
  const std::uint64_t n = in->U64();
  if (in->ok()) results_.reserve(n);
  for (std::uint64_t i = 0; i < n && in->ok(); ++i) {
    results_.push_back(GetSgt(in));
  }
  total_emitted_ = in->U64();
  return in->status();
}

}  // namespace sgq
