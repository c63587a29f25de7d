#include "core/reorder_buffer.h"

#include <algorithm>

namespace sgq {

std::vector<Sge> ReorderBuffer::Offer(const Sge& sge) {
  if (sge.t < Watermark() ||
      (max_seen_ > kMinTimestamp && sge.t + slack_ < max_seen_)) {
    ++late_count_;
    if (late_handler_) late_handler_(sge);
    return {};
  }
  max_seen_ = std::max(max_seen_, sge.t);
  heap_.push(sge);

  std::vector<Sge> released;
  const Timestamp watermark = Watermark();
  while (!heap_.empty() && heap_.top().t <= watermark) {
    released.push_back(heap_.top());
    heap_.pop();
  }
  return released;
}

std::vector<Sge> ReorderBuffer::Flush() {
  std::vector<Sge> released;
  released.reserve(heap_.size());
  while (!heap_.empty()) {
    released.push_back(heap_.top());
    heap_.pop();
  }
  return released;
}

void ReorderBuffer::SerializeState(PayloadOut* out) const {
  PutI64(out, slack_);
  PutI64(out, max_seen_);
  PutU64(out, late_count_);
  // Drain a copy: stored order is release order (the comparator is a
  // total order, so this is canonical).
  auto copy = heap_;
  PutU64(out, copy.size());
  while (!copy.empty()) {
    PutSge(out, copy.top());
    copy.pop();
  }
}

Status ReorderBuffer::DeserializeState(ByteReader* in) {
  if (!heap_.empty() || late_count_ != 0) {
    return in->Fail("reorder buffer not empty before restore");
  }
  const Timestamp slack = in->I64();
  if (in->ok() && slack != slack_) {
    return in->Fail("slack mismatch (checkpoint was taken with a "
                    "different --slack)");
  }
  max_seen_ = in->I64();
  late_count_ = in->U64();
  const std::uint64_t n = in->U64();
  for (std::uint64_t i = 0; i < n && in->ok(); ++i) {
    heap_.push(GetSge(in));
  }
  return in->status();
}

}  // namespace sgq
