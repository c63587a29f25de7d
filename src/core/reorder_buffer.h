// Bounded out-of-order ingestion (paper §3, footnote 2: "we leave
// out-of-order arrival as future work" — implemented here as an
// extension).
//
// Sources that cannot guarantee timestamp order pass their sges through a
// ReorderBuffer with a slack bound B: an element with timestamp t is held
// until the watermark (max timestamp seen minus B) passes t, then released
// in timestamp order. Elements older than the watermark at arrival are
// late; they are either dropped or reported to a callback, mirroring the
// usual watermark semantics of stream processors.

#ifndef SGQ_CORE_REORDER_BUFFER_H_
#define SGQ_CORE_REORDER_BUFFER_H_

#include <functional>
#include <queue>
#include <vector>

#include "model/checkpoint.h"
#include "model/sgt.h"

namespace sgq {

/// \brief Watermark-based reordering stage in front of Engine::Push.
class ReorderBuffer {
 public:
  /// \brief `slack` bounds the tolerated disorder: an element may arrive
  /// at most `slack` time units after a later-stamped element and still be
  /// delivered in order.
  explicit ReorderBuffer(Timestamp slack) : slack_(slack) {}

  /// \brief Offers one (possibly out-of-order) element; returns the
  /// elements released by the advancing watermark, in timestamp order.
  /// Late elements (older than the watermark) are routed to the late
  /// handler and dropped from the ordered output.
  std::vector<Sge> Offer(const Sge& sge);

  /// \brief Releases everything still buffered (end of stream).
  std::vector<Sge> Flush();

  /// \brief Installs a callback receiving dropped late elements.
  void OnLate(std::function<void(const Sge&)> handler) {
    late_handler_ = std::move(handler);
  }

  /// \brief Current watermark: no element at or below it will be emitted
  /// anymore.
  Timestamp Watermark() const {
    return max_seen_ >= slack_ ? max_seen_ - slack_ : kMinTimestamp;
  }

  std::size_t Buffered() const { return heap_.size(); }
  std::size_t LateCount() const { return late_count_; }

  /// \brief Checkpoint encoding (model/checkpoint.h, DESIGN.md §7): the
  /// watermark state, late counter, and buffered elements in release
  /// order. The heap comparator is a total order, so release order is
  /// independent of insertion history and the rebuilt heap releases the
  /// restored elements exactly as the original would have.
  void SerializeState(PayloadOut* out) const;
  Status DeserializeState(ByteReader* in);

 private:
  /// Total order (timestamp first, then value): equal-timestamp elements
  /// release in a canonical order regardless of arrival or heap layout —
  /// required for run-to-run determinism and checkpoint/restore.
  struct Later {
    bool operator()(const Sge& a, const Sge& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.src != b.src) return a.src > b.src;
      if (a.trg != b.trg) return a.trg > b.trg;
      if (a.label != b.label) return a.label > b.label;
      return a.is_deletion > b.is_deletion;
    }
  };

  Timestamp slack_;
  Timestamp max_seen_ = kMinTimestamp;
  std::priority_queue<Sge, std::vector<Sge>, Later> heap_;
  std::function<void(const Sge&)> late_handler_;
  std::size_t late_count_ = 0;
};

}  // namespace sgq

#endif  // SGQ_CORE_REORDER_BUFFER_H_
