// Typed output channels of the dataflow runtime.
//
// An operator never holds a pointer to its consumer: it emits into its
// OutputChannel, and the channel either (a) hands the tuple to the Executor
// that owns the topology (engine mode), or (b) delivers it synchronously to
// a single destination operator (direct mode — unit tests and
// micro-benchmarks that exercise one operator in isolation).
//
// A channel may have several destinations (fan-out): this is what lets the
// runtime share one WSCAN operator between every consumer of the same
// (label, window) pair. A third mode, *capture*, is for multi-instance
// operators only (num_workers > 1): each shard instance's channel buffers
// its emissions locally (no locks on the hot path); after the parallel
// section the Executor merges the buffers in shard order and
// re-partitions them through the exchange onto the destinations' slots
// (executor.h, DESIGN.md §2.4). A single-instance operator keeps its
// engine-mode channel, which routes each emission straight into those
// slots.

#ifndef SGQ_RUNTIME_CHANNEL_H_
#define SGQ_RUNTIME_CHANNEL_H_

#include <cstdint>
#include <vector>

#include "model/sgt.h"

namespace sgq {

class Executor;
class PhysicalOp;

/// \brief Identifier of an operator inside an Executor's topology.
using OpId = int32_t;
inline constexpr OpId kInvalidOpId = -1;

/// \brief One destination of a channel: an operator input port.
struct PortRef {
  OpId op = kInvalidOpId;
  int port = 0;
};

/// \brief The output edge(s) of one operator in the dataflow topology.
class OutputChannel {
 public:
  OutputChannel() = default;

  /// \brief Direct mode: deliver every pushed tuple synchronously to
  /// `op`/`port`. For standalone operator harnesses only — the engine
  /// always routes through an Executor.
  OutputChannel(PhysicalOp* op, int port)
      : direct_op_(op), direct_port_(port) {}

  /// \brief Capture mode: append every pushed tuple to `buffer`. Used only
  /// for the per-instance emission buffers of multi-instance operators;
  /// the buffer is owned by the Executor and drained by the post-run
  /// merge.
  explicit OutputChannel(std::vector<Sgt>* buffer) : capture_(buffer) {}

  /// \brief Pushes one output tuple (called by PhysicalOp::EmitTuple).
  void Push(const Sgt& tuple);

  /// \brief Destinations in delivery order (engine mode).
  const std::vector<PortRef>& destinations() const { return dests_; }

  bool connected() const {
    return direct_op_ != nullptr || capture_ != nullptr ||
           (exec_ != nullptr && !dests_.empty());
  }

 private:
  friend class Executor;

  // Engine mode (set by Executor::Connect / Finalize).
  Executor* exec_ = nullptr;
  OpId from_ = kInvalidOpId;
  std::vector<PortRef> dests_;

  // Direct mode.
  PhysicalOp* direct_op_ = nullptr;
  int direct_port_ = 0;

  // Capture mode (multi-instance operators).
  std::vector<Sgt>* capture_ = nullptr;
};

}  // namespace sgq

#endif  // SGQ_RUNTIME_CHANNEL_H_
