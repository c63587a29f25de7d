// Physical operator interface of the push-based dataflow runtime (§6).
//
// Operators are non-blocking: each arriving sgt is processed immediately
// (the paper's prototype behaves the same way on top of Timely Dataflow;
// see DESIGN.md for the substitution note). Operators do not call each
// other: outputs go through an OutputChannel, and the Executor
// (runtime/executor.h) that owns the operator topology drives
// OnTuple/OnTimeAdvance/Purge waves in topological order. Time advances
// monotonically; OnTimeAdvance lets stateful operators process
// expirations, and at every slide boundary the executor purges each
// operator that has expired state due.

#ifndef SGQ_CORE_PHYSICAL_H_
#define SGQ_CORE_PHYSICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/checkpoint.h"
#include "model/sgt.h"
#include "runtime/channel.h"
#include "runtime/shard.h"

namespace sgq {

/// \brief Base class of all physical operators.
///
/// Multi-input operators distinguish inputs by port number. Output goes to
/// the bound OutputChannel; an unbound channel discards emissions (useful
/// for operators probed only for their state).
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  /// \brief Processes one input tuple arriving on `port`.
  virtual void OnTuple(int port, const Sgt& tuple) = 0;

  /// \brief Processes a micro-batch of tuples arriving on `port`. The
  /// default forwards tuple-at-a-time; operators with batch-amortizable
  /// work (hash-table probes, window inserts) may override.
  virtual void OnBatch(int port, const Sgt* tuples, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) OnTuple(port, tuples[i]);
  }

  /// \brief Notifies the operator that time advanced to `now`. Called for
  /// every distinct input timestamp (so negative-tuple expiry processing is
  /// exact) and at every slide boundary. Default: no-op — operators using
  /// the *direct* approach need no expiry processing (§6.2.4).
  ///
  /// CONTRACT: an operator that overrides this must also override
  /// HasTimeDrivenWork() to return true. The executor
  /// (runtime/executor.h) skips the time-advance phase of every operator
  /// that does not declare itself — exact only because undeclared
  /// operators are guaranteed this base no-op.
  virtual void OnTimeAdvance(Timestamp now) { (void)now; }

  /// \brief Drops exactly the state entries whose expiry is at or before
  /// `now` — window edges, join bindings, tree nodes, coalescer coverage —
  /// touching only what its expiry calendars have due (O(due), not
  /// O(state)). The executor calls it at every slide boundary `b` at
  /// which PurgeDue(b) holds, so after the boundary no operator holds an
  /// entry expiring at or before `b`, and operator state at a batch
  /// boundary is a function of the input prefix alone.
  ///
  /// Purging is not invisible: an expired entry can no longer join or
  /// extend a path during a deletion's retract/re-derive replay, nor
  /// suppress a re-emission in an output coalescer. What it would have
  /// produced is a past-only tuple, one whose interval ended before the
  /// current time and that earlier emissions already cover, so the output
  /// stream is snapshot-equivalent either way; purging exactly when due
  /// makes which of these tuples appear depend on the input alone.
  ///
  /// CONTRACT: an operator that overrides this must also override
  /// PurgeDue(); the executor skips the purge of every operator whose
  /// PurgeDue() is false, and the base one always is.
  virtual void Purge(Timestamp now) { (void)now; }

  /// \brief True when Purge(`now`) has something to drop. Answered in O(1)
  /// from the expiry calendars' earliest due bucket.
  virtual bool PurgeDue(Timestamp now) const {
    (void)now;
    return false;
  }

  /// \brief Sets the expiry-calendar bucket granularity of stateful
  /// operators to the engine's window slide. Called by the executor at
  /// Finalize, before any tuple; the default (slide 1) is always correct,
  /// just finer-bucketed, so standalone operator tests need not call it.
  virtual void ConfigureExpirySlide(Timestamp slide) { (void)slide; }

  /// \brief Operator name for plan explanations.
  virtual std::string Name() const = 0;

  /// \brief How tuples arriving on `port` are distributed across this
  /// operator's shards under sharded execution (num_workers > 1). The
  /// default hash-partitions by edge value, which is correct for any
  /// operator whose state (if any) is keyed by the tuple's endpoints —
  /// stateless operators trivially qualify. Operators whose state can
  /// grow from tuples with unrelated keys (PATH) override to kBroadcast.
  /// Ignored when the operator has a single instance.
  virtual RoutingKey InputRouting(int port) const {
    (void)port;
    return RoutingKey::kEdgeValue;
  }

  /// \brief True when sharded deletion processing must be coordinated
  /// across shards (two-phase retract/reassert; see DeletionCoordination).
  /// Such operators must also implement DeletionCoordination.
  virtual bool NeedsDeletionCoordination() const { return false; }

  /// \brief True when the operator's per-shard output coalescers cannot
  /// see each other's emissions: a value-equivalent result derived on two
  /// shards is emitted twice even though a single instance would have
  /// suppressed the repeat. The executor then runs the deterministic
  /// post-merge stream through a merge-side coalescer at the exchange,
  /// restoring single-worker emission volume (DESIGN.md §2.4). Only
  /// meaningful for operators whose output values can be derived on more
  /// than one shard (multi-atom PATTERN); PATH partitions its output
  /// values by tree root, so its merged stream is already duplicate-free.
  virtual bool CoalesceAtMerge() const { return false; }

  /// \brief True when OnTimeAdvance can perform work (Δ-tree expiry
  /// re-derivation). Time-advance phases fire for *every distinct input
  /// timestamp*, and the executor runs them ONLY for operators that
  /// return true here (the sharded executor on the worker pool); every
  /// other operator is skipped, since its OnTimeAdvance is the base
  /// no-op.
  ///
  /// Mandatory for OnTimeAdvance overriders (see its contract note).
  virtual bool HasTimeDrivenWork() const { return false; }

  /// \name Shared window partitions under sharding (DESIGN.md §2.4)
  ///
  /// The shard instances of one operator bind the same WindowStore
  /// partitions, and the executor's driver thread is their only writer:
  /// the executor makes every instance a reader (ReadSharedWindows) and
  /// applies the window writes itself, outside the parallel section,
  /// through the primary instance. Shards only read a partition while
  /// they run, so none needs a lock. A lone instance — every operator at
  /// num_workers = 1 — writes its own partitions.
  /// @{

  /// \brief Makes this instance a reader of its window partitions: it
  /// never writes one. Driver thread, before any shard runs.
  virtual void ReadSharedWindows() {}

  /// \brief Driver thread, called on the primary of a sharded operator:
  /// applies the window writes of `n` tuples arriving on `port`, in
  /// order — the writes a lone instance's OnBatch would make. The plain
  /// sharded wave calls it before the operator's shard section; under
  /// deletion coordination it runs after the shards ran a run of
  /// positives, and a deletion alone between the deletion's two phases.
  /// The executor passes the batch shard 0 received, which is the whole
  /// batch only on a broadcast port: only broadcast ports may write.
  virtual void WriteWindows(int port, const Sgt* tuples, std::size_t n) {
    (void)port;
    (void)tuples;
    (void)n;
  }
  /// @}

  /// \brief Approximate number of state entries the instance owns (for
  /// diagnostics). WindowStore partitions are not the instance's: the
  /// executor counts each of them once, however many operators and
  /// shards read it.
  virtual std::size_t StateSize() const { return 0; }

  /// \brief Approximate resident bytes of the state StateSize counts
  /// (containers at capacity plus arena slabs). Tracks memory wins
  /// alongside StateSize's entry counts; 0 for stateless operators.
  virtual std::size_t StateBytes() const { return 0; }

  /// \brief Binds the output channel tuples are emitted into. The channel
  /// is owned by the Executor (engine mode) or by the caller (direct mode).
  void BindOutput(OutputChannel* out) { out_ = out; }

  /// \brief Checkpoint hook (model/checkpoint.h, DESIGN.md §7): appends
  /// the operator's complete runtime state. Stateful operators override
  /// both hooks; the default (stateless) pair writes/reads nothing.
  /// Contract: at a batch boundary, DeserializeState on a freshly built
  /// instance of the same plan must reproduce state whose future behavior
  /// is byte-identical to the serialized instance's.
  virtual void SerializeState(PayloadOut* out) const { (void)out; }

  /// \brief Restores SerializeState bytes into a freshly built operator
  /// (same plan, same configuration, no tuples processed).
  virtual Status DeserializeState(ByteReader* in) {
    (void)in;
    return Status::OK();
  }

 protected:
  /// \brief Pushes an output tuple into the bound output channel.
  void EmitTuple(const Sgt& tuple) {
    if (out_ != nullptr) out_->Push(tuple);
  }

 private:
  OutputChannel* out_ = nullptr;
};

/// \brief A source operator: entry point of raw stream elements. The
/// Executor routes each ingested sge to the sources registered for its
/// label.
class SourceOp : public PhysicalOp {
 public:
  /// \brief Processes one raw stream element.
  virtual void OnSge(const Sge& sge) = 0;
};

/// \brief Two-phase deletion protocol for sharded operators whose output
/// values can be derived on several shards (PATTERN: an output pair may
/// have witness derivations owned by different port-0 bindings, hence
/// different shards).
///
/// A single-shard deletion replay cannot decide whether a retracted value
/// survives via another shard's derivations, so the Executor drives the
/// deletion in two barrier-separated phases:
///
///  1. RetractForDeletion on the shard(s) the deletion routes to — emits
///     the negative tuples, scrubs local state, and returns the retracted
///     output values.
///  2. ReassertRetracted with the *union* of all shards' retracted values
///     on every shard — each shard re-emits positives for the values it
///     can still derive, so a value with a surviving witness anywhere is
///     re-asserted after the retraction.
///
/// A lone instance composes the two phases back-to-back itself, which
/// reproduces the original single-threaded deletion handling exactly.
class DeletionCoordination {
 public:
  virtual ~DeletionCoordination() = default;

  /// \brief Phase 1: replays the deletion of `tuple` (arriving on `port`)
  /// against local pre-deletion state, emitting negative tuples and
  /// scrubbing local state. Returns the retracted output values in a
  /// deterministic (sorted) order.
  virtual std::vector<EdgeRef> RetractForDeletion(int port,
                                                  const Sgt& tuple) = 0;

  /// \brief Phase 2: re-derives every value in `retracted` that local
  /// state still supports and re-emits its positive tuple.
  virtual void ReassertRetracted(const std::vector<EdgeRef>& retracted) = 0;
};

/// \brief Physical implementation choices for the PATH logical operator.
enum class PathImpl {
  kSPath,      ///< Algorithm S-PATH: direct approach (§6.2.4)
  kDeltaPath,  ///< Δ-tree of [57]: negative-tuple approach (§6.2.3)
};

}  // namespace sgq

#endif  // SGQ_CORE_PHYSICAL_H_
