// Shared window state of one running query (runtime subsystem).
//
// Before this registry existed every stateful operator owned a private
// copy of its input window: two PATH operators over the same scanned
// stream each maintained a full adjacency, and PATTERN kept the same edges
// again in its per-port join tables — duplicate memory and duplicate
// expiry scans. The WindowStore consolidates that: operators acquire a
// partition keyed by the *plan signature* of the subplan that produces
// their input (algebra/translate.h), so structurally identical inputs
// resolve to one shared WindowEdgeStore. Inserts are idempotent
// (value-equivalent edges coalesce, Def. 11) and purges are cheap to
// repeat (the partition's expiry calendar answers "nothing due" in O(1)),
// so any number of consumers can maintain the shared partition without
// coordination: each consumer purges the partitions it reads. The shards
// of a sharded operator are the exception: they bind the operator's
// partitions once and only read them, and the executor's driver thread
// writes and purges for them (DESIGN.md §2.4).

#ifndef SGQ_RUNTIME_WINDOW_STORE_H_
#define SGQ_RUNTIME_WINDOW_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/window_store.h"

namespace sgq {

/// \brief Registry of shared WindowEdgeStore partitions, one per distinct
/// input-subplan signature. Owned by the Executor; handles stay valid for
/// the lifetime of the store.
class WindowStore {
 public:
  /// \brief Returns the partition for `signature`, creating it on first
  /// use. Subsequent calls with the same signature return the same
  /// partition (that is the sharing). Every Acquire counts one consumer;
  /// pair it with Release when the consumer is deregistered.
  WindowEdgeStore* Acquire(const std::string& signature);

  /// \brief Drops one consumer of `signature` (live query deregistration,
  /// DESIGN.md §10). The partition — and its state — is destroyed when the
  /// last consumer releases it, so a removed query's window memory is
  /// reclaimed and later checkpoints no longer carry the partition.
  /// Releasing an unknown signature or one with no outstanding consumers
  /// is a checked error.
  Status Release(const std::string& signature);

  /// \brief Sets the expiry-calendar granularity of every partition
  /// (existing and future) to the engine's slide. Called by the executor
  /// once the slide is fixed at Finalize.
  void ConfigureExpirySlide(Timestamp slide);

  /// \brief Drops the entries of every partition that expired at or
  /// before `now` (sharded execution, where the partitions' readers do
  /// not purge them).
  void PurgeExpired(Timestamp now);

  std::size_t NumPartitions() const { return partitions_.size(); }

  /// \brief Number of Acquire() calls that hit an existing partition —
  /// i.e. how much duplicate state the consolidation removed.
  std::size_t NumSharedAcquires() const { return shared_acquires_; }

  /// \brief Total entries across partitions (diagnostics).
  std::size_t NumEntries() const;

  /// \brief Resident bytes across partitions (diagnostics).
  std::size_t StateBytes() const;

  /// \brief Checkpoint encoding (model/checkpoint.h, DESIGN.md §7):
  /// partitions enumerated in sorted signature order, each with its
  /// signature string and WindowEdgeStore::SerializeState blob. Restore
  /// runs on a registry whose partitions were re-created by rebuilding the
  /// same plans — the signature sets must match exactly.
  void SerializeState(PayloadOut* out) const;
  Status DeserializeState(ByteReader* in);
  std::size_t shared_acquires() const { return shared_acquires_; }

 private:
  struct Partition {
    std::unique_ptr<WindowEdgeStore> store;
    /// Outstanding Acquire() consumers; the partition dies at zero.
    std::size_t consumers = 0;
  };

  std::unordered_map<std::string, Partition> partitions_;
  std::size_t shared_acquires_ = 0;
  Timestamp slide_ = 1;
};

}  // namespace sgq

#endif  // SGQ_RUNTIME_WINDOW_STORE_H_
