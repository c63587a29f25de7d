// Windowed edge store: the snapshot-graph adjacency maintained for the
// stateful physical operators. PATH operators walk it for their traversals
// (Algorithms Expand/Propagate walk "each edge e(v, w) in G_ts") and
// PATTERN operators probe it as the shared single-atom side of their
// symmetric hash joins. Partitions of the shared runtime WindowStore
// (runtime/window_store.h) are WindowEdgeStores.
//
// State layout (DESIGN.md §"State layout"): the adjacency is a flat hash
// map from (vertex, label) to a SmallRun of StoredEdges — runs of up to
// two edges live inline in the map slot, larger runs overflow into the
// store's slab pool, so probing a key touches one slot plus at most one
// pooled block. Window expiry is driven by a slide-aligned expiry
// calendar: every entry registers a hint at its expiry bucket, and
// PurgeExpired drains only the due buckets — O(expiring bucket), not
// O(total state), when nothing or little expired.

#ifndef SGQ_CORE_WINDOW_STORE_H_
#define SGQ_CORE_WINDOW_STORE_H_

#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/expiry_calendar.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "model/checkpoint.h"
#include "model/interval.h"
#include "model/sgt.h"

namespace sgq {

/// \brief One stored out-edge: target plus validity. (In the reverse index
/// the same struct stores the *source* in `trg`.)
struct StoredEdge {
  VertexId trg = kInvalidVertex;
  Interval validity;
};

/// \brief Adjacency of the current window content, indexed by
/// (source vertex, label). Value-equivalent edges with overlapping or
/// adjacent intervals are coalesced on insert (Def. 11).
class WindowEdgeStore {
 public:
  /// Two edges inline: most (vertex, label) keys of the evaluation's
  /// streams have degree 1-2; hubs overflow into the pool.
  using EdgeRun = SmallRun<StoredEdge, 2>;

  WindowEdgeStore() = default;
  WindowEdgeStore(const WindowEdgeStore&) = delete;
  WindowEdgeStore& operator=(const WindowEdgeStore&) = delete;

  /// \brief Sets the expiry-calendar bucket granularity to the engine's
  /// window slide (called by the executor at Finalize; the default of 1
  /// is always correct, just finer-bucketed).
  void ConfigureExpirySlide(Timestamp slide) {
    calendar_.ConfigureSlide(slide);
  }

  /// \brief Inserts an edge valid over `iv`; coalesces with an existing
  /// entry for the same (src, trg, label) when intervals touch.
  void Insert(VertexId src, VertexId trg, LabelId label, Interval iv);

  /// \brief Explicit deletion at instant `t`: truncates every stored
  /// interval of (src, trg, label) to end no later than `t`. Returns true
  /// if any entry was affected.
  bool DeleteAt(VertexId src, VertexId trg, LabelId label, Timestamp t);

  /// \brief Removes every entry of (src, trg, label) regardless of
  /// validity (PATTERN's deletion scrub semantics: the historical
  /// intervals must not feed re-derivations). Returns the number of
  /// entries removed.
  std::size_t RemoveValue(VertexId src, VertexId trg, LabelId label);

  /// \brief Out-edges of `src` with `label` (may contain expired entries;
  /// callers intersect intervals).
  const EdgeRun& OutEdges(VertexId src, LabelId label) const;

  /// \brief In-edges of `trg` with `label`; each entry's `trg` field holds
  /// the *source* vertex. Requires EnableInIndex().
  const EdgeRun& InEdges(VertexId trg, LabelId label) const;

  /// \brief Maintains the reverse (target-indexed) adjacency from now on;
  /// existing content is re-indexed. Consumers that probe by target
  /// (PATTERN levels keyed on the atom's target variable) call this once
  /// at plan-build time.
  void EnableInIndex();
  bool in_index_enabled() const { return in_index_enabled_; }

  /// \brief Drops entries with exp <= now and returns how many it dropped
  /// (diagnostics and tests), then shrinks both adjacencies if they fell
  /// under 1/8 full (FlatMap::ShrinkToFit). Calendar-driven: touches only
  /// the buckets whose expiry range passed, so repeated purges of a
  /// shared partition are O(1) when nothing expired — which also means
  /// only the *first* purge at a given instant counts the dropped edges.
  std::size_t PurgeExpired(Timestamp now);

  /// \brief True when PurgeExpired(`now`) has entries to drop. O(1).
  bool AnyDue(Timestamp now) const { return calendar_.AnyDue(now); }

  std::size_t NumEntries() const { return num_entries_; }

  /// \brief Resident bytes: map capacities, pooled runs, calendar.
  std::size_t StateBytes() const {
    return adjacency_.capacity_bytes() + in_adjacency_.capacity_bytes() +
           pool_.reserved_bytes() + in_pool_.reserved_bytes() +
           calendar_.ApproxBytes();
  }

  /// \brief Total expiry hints verified by purges (diagnostics; the
  /// O(expiring bucket) tests assert this stays 0 while nothing expires).
  std::size_t expiry_hints_drained() const {
    return calendar_.hints_drained();
  }

  /// \brief Checkpoint encoding (model/checkpoint.h, DESIGN.md §7): both
  /// adjacencies with keys in sorted order and per-key run contents
  /// verbatim, plus the expiry calendar's pending hints in drain order.
  /// Every mutation path preserves run order (erase_at, never swap-pop),
  /// so restoring the runs byte-for-byte reproduces the exact traversal
  /// and probe order of the uninterrupted store.
  void SerializeState(PayloadOut* out) const;

  /// \brief Rebuilds the store from SerializeState bytes; requires an
  /// empty store. The in-index flag is adopted from the snapshot — PATH
  /// consumers enable it lazily at runtime (first delete/re-derive), so
  /// it is state, not topology.
  Status DeserializeState(ByteReader* in);

 private:
  using Key = std::pair<VertexId, LabelId>;
  using Adjacency = FlatMap<Key, EdgeRun, PairHash>;

  void InsertInto(Adjacency* adj, SlabPool* pool, VertexId key_vertex,
                  VertexId other, LabelId label, Interval iv);

  /// \brief Removes one entry (trg == `other`, validity == `iv`) from the
  /// reverse index of `key_vertex` (mirrors a drop from the adjacency).
  void RemoveFromInIndex(VertexId key_vertex, VertexId other, LabelId label,
                         const Interval& iv);

  SlabPool pool_;     ///< overflow runs of adjacency_
  SlabPool in_pool_;  ///< overflow runs of in_adjacency_
  Adjacency adjacency_;
  Adjacency in_adjacency_;  ///< reverse index; maintained when enabled
  bool in_index_enabled_ = false;
  std::size_t num_entries_ = 0;
  /// Expiry hints: every live adjacency entry registers its (vertex,
  /// label) key at its expiry bucket; the reverse index is maintained in
  /// lockstep when an entry drops, so it needs no calendar of its own.
  ExpiryCalendar<Key> calendar_;
};

}  // namespace sgq

#endif  // SGQ_CORE_WINDOW_STORE_H_
