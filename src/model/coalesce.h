// Temporal coalescing of value-equivalent sgts (paper Defs. 10-11).
//
// SGA operators may produce multiple value-equivalent sgts with overlapping
// or adjacent validity intervals; coalescing merges them to maintain the set
// semantics of snapshot graphs (at any instant each edge/path exists once).

#ifndef SGQ_MODEL_COALESCE_H_
#define SGQ_MODEL_COALESCE_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/expiry_calendar.h"
#include "common/flat_map.h"
#include "common/small_vec.h"
#include "model/checkpoint.h"
#include "model/sgt.h"

namespace sgq {

/// \brief Operator-specific aggregation over payloads of merged tuples
/// (the f_agg of Def. 11). Receives the payloads of all merged tuples.
using PayloadAggregator =
    std::function<Payload(const std::vector<const Payload*>&)>;

/// \brief f_agg that keeps the payload of the tuple expiring last (the
/// choice S-PATH makes: materialize the longest-lived derivation).
Payload KeepLastExpiringPayload(const std::vector<const Payload*>& payloads,
                                const std::vector<Interval>& intervals);

/// \brief Batch coalesce (Def. 11): merges value-equivalent tuples with
/// overlapping or adjacent intervals. Tuples that are not value-equivalent
/// or whose intervals are disjoint stay separate. Output order: grouped by
/// (src, trg, label), sorted by ts within a group.
std::vector<Sgt> Coalesce(const std::vector<Sgt>& tuples);

/// \brief Online duplicate suppression for operator output streams.
///
/// Tracks, per distinguished triple, the union of intervals emitted so far.
/// Offer() returns true (and records the tuple) only when the new tuple's
/// interval adds at least one not-yet-covered instant; fully covered tuples
/// are suppressed. This keeps the emitted stream snapshot-equivalent to the
/// uncoalesced stream while removing redundancy.
///
/// Expired coverage is found through a slide-aligned expiry calendar
/// (common/expiry_calendar.h). Invariant: every key has a pending hint at
/// or before the expiry of its earliest interval. A hint is registered
/// when a key is created, when an out-of-order Offer puts an earlier
/// interval first, and when Forget truncates the earliest interval;
/// extending an interval registers nothing. PurgeBefore drains only the
/// due hints, so a purge costs what expired, not the number of keys.
///
/// Hints are verified, not tracked: a key keeps no record of its hints,
/// so the last two cases can leave it more than one. The drain checks
/// each hint against the key's live coverage — a hint for an erased key
/// is skipped, a hint for a live key drops its expired intervals and
/// re-registers it — so a duplicate costs one extra verification per
/// drain, and duplicates never outnumber the out-of-order Offers and
/// Forget calls that made them. (Tracking the live hint per key would
/// widen every map slot past one cache line.)
class StreamingCoalescer {
 public:
  /// \brief Returns true if `t` must be emitted; false if suppressed.
  bool Offer(const Sgt& t);

  /// \brief Sets the expiry-calendar bucket granularity to the engine's
  /// window slide (the default of 1 is always correct, just finer).
  void ConfigureExpirySlide(Timestamp slide) { expiry_.ConfigureSlide(slide); }

  /// \brief True when PurgeBefore(`now`) has coverage to drop. O(1).
  bool AnyDue(Timestamp now) const { return expiry_.AnyDue(now); }

  /// \brief Drops every interval with expiry <= `t` and every key left
  /// empty, then shrinks the key table if it fell under 1/8 full
  /// (FlatMap::ShrinkToFit); O(due keys) amortized. Afterwards no key
  /// holds an interval expiring at or before `t`.
  void PurgeBefore(Timestamp t);

  /// \brief Drops all coverage recorded for `key`. Only for retraction
  /// paths where the deletion instant is unknown (cross-shard re-assert
  /// coordination); prefer the interval-level overload. The key's hints
  /// go stale and are skipped when drained.
  void Forget(const EdgeRef& key) { covered_.erase(key); }

  /// \brief Interval-level forget: removes coverage at instants >= `from`,
  /// mirroring how an explicit deletion at `from` truncates downstream
  /// validity (SnapshotEdges). Coverage before the deletion instant keeps
  /// suppressing redundant re-emissions; re-asserts extending past it are
  /// emitted again. Drops the key when nothing remains.
  void Forget(const EdgeRef& key, Timestamp from);

  /// \brief Number of distinct keys currently tracked.
  std::size_t NumKeys() const { return covered_.size(); }

  /// \brief Total hints drained so far (diagnostics; a purge with nothing
  /// due drains none).
  std::size_t expiry_hints_drained() const { return expiry_.hints_drained(); }

  /// \brief Approximate resident bytes (map capacity, overflow runs and
  /// the expiry calendar).
  std::size_t ApproxBytes() const {
    std::size_t n = covered_.capacity_bytes() + expiry_.ApproxBytes();
    for (const auto& [key, ivs] : covered_) {
      (void)key;
      n += ivs.overflow_bytes();
    }
    return n;
  }

  /// \brief Checkpoint encoding (model/checkpoint.h): keys in sorted order
  /// (deterministic bytes), per-key interval lists verbatim. Suppression
  /// decisions depend only on per-key coverage, never on map layout, so
  /// re-inserting on restore reproduces identical Offer() behavior. The
  /// calendar is not serialized: restore registers one hint per key, at
  /// its earliest expiry, in sorted key order.
  void SerializeState(PayloadOut* out) const;

  /// \brief Rebuilds coverage from SerializeState bytes; requires an empty
  /// coalescer (freshly built restore topology). Rejects a key without
  /// intervals and interval lists that are not non-empty, sorted and
  /// disjoint — the shape Offer maintains and PurgeBefore relies on.
  Status DeserializeState(ByteReader* in);

 private:
  // Per key: disjoint covered intervals, sorted by ts (hence by expiry),
  // with one interval inline. Nearly every key holds one interval
  // (bench_sgq, seed 1: every key of 20 so-paper state samples, and 92 of
  // 1.29 M sampled so-deletes keys held more), so the whole entry (key +
  // coverage) lives in one 40-B flat-map slot (hot path: one Offer per
  // candidate result). A key with more intervals keeps them in one heap
  // block, which ApproxBytes counts.
  using Coverage = SmallVec<Interval, 1>;
#if defined(__LP64__) || defined(_LP64)
  static_assert(sizeof(std::pair<EdgeRef, Coverage>) == 40,
                "coalescer slot: key, one interval inline, size, capacity");
#endif

  FlatMap<EdgeRef, Coverage, EdgeRefHash> covered_;
  ExpiryCalendar<EdgeRef> expiry_;
};

/// \brief Restricts a stream to the tuples valid at instant `t` and returns
/// their distinguished edges; deletions remove previously added edges.
/// This is the snapshot mapping tau_t (Def. 12) on value level.
std::vector<EdgeRef> SnapshotEdges(const SgtStream& stream, Timestamp t);

}  // namespace sgq

#endif  // SGQ_MODEL_COALESCE_H_
