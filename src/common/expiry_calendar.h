// Slide-aligned expiry calendar: the bucketed index that makes window
// expiry O(expiring bucket) instead of O(total state).
//
// Stateful operators used to find expired entries by re-scanning their
// whole state at each purge, guarded only by a min-expiry lower bound —
// exactly the structure the paper's evaluation blames for tail latency
// under high-rate sliding windows. The calendar replaces the scan: every
// entry registers a *hint* in the bucket exp / slide at insertion (and
// re-registers whenever its expiry changes), and a time advance to `now`
// drains only the buckets whose time range has passed.
//
// Hints are hints, not ownership: the entry's live container remains the
// source of truth. A drained hint may be stale (the entry was deleted,
// re-derived, or its expiry moved), so the drain callback re-checks the
// live entry and acts only when it really expired. The invariant that
// makes the drain complete is:
//
//   every live entry with finite expiry `exp` has a hint in bucket
//   exp / slide of the calendar.
//
// Maintained by: registering on insert, re-registering on every expiry
// change, and — because draining bucket now/slide may pop hints for
// entries that expire later within the same bucket — re-registering
// survivors for which NeedsReAdd(exp, now) holds during the drain.
// Stale duplicates cost one extra verification each and never accumulate.
//
// An owner may instead hint a *group* of entries at the group's earliest
// expiry (DESIGN.md "Expiry calendars"). PATTERN hints each join bucket
// once: the drain hands the callback each hint's registered expiry, so
// the owner tells its one live hint from stale ones by comparing it with
// the expiry it recorded. The streaming coalescer hints each key's
// interval list without such a record and verifies every hint against
// the key's live coverage instead.

#ifndef SGQ_COMMON_EXPIRY_CALENDAR_H_
#define SGQ_COMMON_EXPIRY_CALENDAR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/page_allocator.h"
#include "model/types.h"

namespace sgq {

/// \brief Bucketed expiry index. `Hint` is a small trivially-copyable
/// locator (a map key, a (root, node) pair) the drain callback uses to
/// find the live entry.
///
/// Buckets live in one vector sorted by bucket id. Expiries are window
/// bounded, so a calendar holds about window / slide buckets, and new
/// hints mostly land in the newest one: Add checks the last bucket
/// before a binary search, AnyDue reads the first live bucket, and a
/// drain advances past a prefix (compacted once the drained prefix is
/// as long as the live part) — no hashing anywhere, and a small calendar
/// costs a few dozen bytes per bucket.
template <typename Hint>
class ExpiryCalendar {
 public:
  /// \brief Sets the bucket granularity (the window slide). Existing
  /// hints are re-bucketed; typically called once, before streaming,
  /// when the executor fixes the engine's slide. Slide 1 (the default)
  /// is always correct — one bucket per distinct expiry instant.
  void ConfigureSlide(Timestamp slide) {
    if (slide <= 0 || slide == slide_) return;
    if (num_hints_ == 0) {
      Clear();
      slide_ = slide;
      return;
    }
    std::vector<Entry> all;
    all.reserve(num_hints_);
    for (std::size_t i = head_; i < buckets_.size(); ++i) {
      all.insert(all.end(), buckets_[i].entries.begin(),
                 buckets_[i].entries.end());
    }
    Clear();
    slide_ = slide;
    for (const Entry& e : all) Add(e.exp, e.hint);
  }

  Timestamp slide() const { return slide_; }

  /// \brief Registers `hint` for an entry expiring at `exp`. Entries that
  /// never expire (kMaxTimestamp) are not tracked.
  void Add(Timestamp exp, const Hint& hint) {
    if (exp == kMaxTimestamp) return;
    Bucket& b = BucketFor(exp / slide_);
    b.min_exp = std::min(b.min_exp, exp);
    b.entries.push_back(Entry{exp, hint});
    ++num_hints_;
  }

  /// \brief True when a time advance to `now` has hints to drain. O(1):
  /// buckets are checked by their tracked earliest expiry (bucket order
  /// implies min-expiry order), so a bucket whose time range has started
  /// but whose earliest entry is still in the future triggers nothing.
  bool AnyDue(Timestamp now) const {
    return head_ < buckets_.size() && buckets_[head_].min_exp <= now;
  }

  /// \brief True when a surviving entry seen during a drain at `now` must
  /// re-register: its expiry lies in the bucket being drained, so its
  /// hint was just popped.
  bool NeedsReAdd(Timestamp exp, Timestamp now) const {
    return exp > now && exp != kMaxTimestamp &&
           exp / slide_ == now / slide_;
  }

  /// \brief Pops every due bucket and calls `fn(exp, hint)` for each
  /// hint, with the expiry it was registered at, in bucket order then
  /// registration order (deterministic). `fn` must re-check the live entry
  /// (hints may be stale) and may call Add — including, via NeedsReAdd,
  /// for survivors in the current bucket; buckets created during the
  /// drain are not drained again in this call.
  template <typename Fn>
  void DrainDue(Timestamp now, Fn&& fn) {
    // min_exp grows with the bucket id, so the due buckets are a prefix
    // of the live ones.
    std::size_t end = head_;
    while (end < buckets_.size() && buckets_[end].min_exp <= now) {
      num_hints_ -= buckets_[end].entries.size();
      drain_scratch_.push_back(std::move(buckets_[end].entries));
      ++end;
    }
    if (end == head_) return;
    head_ = end;
    if (head_ == buckets_.size()) {
      buckets_.clear();
      head_ = 0;
    } else if (2 * head_ >= buckets_.size()) {
      buckets_.erase(buckets_.begin(), buckets_.begin() + head_);
      head_ = 0;
    }
    // Callbacks may Add, so the popped buckets are drained from scratch.
    for (Entries& bucket : drain_scratch_) {
      for (const Entry& e : bucket) {
        ++hints_drained_;
        fn(e.exp, e.hint);
      }
      if (spare_.capacity() == 0 && bucket.capacity() <= kMaxSpareEntries) {
        bucket.clear();
        spare_.swap(bucket);
      }
    }
    drain_scratch_.clear();
  }

  void Clear() {
    buckets_.clear();
    head_ = 0;
    num_hints_ = 0;
    spare_ = {};
  }

  std::size_t num_hints() const { return num_hints_; }

  /// \brief Total hints ever passed to a drain callback (diagnostics; the
  /// O(expiring bucket) tests assert this stays 0 while nothing is due).
  std::size_t hints_drained() const { return hints_drained_; }

  /// \brief Visits every pending hint as `fn(exp, hint)`, buckets in
  /// ascending id order and entries within a bucket in registration
  /// order — exactly DrainDue's delivery order. Checkpointing
  /// (model/checkpoint.h) replays Add(exp, hint) in visit order into a
  /// Clear()'d calendar with the same slide, which reconstructs an
  /// identical drain schedule (bucket ids, min_exp, entry order,
  /// num_hints).
  template <typename Fn>
  void VisitEntries(Fn&& fn) const {
    for (std::size_t i = head_; i < buckets_.size(); ++i) {
      for (const Entry& e : buckets_[i].entries) fn(e.exp, e.hint);
    }
  }

  /// \brief Approximate resident bytes (bucket vector + hint vectors).
  std::size_t ApproxBytes() const {
    std::size_t n = buckets_.capacity() * sizeof(Bucket);
    for (std::size_t i = head_; i < buckets_.size(); ++i) {
      n += buckets_[i].entries.capacity() * sizeof(Entry);
    }
    return n + spare_.capacity() * sizeof(Entry);
  }

 private:
  struct Entry {
    Timestamp exp;
    Hint hint;
  };
  /// A bucket's hints. A bucket of a large table's calendar can hold
  /// MBs; page-mapped (common/page_allocator.h), it leaves the process
  /// when drained.
  using Entries = std::vector<Entry, PageAllocator<Entry>>;
  struct Bucket {
    Timestamp id;
    Timestamp min_exp;
    Entries entries;
  };
  /// A drained bucket's vector (cleared, capacity intact) is kept as the
  /// spare for the next bucket created: a steady slide drains about one
  /// bucket per boundary and opens about one, so one small spare stops
  /// the per-slide reallocation of the many small calendars (one per
  /// coalescer) without holding on to a large calendar's capacity.
  static constexpr std::size_t kMaxSpareEntries = 64;

  /// The bucket with id `id`, created (empty) in sorted position if
  /// absent. New hints mostly go to the newest bucket, so it is checked
  /// first.
  Bucket& BucketFor(Timestamp id) {
    const bool live = head_ < buckets_.size();
    if (live && buckets_.back().id == id) return buckets_.back();
    auto pos = buckets_.end();
    if (live && id < buckets_.back().id) {
      pos = std::lower_bound(
          buckets_.begin() + static_cast<std::ptrdiff_t>(head_),
          buckets_.end(), id,
          [](const Bucket& b, Timestamp key) { return b.id < key; });
      if (pos->id == id) return *pos;
    }
    Bucket fresh{id, kMaxTimestamp, {}};
    fresh.entries.swap(spare_);  // a drained bucket's capacity, reused
    if (head_ > 0 && pos == buckets_.begin() + static_cast<std::ptrdiff_t>(
                                                   head_)) {
      --head_;  // a new first bucket reuses the drained slot before it
      buckets_[head_] = std::move(fresh);
      return buckets_[head_];
    }
    return *buckets_.insert(pos, std::move(fresh));
  }

  Timestamp slide_ = 1;
  /// buckets_[head_..] are the buckets with at least one hint, ascending
  /// by id (hence by min_exp); buckets_[..head_) were drained and await
  /// compaction.
  std::vector<Bucket> buckets_;
  std::size_t head_ = 0;
  std::size_t num_hints_ = 0;
  std::size_t hints_drained_ = 0;
  std::vector<Entries> drain_scratch_;
  Entries spare_;
};

}  // namespace sgq

#endif  // SGQ_COMMON_EXPIRY_CALENDAR_H_
