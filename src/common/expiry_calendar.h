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
// An owner may instead hint a *group* of entries once, at the group's
// earliest expiry (PATTERN hints each join bucket this way, DESIGN.md
// "Expiry calendars"): the drain hands the callback each hint's
// registered expiry, so the owner tells its one live hint from stale
// ones by comparing it with the expiry it recorded.

#ifndef SGQ_COMMON_EXPIRY_CALENDAR_H_
#define SGQ_COMMON_EXPIRY_CALENDAR_H_

#include <algorithm>
#include <cstddef>
#include <queue>
#include <vector>

#include "common/flat_map.h"
#include "model/types.h"

namespace sgq {

/// \brief Bucketed expiry index. `Hint` is a small trivially-copyable
/// locator (a map key, a (root, node) pair) the drain callback uses to
/// find the live entry.
template <typename Hint>
class ExpiryCalendar {
 public:
  /// \brief Sets the bucket granularity (the window slide). Existing
  /// hints are re-bucketed; typically called once, before streaming,
  /// when the executor fixes the engine's slide. Slide 1 (the default)
  /// is always correct — one bucket per distinct expiry instant.
  void ConfigureSlide(Timestamp slide) {
    if (slide <= 0 || slide == slide_) return;
    std::vector<Entry> all;
    all.reserve(num_hints_);
    for (auto& [bucket, data] : buckets_) {
      (void)bucket;
      all.insert(all.end(), data.entries.begin(), data.entries.end());
    }
    buckets_.clear();
    heap_ = {};
    num_hints_ = 0;
    slide_ = slide;
    for (const Entry& e : all) Add(e.exp, e.hint);
  }

  Timestamp slide() const { return slide_; }

  /// \brief Registers `hint` for an entry expiring at `exp`. Entries that
  /// never expire (kMaxTimestamp) are not tracked.
  void Add(Timestamp exp, const Hint& hint) {
    if (exp == kMaxTimestamp) return;
    const Timestamp bucket = exp / slide_;
    auto [it, inserted] = buckets_.try_emplace(bucket);
    if (inserted) {
      heap_.push(bucket);
      it->second.min_exp = exp;
    } else if (exp < it->second.min_exp) {
      it->second.min_exp = exp;
    }
    it->second.entries.push_back(Entry{exp, hint});
    ++num_hints_;
  }

  /// \brief True when a time advance to `now` has hints to drain. O(1):
  /// buckets are checked by their tracked earliest expiry (bucket order
  /// implies min-expiry order), so a bucket whose time range has started
  /// but whose earliest entry is still in the future triggers nothing.
  bool AnyDue(Timestamp now) const {
    if (heap_.empty()) return false;
    const auto it = buckets_.find(heap_.top());
    return it != buckets_.end() && it->second.min_exp <= now;
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
    if (!AnyDue(now)) return;
    drain_scratch_.clear();
    while (!heap_.empty()) {
      const Timestamp bucket = heap_.top();
      auto it = buckets_.find(bucket);
      if (it == buckets_.end()) {  // defensive; buckets outlive heap ids
        heap_.pop();
        continue;
      }
      if (it->second.min_exp > now) break;
      heap_.pop();
      num_hints_ -= it->second.entries.size();
      drain_scratch_.push_back(std::move(it->second.entries));
      buckets_.erase(it);
    }
    for (const std::vector<Entry>& bucket : drain_scratch_) {
      for (const Entry& e : bucket) {
        ++hints_drained_;
        fn(e.exp, e.hint);
      }
    }
    drain_scratch_.clear();
  }

  void Clear() {
    buckets_.clear();
    heap_ = {};
    num_hints_ = 0;
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
  /// num_hints); the heap is rebuilt with the same id set, and its pop
  /// order depends only on the ids.
  template <typename Fn>
  void VisitEntries(Fn&& fn) const {
    std::vector<Timestamp> ids;
    ids.reserve(buckets_.size());
    for (const auto& [bucket, data] : buckets_) {
      (void)data;
      ids.push_back(bucket);
    }
    std::sort(ids.begin(), ids.end());
    for (const Timestamp bucket : ids) {
      const auto it = buckets_.find(bucket);
      for (const Entry& e : it->second.entries) fn(e.exp, e.hint);
    }
  }

  /// \brief Approximate resident bytes (bucket map + hint vectors).
  std::size_t ApproxBytes() const {
    std::size_t n = buckets_.capacity_bytes();
    for (const auto& [bucket, data] : buckets_) {
      (void)bucket;
      n += data.entries.capacity() * sizeof(Entry);
    }
    return n;
  }

 private:
  struct Entry {
    Timestamp exp;
    Hint hint;
  };
  struct Bucket {
    Timestamp min_exp = kMaxTimestamp;
    std::vector<Entry> entries;
  };

  Timestamp slide_ = 1;
  FlatMap<Timestamp, Bucket> buckets_;
  /// Min-heap of bucket ids with content (no duplicates: pushed only when
  /// the bucket is created).
  std::priority_queue<Timestamp, std::vector<Timestamp>,
                      std::greater<Timestamp>>
      heap_;
  std::size_t num_hints_ = 0;
  std::size_t hints_drained_ = 0;
  std::vector<std::vector<Entry>> drain_scratch_;
};

}  // namespace sgq

#endif  // SGQ_COMMON_EXPIRY_CALENDAR_H_
