#include "model/coalesce.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace sgq {

Payload KeepLastExpiringPayload(const std::vector<const Payload*>& payloads,
                                const std::vector<Interval>& intervals) {
  SGQ_CHECK(!payloads.empty());
  SGQ_CHECK_EQ(payloads.size(), intervals.size());
  std::size_t best = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].exp > intervals[best].exp) best = i;
  }
  return *payloads[best];
}

std::vector<Sgt> Coalesce(const std::vector<Sgt>& tuples) {
  // Group indexes by distinguished triple.
  std::unordered_map<EdgeRef, std::vector<std::size_t>, EdgeRefHash> groups;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    groups[tuples[i].edge()].push_back(i);
  }
  // Deterministic output: process keys in sorted order.
  std::vector<EdgeRef> keys;
  keys.reserve(groups.size());
  for (const auto& [key, _] : groups) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  std::vector<Sgt> out;
  for (const EdgeRef& key : keys) {
    std::vector<std::size_t>& idx = groups[key];
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return tuples[a].validity.ts < tuples[b].validity.ts;
    });
    // Sweep: merge maximal runs of overlapping/adjacent intervals.
    std::size_t run_start = 0;
    while (run_start < idx.size()) {
      Interval merged = tuples[idx[run_start]].validity;
      std::vector<const Payload*> payloads = {
          &tuples[idx[run_start]].payload};
      std::vector<Interval> intervals = {merged};
      std::size_t next = run_start + 1;
      while (next < idx.size() &&
             tuples[idx[next]].validity.ts <= merged.exp) {
        merged = merged.Span(tuples[idx[next]].validity);
        payloads.push_back(&tuples[idx[next]].payload);
        intervals.push_back(tuples[idx[next]].validity);
        ++next;
      }
      out.emplace_back(key.src, key.trg, key.label, merged,
                       KeepLastExpiringPayload(payloads, intervals));
      run_start = next;
    }
  }
  return out;
}

bool StreamingCoalescer::Offer(const Sgt& t) {
  if (t.is_deletion) return true;  // deletions pass through unconsolidated
  if (t.validity.Empty()) return false;
  Coverage& ivs = covered_[t.edge()];

  // Fast path: the common case is an interval touching the last recorded
  // one (results for a key arrive with non-decreasing start).
  if (!ivs.empty()) {
    Interval& last = ivs.back();
    if (last.ts <= t.validity.ts) {
      if (t.validity.exp <= last.exp) return false;  // covered: suppress
      if (t.validity.ts <= last.exp) {
        last.exp = t.validity.exp;  // extend in place
        return true;
      }
      ivs.push_back(t.validity);  // disjoint, later
      return true;
    }
  }

  // General case: binary search for the insertion point, then splice.
  std::size_t lo = static_cast<std::size_t>(
      std::lower_bound(
          ivs.begin(), ivs.end(), t.validity,
          [](const Interval& a, const Interval& b) { return a.ts < b.ts; }) -
      ivs.begin());
  if (lo > 0 && ivs[lo - 1].exp >= t.validity.ts) --lo;
  if (lo < ivs.size() && ivs[lo].ts <= t.validity.ts &&
      t.validity.exp <= ivs[lo].exp) {
    return false;  // fully covered
  }
  // The earliest expiry before the splice (none for a new key): a new
  // key, or an interval spliced in first, may expire before every hint.
  const Timestamp earliest = ivs.empty() ? kMaxTimestamp : ivs[0].exp;
  Timestamp ts = t.validity.ts;
  Timestamp exp = t.validity.exp;
  std::size_t hi = lo;
  while (hi < ivs.size() && ivs[hi].ts <= exp) {
    ts = std::min(ts, ivs[hi].ts);
    exp = std::max(exp, ivs[hi].exp);
    ++hi;
  }
  ivs.erase_range(lo, hi);
  ivs.insert_at(lo, Interval(ts, exp));
  if (ivs[0].exp < earliest) expiry_.Add(ivs[0].exp, t.edge());
  return true;
}

void StreamingCoalescer::Forget(const EdgeRef& key, Timestamp from) {
  auto it = covered_.find(key);
  if (it == covered_.end()) return;
  Coverage& ivs = it->second;
  const Timestamp earliest = ivs[0].exp;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    Interval iv = ivs[i];
    iv.exp = std::min(iv.exp, from);
    if (!iv.Empty()) ivs[keep++] = iv;
  }
  ivs.erase_range(keep, ivs.size());
  if (ivs.empty()) {
    covered_.erase(it);
    return;
  }
  // The truncated key must still leave at its (now earlier) expiry.
  if (ivs[0].exp < earliest) expiry_.Add(ivs[0].exp, key);
}

void StreamingCoalescer::SerializeState(PayloadOut* out) const {
  std::vector<EdgeRef> keys;
  keys.reserve(covered_.size());
  for (const auto& [key, ivs] : covered_) {
    (void)ivs;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  PutU64(out, keys.size());
  for (const EdgeRef& key : keys) {
    const auto it = covered_.find(key);
    PutVertex(out, key.src);
    PutVertex(out, key.trg);
    PutU32(out, key.label);
    const Coverage& ivs = it->second;
    PutU32(out, static_cast<std::uint32_t>(ivs.size()));
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      PutI64(out, ivs[i].ts);
      PutI64(out, ivs[i].exp);
    }
  }
}

Status StreamingCoalescer::DeserializeState(ByteReader* in) {
  if (!covered_.empty()) {
    return in->Fail("coalescer not empty before restore");
  }
  const std::uint64_t num_keys = in->U64();
  // A key is at least src, trg, label, count and one interval.
  covered_.reserve(in->ReserveBound(num_keys, 8 + 8 + 4 + 4 + 16));
  for (std::uint64_t k = 0; k < num_keys && in->ok(); ++k) {
    EdgeRef key;
    key.src = in->Vertex();
    key.trg = in->Vertex();
    key.label = in->U32();
    const std::uint32_t n = in->U32();
    if (!in->ok()) break;
    if (n == 0) return in->Fail("coalescer key without coverage");
    auto [it, inserted] = covered_.try_emplace(key);
    if (!inserted) return in->Fail("duplicate coalescer key");
    Coverage& ivs = it->second;
    for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
      Interval iv;
      iv.ts = in->I64();
      iv.exp = in->I64();
      if (!in->ok()) break;
      if (iv.Empty() || (!ivs.empty() && iv.ts <= ivs.back().exp)) {
        return in->Fail("coalescer intervals not sorted and disjoint");
      }
      ivs.push_back(iv);
    }
    if (!in->ok()) break;
    expiry_.Add(ivs[0].exp, key);
  }
  return in->status();
}

void StreamingCoalescer::PurgeBefore(Timestamp t) {
  expiry_.DrainDue(t, [&](Timestamp /*exp*/, const EdgeRef& key) {
    auto it = covered_.find(key);
    if (it == covered_.end()) return;  // stale hint: the key is gone
    Coverage& ivs = it->second;
    // Sorted disjoint intervals expire in order: drop the expired prefix.
    std::size_t expired = 0;
    while (expired < ivs.size() && ivs[expired].exp <= t) ++expired;
    if (expired == ivs.size()) {
      covered_.erase(it);
      return;
    }
    ivs.erase_range(0, expired);
    // This drain consumed a hint: re-register at the earliest expiry.
    expiry_.Add(ivs[0].exp, key);
  });
  covered_.ShrinkToFit();
}

std::vector<EdgeRef> SnapshotEdges(const SgtStream& stream, Timestamp t) {
  // An explicit deletion at instant td truncates the validity of all prior
  // value-equivalent insertions to end no later than td (§3.2, [39]).
  std::unordered_map<EdgeRef, std::vector<Interval>, EdgeRefHash> intervals;
  for (const Sgt& sgt : stream) {
    if (sgt.is_deletion) {
      auto it = intervals.find(sgt.edge());
      if (it == intervals.end()) continue;
      for (Interval& iv : it->second) {
        iv.exp = std::min(iv.exp, sgt.validity.ts);
      }
    } else {
      intervals[sgt.edge()].push_back(sgt.validity);
    }
  }
  std::set<EdgeRef> live;
  for (const auto& [edge, ivs] : intervals) {
    for (const Interval& iv : ivs) {
      if (iv.Contains(t)) {
        live.insert(edge);
        break;
      }
    }
  }
  return std::vector<EdgeRef>(live.begin(), live.end());
}

}  // namespace sgq
