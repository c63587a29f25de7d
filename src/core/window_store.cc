#include "core/window_store.h"

#include <algorithm>

namespace sgq {

namespace {
const WindowEdgeStore::EdgeRun kNoEdges;

using AdjKey = std::pair<VertexId, LabelId>;

/// Serializes one adjacency map: keys sorted (deterministic checkpoint
/// bytes), per-key runs verbatim (probe order is run order).
template <typename Adjacency>
void SerializeAdjacency(const Adjacency& adj, PayloadOut* out) {
  std::vector<AdjKey> keys;
  keys.reserve(adj.size());
  for (const auto& [key, edges] : adj) {
    (void)edges;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  PutU64(out, keys.size());
  for (const AdjKey& key : keys) {
    const auto it = adj.find(key);
    PutVertex(out, key.first);
    PutU32(out, key.second);
    const auto& edges = it->second;
    PutU32(out, static_cast<std::uint32_t>(edges.size()));
    for (const StoredEdge& e : edges) {
      PutVertex(out, e.trg);
      PutI64(out, e.validity.ts);
      PutI64(out, e.validity.exp);
    }
  }
}

template <typename Adjacency>
Status DeserializeAdjacency(Adjacency* adj, SlabPool* pool, ByteReader* in) {
  const std::uint64_t num_keys = in->U64();
  // A key is at least vertex, label and run length.
  adj->reserve(in->ReserveBound(num_keys, 8 + 4 + 4));
  for (std::uint64_t k = 0; k < num_keys && in->ok(); ++k) {
    const VertexId vertex = in->Vertex();
    const LabelId label = in->U32();
    const std::uint32_t n = in->U32();
    if (!in->ok()) break;
    auto& edges = (*adj)[{vertex, label}];
    for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
      StoredEdge e;
      e.trg = in->Vertex();
      e.validity.ts = in->I64();
      e.validity.exp = in->I64();
      edges.push_back(pool, e);
    }
  }
  return in->status();
}

}  // namespace

void WindowEdgeStore::InsertInto(Adjacency* adj, SlabPool* pool,
                                 VertexId key_vertex, VertexId other,
                                 LabelId label, Interval iv) {
  EdgeRun& edges = (*adj)[{key_vertex, label}];
  for (StoredEdge& e : edges) {
    if (e.trg == other && e.validity.OverlapsOrAdjacent(iv)) {
      e.validity = e.validity.Span(iv);
      return;
    }
  }
  edges.push_back(pool, StoredEdge{other, iv});
}

void WindowEdgeStore::Insert(VertexId src, VertexId trg, LabelId label,
                             Interval iv) {
  if (iv.Empty()) return;
  EdgeRun& edges = adjacency_[{src, label}];
  Timestamp entry_exp = iv.exp;
  bool register_hint = true;
  bool coalesced = false;
  for (StoredEdge& e : edges) {
    if (e.trg == trg && e.validity.OverlapsOrAdjacent(iv)) {
      const Timestamp old_exp = e.validity.exp;
      e.validity = e.validity.Span(iv);
      entry_exp = e.validity.exp;
      // The entry already has a hint at old_exp; only an extended expiry
      // needs a fresh registration.
      register_hint = entry_exp > old_exp;
      coalesced = true;
      break;
    }
  }
  if (!coalesced) {
    edges.push_back(&pool_, StoredEdge{trg, iv});
    ++num_entries_;
  }
  if (in_index_enabled_) {
    InsertInto(&in_adjacency_, &in_pool_, trg, src, label, iv);
  }
  if (register_hint) calendar_.Add(entry_exp, {src, label});
}

bool WindowEdgeStore::DeleteAt(VertexId src, VertexId trg, LabelId label,
                               Timestamp t) {
  auto it = adjacency_.find({src, label});
  if (it == adjacency_.end()) return false;
  bool affected = false;
  EdgeRun& edges = it->second;
  for (std::size_t i = 0; i < edges.size();) {
    StoredEdge& e = edges[i];
    if (e.trg == trg && e.validity.exp > t) {
      affected = true;
      e.validity.exp = t;
      if (e.validity.Empty()) {
        edges.erase_at(i);
        --num_entries_;
        continue;
      }
      // Truncated but alive: its old hint is late; register the new exp.
      calendar_.Add(t, {src, label});
    }
    ++i;
  }
  if (edges.empty()) {
    edges.Release(&pool_);
    adjacency_.erase(it);
  }
  if (affected && in_index_enabled_) {
    auto rit = in_adjacency_.find({trg, label});
    if (rit != in_adjacency_.end()) {
      EdgeRun& redges = rit->second;
      for (std::size_t i = 0; i < redges.size();) {
        StoredEdge& e = redges[i];
        if (e.trg == src && e.validity.exp > t) {
          e.validity.exp = t;
          if (e.validity.Empty()) {
            redges.erase_at(i);
            continue;
          }
        }
        ++i;
      }
      if (redges.empty()) {
        redges.Release(&in_pool_);
        in_adjacency_.erase(rit);
      }
    }
  }
  return affected;
}

std::size_t WindowEdgeStore::RemoveValue(VertexId src, VertexId trg,
                                         LabelId label) {
  auto it = adjacency_.find({src, label});
  if (it == adjacency_.end()) return 0;
  EdgeRun& edges = it->second;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < edges.size();) {
    if (edges[i].trg == trg) {
      edges.erase_at(i);
      --num_entries_;
      ++removed;
    } else {
      ++i;
    }
  }
  if (edges.empty()) {
    edges.Release(&pool_);
    adjacency_.erase(it);
  }
  if (removed > 0 && in_index_enabled_) {
    auto rit = in_adjacency_.find({trg, label});
    if (rit != in_adjacency_.end()) {
      EdgeRun& redges = rit->second;
      for (std::size_t i = 0; i < redges.size();) {
        if (redges[i].trg == src) {
          redges.erase_at(i);
        } else {
          ++i;
        }
      }
      if (redges.empty()) {
        redges.Release(&in_pool_);
        in_adjacency_.erase(rit);
      }
    }
  }
  return removed;
}

const WindowEdgeStore::EdgeRun& WindowEdgeStore::OutEdges(
    VertexId src, LabelId label) const {
  auto it = adjacency_.find({src, label});
  return it == adjacency_.end() ? kNoEdges : it->second;
}

const WindowEdgeStore::EdgeRun& WindowEdgeStore::InEdges(
    VertexId trg, LabelId label) const {
  auto it = in_adjacency_.find({trg, label});
  return it == in_adjacency_.end() ? kNoEdges : it->second;
}

void WindowEdgeStore::EnableInIndex() {
  if (in_index_enabled_) return;
  in_index_enabled_ = true;
  in_adjacency_.clear();
  for (const auto& [key, edges] : adjacency_) {
    for (const StoredEdge& e : edges) {
      InsertInto(&in_adjacency_, &in_pool_, e.trg, key.first, key.second,
                 e.validity);
    }
  }
}

void WindowEdgeStore::RemoveFromInIndex(VertexId key_vertex, VertexId other,
                                        LabelId label, const Interval& iv) {
  auto rit = in_adjacency_.find({key_vertex, label});
  if (rit == in_adjacency_.end()) return;
  EdgeRun& redges = rit->second;
  for (std::size_t i = 0; i < redges.size(); ++i) {
    if (redges[i].trg == other && redges[i].validity == iv) {
      redges.erase_at(i);
      break;
    }
  }
  if (redges.empty()) {
    redges.Release(&in_pool_);
    in_adjacency_.erase(rit);
  }
}

void WindowEdgeStore::SerializeState(PayloadOut* out) const {
  PutU8(out, in_index_enabled_ ? 1 : 0);
  PutU64(out, num_entries_);
  SerializeAdjacency(adjacency_, out);
  SerializeAdjacency(in_adjacency_, out);
  PutU64(out, calendar_.num_hints());
  calendar_.VisitEntries([&](Timestamp exp, const Key& key) {
    PutI64(out, exp);
    PutVertex(out, key.first);
    PutU32(out, key.second);
  });
}

Status WindowEdgeStore::DeserializeState(ByteReader* in) {
  if (num_entries_ != 0 || !adjacency_.empty()) {
    return in->Fail("window store not empty before restore");
  }
  // The reverse-index flag is runtime state, not topology: PATH
  // consumers enable it lazily on the first delete/re-derive
  // (path_base.cc), so a snapshot may carry it either way regardless of
  // the plan. Adopt the snapshot's flag — its in_adjacency_ content (the
  // original run's exact insertion history) comes along verbatim.
  const bool in_index = in->U8() != 0;
  const std::uint64_t num_entries = in->U64();
  SGQ_RETURN_NOT_OK(DeserializeAdjacency(&adjacency_, &pool_, in));
  SGQ_RETURN_NOT_OK(DeserializeAdjacency(&in_adjacency_, &in_pool_, in));
  num_entries_ = num_entries;
  if (in_index) {
    in_index_enabled_ = true;
  } else if (in_index_enabled_) {
    // A build-time consumer (PATTERN in-probe) enabled the index on this
    // fresh store but the snapshot predates any content for it: re-index
    // the restored window exactly as EnableInIndex would have at build
    // time. (Unreachable from a same-plan snapshot — PATTERN enables the
    // index before any edge flows — but kept for safety.)
    in_index_enabled_ = false;
    EnableInIndex();
  }
  const std::uint64_t num_hints = in->U64();
  for (std::uint64_t i = 0; i < num_hints && in->ok(); ++i) {
    const Timestamp exp = in->I64();
    const VertexId vertex = in->Vertex();
    const LabelId label = in->U32();
    calendar_.Add(exp, {vertex, label});
  }
  return in->status();
}

std::size_t WindowEdgeStore::PurgeExpired(Timestamp now) {
  std::size_t dropped = 0;
  calendar_.DrainDue(now, [&](Timestamp /*exp*/, const Key& key) {
    auto it = adjacency_.find(key);
    if (it == adjacency_.end()) return;  // stale hint: entries are gone
    EdgeRun& edges = it->second;
    for (std::size_t i = 0; i < edges.size();) {
      const StoredEdge& e = edges[i];
      if (e.validity.exp <= now) {
        ++dropped;
        if (in_index_enabled_) {
          RemoveFromInIndex(e.trg, key.first, key.second, e.validity);
        }
        edges.erase_at(i);
        --num_entries_;
      } else {
        // The hint for a survivor expiring within the drained bucket was
        // just popped; re-register it (calendar invariant).
        if (calendar_.NeedsReAdd(e.validity.exp, now)) {
          calendar_.Add(e.validity.exp, key);
        }
        ++i;
      }
    }
    if (edges.empty()) {
      edges.Release(&pool_);
      adjacency_.erase(it);
    }
  });
  adjacency_.ShrinkToFit();
  in_adjacency_.ShrinkToFit();
  return dropped;
}

}  // namespace sgq
