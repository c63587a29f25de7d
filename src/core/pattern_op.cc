#include "core/pattern_op.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace sgq {

PatternOp::PatternOp(const LogicalOp& pattern,
                     std::vector<PatternPortState> port_state) {
  SGQ_CHECK(pattern.kind == LogicalOpKind::kPattern);
  num_ports_ = static_cast<int>(pattern.child_vars.size());
  out_label_ = pattern.output_label;

  // Assign dense indexes to variables in order of first appearance.
  FlatMap<std::string, int> var_index;
  auto index_of = [&](const std::string& name) {
    auto [it, inserted] =
        var_index.try_emplace(name, static_cast<int>(var_index.size()));
    (void)inserted;
    return it->second;
  };
  for (const auto& [src, trg] : pattern.child_vars) {
    port_vars_.emplace_back(index_of(src), index_of(trg));
  }
  out_src_var_ = index_of(pattern.out_src_var);
  out_trg_var_ = index_of(pattern.out_trg_var);
  num_vars_ = var_index.size();

  // Level j joins acc(ports 0..j) with port j+1 on their shared variables.
  std::set<int> acc_vars = {port_vars_[0].first, port_vars_[0].second};
  for (int p = 1; p < num_ports_; ++p) {
    Level level;
    for (int v : {port_vars_[p].first, port_vars_[p].second}) {
      if (acc_vars.count(v) > 0) level.key_vars.push_back(v);
    }
    std::sort(level.key_vars.begin(), level.key_vars.end());
    level.key_vars.erase(
        std::unique(level.key_vars.begin(), level.key_vars.end()),
        level.key_vars.end());

    // Move the port's single-atom state into the runtime WindowStore when
    // a partition was provided, the port's label is static, and the level
    // has a join key to probe the index with.
    if (static_cast<std::size_t>(p) < port_state.size() &&
        port_state[static_cast<std::size_t>(p)].store != nullptr &&
        port_state[static_cast<std::size_t>(p)].label != kInvalidLabel &&
        !level.key_vars.empty()) {
      level.store = port_state[static_cast<std::size_t>(p)].store;
      level.store_label = port_state[static_cast<std::size_t>(p)].label;
      const auto& [sv, tv] = port_vars_[static_cast<std::size_t>(p)];
      const bool has_src =
          std::binary_search(level.key_vars.begin(), level.key_vars.end(),
                             sv);
      const bool has_trg =
          std::binary_search(level.key_vars.begin(), level.key_vars.end(),
                             tv);
      if (has_src && has_trg) {
        level.probe = ProbeKind::kOutFiltered;
      } else if (has_src) {
        level.probe = ProbeKind::kOut;
      } else {
        level.probe = ProbeKind::kIn;
        level.store->EnableInIndex();
      }
    }

    levels_.push_back(std::move(level));
    acc_vars.insert(port_vars_[p].first);
    acc_vars.insert(port_vars_[p].second);
  }
}

bool PatternOp::BindPort(int port, const Sgt& tuple, Binding* out) const {
  const auto& [src_var, trg_var] = port_vars_[port];
  if (src_var == trg_var && tuple.src != tuple.trg) return false;
  out->vals.assign(num_vars_, kInvalidVertex);
  out->vals[static_cast<std::size_t>(src_var)] = tuple.src;
  out->vals[static_cast<std::size_t>(trg_var)] = tuple.trg;
  out->iv = tuple.validity;
  return true;
}

PatternOp::Key PatternOp::ExtractKey(const Level& level,
                                     const Binding& b) const {
  Key key;
  for (int v : level.key_vars) {
    key.push_back(b.vals[static_cast<std::size_t>(v)]);
  }
  return key;
}

template <typename Fn>
void PatternOp::ForEachRightMatch(std::size_t level_idx, const Key& key,
                                  Fn&& fn) const {
  const Level& lv = levels_[level_idx];
  const int port = static_cast<int>(level_idx) + 1;
  if (lv.store == nullptr) {
    auto it = lv.right.find(key);
    if (it == lv.right.end()) return;
    for (const Binding& other : it->second.bindings) fn(other);
    return;
  }
  // The key vector is aligned with the sorted key_vars.
  auto key_val = [&](int var) {
    const auto pos =
        std::lower_bound(lv.key_vars.begin(), lv.key_vars.end(), var);
    return key[static_cast<std::size_t>(pos - lv.key_vars.begin())];
  };
  const auto& [src_var, trg_var] = port_vars_[static_cast<std::size_t>(port)];
  Binding b;
  auto try_edge = [&](VertexId s, VertexId g, const Interval& iv) {
    const Sgt tuple(s, g, lv.store_label, iv);
    if (BindPort(port, tuple, &b)) fn(b);
  };
  switch (lv.probe) {
    case ProbeKind::kOutFiltered: {
      const VertexId s = key_val(src_var);
      const VertexId g = key_val(trg_var);
      for (const StoredEdge& e : lv.store->OutEdges(s, lv.store_label)) {
        if (e.trg == g) try_edge(s, e.trg, e.validity);
      }
      break;
    }
    case ProbeKind::kOut: {
      const VertexId s = key_val(src_var);
      for (const StoredEdge& e : lv.store->OutEdges(s, lv.store_label)) {
        try_edge(s, e.trg, e.validity);
      }
      break;
    }
    case ProbeKind::kIn: {
      const VertexId g = key_val(trg_var);
      // Reverse-index entries store the *source* in `trg`.
      for (const StoredEdge& e : lv.store->InEdges(g, lv.store_label)) {
        try_edge(e.trg, g, e.validity);
      }
      break;
    }
  }
}

void PatternOp::InsertCoalesced(int level, bool left, const Key& key,
                                Binding b) {
  Level& lv = levels_[static_cast<std::size_t>(level)];
  Table& table = left ? lv.left : lv.right;
  std::size_t& entries = left ? lv.left_entries : lv.right_entries;
  auto [it, inserted] = table.try_emplace(key);
  (void)inserted;
  Bucket& bucket = it->second;
  for (Binding& existing : bucket.bindings) {
    if (existing.vals == b.vals && existing.iv.OverlapsOrAdjacent(b.iv)) {
      // Coalescing only moves expiry later: the bucket's hint stays valid.
      existing.iv = existing.iv.Span(b.iv);
      return;
    }
  }
  if (b.iv.exp < bucket.hinted) {
    bucket.hinted = b.iv.exp;
    binding_expiry_.Add(b.iv.exp, BucketRef{level, left, key});
  }
  bucket.bindings.push_back(std::move(b));
  ++entries;
}

PatternOp::Binding PatternOp::Merge(const Binding& a, const Binding& b) {
  Binding out;
  out.vals = a.vals;
  for (std::size_t i = 0; i < out.vals.size(); ++i) {
    if (out.vals[i] == kInvalidVertex) out.vals[i] = b.vals[i];
  }
  out.iv = a.iv.Intersect(b.iv);
  return out;
}

bool PatternOp::MayReassert(const Binding& b) const {
  const VertexId s = b.vals[static_cast<std::size_t>(out_src_var_)];
  const VertexId t = b.vals[static_cast<std::size_t>(out_trg_var_)];
  if (s != kInvalidVertex && t != kInvalidVertex) {
    return retracted_values_.contains(EdgeRef(s, t, out_label_));
  }
  if (s != kInvalidVertex) return retracted_srcs_.contains(s);
  if (t != kInvalidVertex) return retracted_trgs_.contains(t);
  return true;
}

void PatternOp::Cascade(std::size_t level, const Binding& acc, Mode mode) {
  if (acc.iv.Empty()) return;
  // Reassert replay prune: state writes below are idempotent, so only
  // bindings that can reach a retracted output value matter.
  if (mode == Mode::kReassert && !MayReassert(acc)) return;
  if (level >= levels_.size()) {
    Project(acc, mode);
    return;
  }
  Level& lv = levels_[level];
  const Key key = ExtractKey(lv, acc);
  // kRetract must not touch state; kReassert re-inserts idempotently
  // (identical bindings coalesce away).
  if (mode != Mode::kRetract) {
    InsertCoalesced(static_cast<int>(level), /*left=*/true, key, acc);
  }
  ForEachRightMatch(level, key, [&](const Binding& other) {
    Binding merged = Merge(acc, other);
    Cascade(level + 1, merged, mode);
  });
}

void PatternOp::Project(const Binding& b, Mode mode) {
  const VertexId src = b.vals[static_cast<std::size_t>(out_src_var_)];
  const VertexId trg = b.vals[static_cast<std::size_t>(out_trg_var_)];
  // Payload: the derived edge itself (Def. 19).
  const EdgeRef derived(src, trg, out_label_);
  switch (mode) {
    case Mode::kInsert: {
      Sgt out(src, trg, out_label_, b.iv, {derived});
      if (out_coalescer_.Offer(out)) EmitTuple(out);
      break;
    }
    case Mode::kRetract: {
      Sgt out(src, trg, out_label_, b.iv, {derived}, /*del=*/true);
      out_coalescer_.Forget(derived, b.iv.ts);
      retracted_values_.insert(derived);
      EmitTuple(out);
      break;
    }
    case Mode::kReassert: {
      if (!retracted_values_.contains(derived)) break;
      Sgt out(src, trg, out_label_, b.iv, {derived});
      if (out_coalescer_.Offer(out)) EmitTuple(out);
      break;
    }
  }
}

void PatternOp::OnTuple(int port, const Sgt& tuple) {
  SGQ_CHECK_GE(port, 0);
  SGQ_CHECK_LT(port, num_ports_);
  if (num_ports_ > 1 && tuple.is_deletion) {
    // Unsharded deletion: the two coordination phases composed
    // back-to-back on this instance reproduce the original
    // single-threaded retract + reassert exactly (the extra Forget in
    // ReassertRetracted is a no-op on values already forgotten by the
    // retract cascade).
    ReassertRetracted(RetractForDeletion(port, tuple));
    return;
  }
  Binding b;
  if (!BindPort(port, tuple, &b)) return;

  if (num_ports_ == 1) {
    // A single-atom pattern is a rename/projection: it preserves the input
    // payload so materialized paths stay first-class through it (R3).
    const VertexId src = b.vals[static_cast<std::size_t>(out_src_var_)];
    const VertexId trg = b.vals[static_cast<std::size_t>(out_trg_var_)];
    Sgt out(src, trg, out_label_, b.iv, tuple.payload, tuple.is_deletion);
    if (tuple.is_deletion) {
      out_coalescer_.Forget(out.edge(), out.validity.ts);
      EmitTuple(out);
    } else if (out_coalescer_.Offer(out)) {
      EmitTuple(out);
    }
    return;
  }

  if (port == 0) {
    Cascade(0, b, Mode::kInsert);
    return;
  }
  // Symmetric side: store the port tuple, then probe the accumulated side.
  Level& lv = levels_[static_cast<std::size_t>(port - 1)];
  const Key key = ExtractKey(lv, b);
  if (lv.store != nullptr) {
    SGQ_DCHECK(tuple.label == lv.store_label);
    if (!window_reader_) {
      lv.store->Insert(tuple.src, tuple.trg, lv.store_label, b.iv);
    }
  } else {
    InsertCoalesced(port - 1, /*left=*/false, key, b);
  }
  auto it = lv.left.find(key);
  if (it == lv.left.end()) return;
  for (const Binding& acc : it->second.bindings) {
    Binding merged = Merge(acc, b);
    Cascade(static_cast<std::size_t>(port), merged, Mode::kInsert);
  }
}

template <typename Pred>
void PatternOp::ScrubTable(Table* table, std::size_t* entries, Pred&& pred) {
  for (auto it = table->begin(); it != table->end();) {
    // Removing bindings never moves the earliest expiry earlier, so the
    // bucket's hint stays valid; an emptied bucket's hint goes stale.
    BindingRun& run = it->second.bindings;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (pred(run[i])) continue;
      if (keep != i) run[keep] = std::move(run[i]);
      ++keep;
    }
    *entries -= run.size() - keep;
    run.truncate(keep);
    if (run.empty()) {
      it = table->erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<EdgeRef> PatternOp::RetractForDeletion(int port,
                                                   const Sgt& tuple) {
  Binding b;
  if (!BindPort(port, tuple, &b)) return {};
  // 1. Emit negative tuples for every live output containing the deleted
  //    tuple, by replaying the join cascade without inserting.
  retracted_values_.clear();
  if (port == 0) {
    Cascade(0, b, Mode::kRetract);
  } else {
    Level& lv = levels_[static_cast<std::size_t>(port - 1)];
    const Key key = ExtractKey(lv, b);
    auto it = lv.left.find(key);
    if (it != lv.left.end()) {
      for (const Binding& acc : it->second.bindings) {
        Binding merged = Merge(acc, b);
        Cascade(static_cast<std::size_t>(port), merged, Mode::kRetract);
      }
    }
  }

  // 2. Remove the tuple and every accumulated binding that embeds it.
  //    A binding embeds the deleted tuple iff it agrees with it on the
  //    tuple's variable positions (set semantics make that sufficient).
  auto matches = [&](const Binding& candidate) {
    for (std::size_t i = 0; i < num_vars_; ++i) {
      if (b.vals[i] != kInvalidVertex && candidate.vals[i] != b.vals[i]) {
        return false;
      }
    }
    return true;
  };
  if (port == 0) {
    if (!levels_.empty()) {
      ScrubTable(&levels_[0].left, &levels_[0].left_entries, matches);
    }
  } else {
    Level& lv = levels_[static_cast<std::size_t>(port - 1)];
    if (lv.store == nullptr) {
      ScrubTable(&lv.right, &lv.right_entries, matches);
    } else if (!window_reader_) {
      lv.store->RemoveValue(tuple.src, tuple.trg, lv.store_label);
    }
  }
  // Accumulated bindings at levels >= port embed port tuples.
  for (std::size_t j = static_cast<std::size_t>(std::max(1, port));
       j < levels_.size(); ++j) {
    ScrubTable(&levels_[j].left, &levels_[j].left_entries, matches);
  }

  // Sorted drain: the returned order is deterministic, so the sharded
  // executor's cross-shard union is reproducible.
  std::vector<EdgeRef> out(retracted_values_.begin(),
                           retracted_values_.end());
  std::sort(out.begin(), out.end());
  retracted_values_.clear();
  return out;
}

void PatternOp::ReassertRetracted(const std::vector<EdgeRef>& retracted) {
  // Re-assert: an output value retracted (on this shard or, under sharded
  // execution, on a sibling shard) may still hold via a derivation in the
  // surviving local state. Replay the surviving port-0 bindings through
  // the pipeline and re-emit positives for the retracted values.
  // Deletions are rare (§6.2.5), so the full replay is acceptable.
  if (retracted.empty() || levels_.empty()) return;
  retracted_values_.clear();
  retracted_srcs_.clear();
  retracted_trgs_.clear();
  for (const EdgeRef& value : retracted) {
    // A sibling shard's retraction must not leave this shard's coalescer
    // suppressing the re-assertion (no-op for values this shard
    // retracted itself — the retract cascade already forgot them).
    out_coalescer_.Forget(value);
    retracted_values_.insert(value);
    retracted_srcs_.insert(value.src);
    retracted_trgs_.insert(value.trg);
  }
  // Copy (kReassert re-inserts, idempotently, while iterating), sorted by
  // join key so the replay order — and with it the emission order — does
  // not depend on hash-iteration order.
  std::vector<std::pair<Key, const BindingRun*>> buckets;
  buckets.reserve(levels_[0].left.size());
  for (const auto& [key, bucket] : levels_[0].left) {
    buckets.emplace_back(key, &bucket.bindings);
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) {
              return std::lexicographical_compare(
                  a.first.begin(), a.first.end(), b.first.begin(),
                  b.first.end());
            });
  std::vector<Binding> port0;
  for (const auto& [key, bucket] : buckets) {
    (void)key;
    port0.insert(port0.end(), bucket->begin(), bucket->end());
  }
  for (const Binding& acc : port0) {
    Cascade(0, acc, Mode::kReassert);
  }
  retracted_values_.clear();
}

void PatternOp::WriteWindows(int port, const Sgt* tuples, std::size_t n) {
  if (port < 1) return;
  const Level& lv = levels_[static_cast<std::size_t>(port - 1)];
  if (lv.store == nullptr) return;
  Binding b;
  for (std::size_t i = 0; i < n; ++i) {
    const Sgt& tuple = tuples[i];
    if (!BindPort(port, tuple, &b)) continue;
    if (tuple.is_deletion) {
      lv.store->RemoveValue(tuple.src, tuple.trg, lv.store_label);
    } else {
      lv.store->Insert(tuple.src, tuple.trg, lv.store_label, b.iv);
    }
  }
}

void PatternOp::Purge(Timestamp now) {
  binding_expiry_.DrainDue(now, [&](Timestamp exp, const BucketRef& ref) {
    Level& lv = levels_[static_cast<std::size_t>(ref.level)];
    Table& table = ref.left ? lv.left : lv.right;
    std::size_t& entries = ref.left ? lv.left_entries : lv.right_entries;
    auto it = table.find(ref.key);
    // Stale hint: the bucket is gone, or an earlier hint replaced this one.
    if (it == table.end() || it->second.hinted != exp) return;
    Bucket& bucket = it->second;
    BindingRun& run = bucket.bindings;
    Timestamp earliest = kMaxTimestamp;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < run.size(); ++i) {
      Binding& b = run[i];
      if (b.iv.exp <= now) continue;  // expired: drop
      earliest = std::min(earliest, b.iv.exp);
      if (keep != i) run[keep] = std::move(b);
      ++keep;
    }
    entries -= run.size() - keep;
    run.truncate(keep);
    if (run.empty()) {
      table.erase(it);
      return;
    }
    bucket.hinted = earliest;
    binding_expiry_.Add(earliest, ref);
  });
  // Tables the drain (or a deletion scrub since the last purge) left under
  // 1/8 full give memory back; O(1) per table otherwise.
  for (Level& lv : levels_) {
    lv.left.ShrinkToFit();
    lv.right.ShrinkToFit();
  }
  if (!window_reader_) {
    for (Level& lv : levels_) {
      if (lv.store != nullptr) lv.store->PurgeExpired(now);
    }
  }
  out_coalescer_.PurgeBefore(now);
}

bool PatternOp::PurgeDue(Timestamp now) const {
  if (binding_expiry_.AnyDue(now) || out_coalescer_.AnyDue(now)) return true;
  if (window_reader_) return false;
  for (const Level& lv : levels_) {
    if (lv.store != nullptr && lv.store->AnyDue(now)) return true;
  }
  return false;
}

std::size_t PatternOp::StateSize() const {
  // Store-backed right sides are WindowStore partitions, counted by the
  // executor.
  std::size_t n = out_coalescer_.NumKeys();
  for (const Level& lv : levels_) {
    n += lv.left_entries;
    n += lv.store != nullptr ? 0 : lv.right_entries;
  }
  return n;
}

std::size_t PatternOp::StateBytes() const {
  // Inline bucket storage is part of the slot array (capacity_bytes);
  // each bucket's overflow block is counted at its exact size.
  std::size_t n = out_coalescer_.ApproxBytes() + binding_expiry_.ApproxBytes();
  auto table_bytes = [](const Table& table) {
    std::size_t bytes = table.capacity_bytes();
    for (const auto& [key, bucket] : table) {
      bytes += key.overflow_bytes() + bucket.bindings.overflow_bytes();
    }
    return bytes;
  };
  for (const Level& lv : levels_) {
    n += table_bytes(lv.left);
    n += lv.store != nullptr ? 0 : table_bytes(lv.right);
  }
  return n;
}

std::size_t PatternOp::num_store_backed_ports() const {
  std::size_t n = 0;
  for (const Level& lv : levels_) {
    if (lv.store != nullptr) ++n;
  }
  return n;
}

namespace {

bool KeyLess(const SmallVec<VertexId, 3>& a, const SmallVec<VertexId, 3>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

void PatternOp::SerializeTable(const Table& table, std::size_t entries,
                               PayloadOut* out) {
  // Keys sorted (deterministic checkpoint bytes); bucket contents verbatim
  // — every bucket mutation (ScrubTable, Purge) compacts order-preservingly,
  // so restoring bindings in stored order reproduces probe order exactly.
  std::vector<Key> keys;
  keys.reserve(table.size());
  for (const auto& [key, bucket] : table) {
    (void)bucket;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), KeyLess);
  PutU64(out, keys.size());
  for (const Key& key : keys) {
    const Bucket& bucket = table.find(key)->second;
    PutU32(out, static_cast<std::uint32_t>(key.size()));
    for (VertexId v : key) PutVertex(out, v);
    PutI64(out, bucket.hinted);
    PutU32(out, static_cast<std::uint32_t>(bucket.bindings.size()));
    for (const Binding& b : bucket.bindings) {
      PutU32(out, static_cast<std::uint32_t>(b.vals.size()));
      for (VertexId v : b.vals) PutVertex(out, v);
      PutI64(out, b.iv.ts);
      PutI64(out, b.iv.exp);
    }
  }
  PutU64(out, entries);
}

Status PatternOp::DeserializeTable(int level, bool left, ByteReader* in) {
  Level& lv = levels_[static_cast<std::size_t>(level)];
  Table& table = left ? lv.left : lv.right;
  std::size_t restored = 0;
  const std::uint64_t num_keys = in->U64();
  // A bucket is at least its key (arity, values), hint, count and one
  // binding (arity, values, interval).
  table.reserve(in->ReserveBound(
      num_keys, 4 + 8 * lv.key_vars.size() + 8 + 4 + 4 + 8 * num_vars_ + 16));
  for (std::uint64_t k = 0; k < num_keys && in->ok(); ++k) {
    const std::uint32_t key_arity = in->U32();
    if (in->ok() && key_arity != lv.key_vars.size()) {
      return in->Fail("join key arity " + std::to_string(key_arity) +
                      ", want " + std::to_string(lv.key_vars.size()));
    }
    Key key;
    for (std::uint32_t i = 0; i < key_arity && in->ok(); ++i) {
      key.push_back(in->Vertex());
    }
    const Timestamp hinted = in->I64();
    const std::uint32_t n = in->U32();
    if (!in->ok()) break;
    if (n == 0) return in->Fail("empty join bucket");
    auto [it, inserted] = table.try_emplace(std::move(key));
    if (!inserted) return in->Fail("duplicate join key");
    Bucket& bucket = it->second;
    Timestamp earliest = kMaxTimestamp;
    for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
      // ExtractKey, Merge and Project index bindings by variable position.
      const std::uint32_t arity = in->U32();
      if (in->ok() && arity != num_vars_) {
        return in->Fail("binding arity " + std::to_string(arity) + ", want " +
                        std::to_string(num_vars_));
      }
      Binding b;
      for (std::uint32_t v = 0; v < arity && in->ok(); ++v) {
        b.vals.push_back(in->Vertex());
      }
      b.iv.ts = in->I64();
      b.iv.exp = in->I64();
      earliest = std::min(earliest, b.iv.exp);
      bucket.bindings.push_back(std::move(b));
    }
    if (!in->ok()) break;
    if (hinted > earliest) {
      return in->Fail("bucket hint " + std::to_string(hinted) +
                      " is later than its earliest binding expiry " +
                      std::to_string(earliest));
    }
    bucket.hinted = hinted;
    binding_expiry_.Add(hinted, BucketRef{level, left, it->first});
    restored += n;
  }
  const std::uint64_t entries = in->U64();
  if (in->ok() && entries != restored) {
    return in->Fail("entry counter " + std::to_string(entries) +
                    " disagrees with the " + std::to_string(restored) +
                    " bindings restored");
  }
  (left ? lv.left_entries : lv.right_entries) = restored;
  return in->status();
}

void PatternOp::SerializeState(PayloadOut* out) const {
  PutU32(out, static_cast<std::uint32_t>(levels_.size()));
  for (const Level& lv : levels_) {
    SerializeTable(lv.left, lv.left_entries, out);
    // Store-backed right sides live in WindowStore partitions checkpointed
    // by the registry; only the flag round-trips (topology verification).
    PutU8(out, lv.store != nullptr ? 1 : 0);
    if (lv.store == nullptr) SerializeTable(lv.right, lv.right_entries, out);
  }
  out_coalescer_.SerializeState(out);
}

Status PatternOp::DeserializeState(ByteReader* in) {
  // Only the *private* state must be empty: store-backed ports view the
  // shared WindowStore, whose partitions restore before the ops section.
  std::size_t private_entries = out_coalescer_.NumKeys();
  for (const Level& lv : levels_) {
    private_entries += lv.left_entries;
    private_entries += lv.store != nullptr ? 0 : lv.right_entries;
  }
  if (private_entries != 0) {
    return in->Fail("PATTERN operator not empty before restore");
  }
  const std::uint32_t num_levels = in->U32();
  if (in->ok() && num_levels != levels_.size()) {
    return in->Fail("PATTERN level count mismatch (checkpoint was taken "
                    "with a different plan topology)");
  }
  for (std::size_t j = 0; j < levels_.size(); ++j) {
    const int level = static_cast<int>(j);
    SGQ_RETURN_NOT_OK(DeserializeTable(level, /*left=*/true, in));
    const bool store_backed = in->U8() != 0;
    if (in->ok() && store_backed != (levels_[j].store != nullptr)) {
      return in->Fail("PATTERN store-backed flag mismatch (checkpoint was "
                      "taken with a different plan topology)");
    }
    if (levels_[j].store == nullptr) {
      SGQ_RETURN_NOT_OK(DeserializeTable(level, /*left=*/false, in));
    }
  }
  return out_coalescer_.DeserializeState(in);
}

}  // namespace sgq
