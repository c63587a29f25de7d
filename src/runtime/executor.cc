#include "runtime/executor.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/logging.h"

namespace sgq {

// ---------------------------------------------------------------------------
// OutputChannel
// ---------------------------------------------------------------------------

void OutputChannel::Push(const Sgt& tuple) {
  if (capture_ != nullptr) {
    // Sharded mode: buffer locally, merge after the parallel section.
    capture_->push_back(tuple);
    return;
  }
  if (direct_op_ != nullptr) {
    direct_op_->OnTuple(direct_port_, tuple);
    return;
  }
  if (exec_ != nullptr) exec_->Route(*this, tuple);
}

// ---------------------------------------------------------------------------
// Topology construction
// ---------------------------------------------------------------------------

Executor::Executor(ExecutorOptions options) : options_(options) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (options_.num_workers == 0) options_.num_workers = 1;
}

Executor::~Executor() = default;

OpId Executor::AddOp(std::unique_ptr<PhysicalOp> op) {
  // Post-Finalize appends are the live-attach path: the new node is bound
  // by FinalizeNewOps() before the next ingest (DESIGN.md §10).
  const OpId id = static_cast<OpId>(nodes_.size());
  nodes_.emplace_back();
  nodes_.back().op = std::move(op);
  ++num_live_;
  return id;
}

PhysicalOp* Executor::op(OpId id) const {
  SGQ_CHECK_GE(id, 0);
  SGQ_CHECK_LT(static_cast<std::size_t>(id), nodes_.size());
  return nodes_[static_cast<std::size_t>(id)].op.get();
}

std::size_t Executor::NumInstances(OpId id) const {
  SGQ_CHECK_GE(id, 0);
  SGQ_CHECK_LT(static_cast<std::size_t>(id), nodes_.size());
  return 1 + nodes_[static_cast<std::size_t>(id)].replicas.size();
}

PhysicalOp* Executor::instance(OpId id, std::size_t shard) const {
  const OpNode& node = nodes_[static_cast<std::size_t>(id)];
  return shard == 0 ? node.op.get() : node.replicas[shard - 1].get();
}

Status Executor::AddShardReplica(OpId id, std::unique_ptr<PhysicalOp> shard) {
  if (finalized_ && static_cast<std::size_t>(id) < finalized_nodes_) {
    return Status::Internal(
        "AddShardReplica on an already-finalized operator");
  }
  if (!sharded()) {
    return Status::InvalidArgument(
        "AddShardReplica requires num_workers > 1");
  }
  if (id < 0 || static_cast<std::size_t>(id) >= nodes_.size()) {
    return Status::InvalidArgument("AddShardReplica: unknown operator id");
  }
  OpNode& node = nodes_[static_cast<std::size_t>(id)];
  if (1 + node.replicas.size() >= options_.num_workers) {
    return Status::InvalidArgument(
        "AddShardReplica: operator already has num_workers shards");
  }
  node.replicas.push_back(std::move(shard));
  return Status::OK();
}

Status Executor::Connect(OpId from, OpId to, int port) {
  if (finalized_ && static_cast<std::size_t>(to) < finalized_nodes_) {
    // Live attaches may fan an existing (shared) operator out to a NEW
    // consumer; rewiring two already-running operators is not a thing.
    return Status::Internal(
        "Connect into an already-finalized operator");
  }
  if (from < 0 || static_cast<std::size_t>(from) >= nodes_.size() ||
      to < 0 || static_cast<std::size_t>(to) >= nodes_.size()) {
    return Status::InvalidArgument("Connect: unknown operator id");
  }
  if (nodes_[static_cast<std::size_t>(from)].op == nullptr ||
      nodes_[static_cast<std::size_t>(to)].op == nullptr) {
    return Status::InvalidArgument("Connect: removed operator id");
  }
  if (from >= to) {
    // Insertion order doubles as the wave order; a forward edge would make
    // it non-topological.
    return Status::InvalidArgument(
        "Connect: channels must go from earlier to later operators "
        "(children-first insertion)");
  }
  auto& node = nodes_[static_cast<std::size_t>(from)];
  node.out.dests_.push_back(PortRef{to, port});
  auto& pending = nodes_[static_cast<std::size_t>(to)].pending;
  if (pending.size() <= static_cast<std::size_t>(port)) {
    pending.resize(static_cast<std::size_t>(port) + 1);
  }
  return Status::OK();
}

Status Executor::RegisterSource(LabelId label, OpId source, Timestamp slide) {
  if (finalized_ && static_cast<std::size_t>(source) < finalized_nodes_) {
    return Status::Internal(
        "RegisterSource on an already-finalized operator");
  }
  if (source < 0 || static_cast<std::size_t>(source) >= nodes_.size()) {
    return Status::InvalidArgument("RegisterSource: unknown operator id");
  }
  if (dynamic_cast<SourceOp*>(op(source)) == nullptr) {
    return Status::InvalidArgument("RegisterSource: not a SourceOp");
  }
  if (finalized_ && slide < slide_) {
    // The slide granularity is fixed at the first Finalize; a finer live
    // attach would need boundary instants the running clock already
    // passed. Callers pre-check (Engine::AddPlan), so refusal here is a
    // backstop that leaves the executor usable.
    return Status::InvalidArgument(
        "live-attached source slide " + std::to_string(slide) +
        " is finer than the running granularity " + std::to_string(slide_));
  }
  query_index_.Add(label, source);
  nodes_[static_cast<std::size_t>(source)].source_label = label;
  if (!finalized_) min_slide_ = std::min(min_slide_, slide);
  return Status::OK();
}

Status Executor::RegisterWildcardSource(OpId source, Timestamp slide) {
  if (finalized_ && static_cast<std::size_t>(source) < finalized_nodes_) {
    return Status::Internal(
        "RegisterWildcardSource on an already-finalized operator");
  }
  if (source < 0 || static_cast<std::size_t>(source) >= nodes_.size()) {
    return Status::InvalidArgument(
        "RegisterWildcardSource: unknown operator id");
  }
  if (dynamic_cast<SourceOp*>(op(source)) == nullptr) {
    return Status::InvalidArgument("RegisterWildcardSource: not a SourceOp");
  }
  if (finalized_ && slide < slide_) {
    return Status::InvalidArgument(
        "live-attached source slide " + std::to_string(slide) +
        " is finer than the running granularity " + std::to_string(slide_));
  }
  query_index_.AddWildcard(source);
  nodes_[static_cast<std::size_t>(source)].source_wildcard = true;
  if (!finalized_) min_slide_ = std::min(min_slide_, slide);
  return Status::OK();
}

Status Executor::SetupNodeTopology(std::size_t i) {
  OpNode& node = nodes_[i];
  node.out.exec_ = this;
  node.out.from_ = static_cast<OpId>(i);
  if (!sharded()) node.op->BindOutput(&node.out);
  for (const PortRef& dst : node.out.dests_) {
    if (dst.op <= static_cast<OpId>(i)) {
      return Status::Internal("non-topological channel");
    }
  }
  if (!sharded()) return Status::OK();
  const std::size_t instances = 1 + node.replicas.size();
  if (instances != 1 && instances != options_.num_workers) {
    return Status::Internal(
        "sharded operator must have 1 or num_workers instances");
  }
  // Cache the per-port routing declared by the operator. Sources have
  // no connected input port; their sges route through port 0.
  const std::size_t ports = std::max<std::size_t>(node.pending.size(), 1);
  node.routing.reserve(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    node.routing.push_back(node.op->InputRouting(static_cast<int>(p)));
  }
  // Every instance emits into its own capture buffer; addresses are
  // stable because neither vector is resized after this point.
  node.shard_emit.assign(instances, {});
  node.shard_out.clear();
  node.shard_out.reserve(instances);
  for (std::size_t s = 0; s < instances; ++s) {
    node.shard_out.emplace_back(&node.shard_emit[s]);
  }
  for (std::size_t s = 0; s < instances; ++s) {
    instance(static_cast<OpId>(i), s)->BindOutput(&node.shard_out[s]);
  }
  node.shard_pending.assign(node.pending.size(),
                            std::vector<std::vector<Sgt>>(instances));
  node.shard_scratch.assign(node.pending.size(),
                            std::vector<std::vector<Sgt>>(instances));
  node.merge_coalesce = instances > 1 && node.op->CoalesceAtMerge();
  if (instances > 1 && node.op->NeedsDeletionCoordination()) {
    node.coordination.reserve(instances);
    for (std::size_t s = 0; s < instances; ++s) {
      auto* coordination = dynamic_cast<DeletionCoordination*>(
          instance(static_cast<OpId>(i), s));
      if (coordination == nullptr) {
        return Status::Internal(
            "operator requests deletion coordination but does not "
            "implement DeletionCoordination");
      }
      node.coordination.push_back(coordination);
    }
  }
  return Status::OK();
}

Status Executor::Finalize() {
  if (finalized_) return Status::Internal("Finalize called twice");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    SGQ_RETURN_NOT_OK(SetupNodeTopology(i));
  }
  if (sharded()) {
    WorkerPoolOptions pool_options;
    pool_options.pin = options_.pin_workers;
    pool_ = std::make_unique<WorkerPool>(options_.num_workers, pool_options);
  }
  // Time-advance phases fire per distinct input timestamp and only visit
  // operators that declared time-driven work.
  time_driven_ops_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].op->HasTimeDrivenWork()) {
      time_driven_ops_.push_back(static_cast<OpId>(i));
    }
  }
  // The engine's slide granularity is the finest slide of any source.
  slide_ = min_slide_ == kMaxTimestamp ? 1 : min_slide_;
  // Expiry calendars bucket by the slide: align every stateful operator's
  // calendar and every shared window partition (slide 1 until now, which
  // is correct but finer-bucketed than necessary).
  window_store_.ConfigureExpirySlide(slide_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t s = 0; s < NumInstances(static_cast<OpId>(i)); ++s) {
      instance(static_cast<OpId>(i), s)->ConfigureExpirySlide(slide_);
    }
  }
  finalized_ = true;
  finalized_nodes_ = nodes_.size();
  return Status::OK();
}

Status Executor::FinalizeNewOps() {
  if (!finalized_) return Status::Internal("FinalizeNewOps before Finalize");
  if (!queue_.empty() || !stack_.empty() || !dirty_heap_.empty()) {
    return Status::Internal("FinalizeNewOps outside a batch boundary");
  }
  // Appending the new nodes may have reallocated the node table, and
  // operators hold their bound channel by address: the unsharded `out`
  // channel lives inline in the OpNode and moved with it. Re-point every
  // already-finalized operator at its channel's new address before any
  // further ingest. (Sharded `shard_out`/`shard_emit` live in member-
  // vector heap buffers that survive the move; rebound anyway for
  // uniformity.)
  for (std::size_t i = 0; i < finalized_nodes_; ++i) {
    OpNode& node = nodes_[i];
    if (node.op == nullptr) continue;
    if (!sharded()) {
      node.op->BindOutput(&node.out);
    } else {
      for (std::size_t s = 0; s < node.shard_out.size(); ++s) {
        instance(static_cast<OpId>(i), s)->BindOutput(&node.shard_out[s]);
      }
    }
  }
  for (std::size_t i = finalized_nodes_; i < nodes_.size(); ++i) {
    SGQ_RETURN_NOT_OK(SetupNodeTopology(i));
    // The slide granularity is already fixed; the appended operators just
    // adopt it (RegisterSource refused finer slides). New ids are larger
    // than every existing one, so push_back keeps time_driven_ops_ in
    // ascending (wave) order.
    for (std::size_t s = 0; s < NumInstances(static_cast<OpId>(i)); ++s) {
      instance(static_cast<OpId>(i), s)->ConfigureExpirySlide(slide_);
    }
    if (nodes_[i].op->HasTimeDrivenWork()) {
      time_driven_ops_.push_back(static_cast<OpId>(i));
    }
  }
  finalized_nodes_ = nodes_.size();
  return Status::OK();
}

Status Executor::RemoveOps(const std::vector<OpId>& dead,
                           const std::vector<std::pair<OpId, OpId>>& unlink) {
  if (!finalized_) return Status::Internal("RemoveOps before Finalize");
  if (!queue_.empty() || !stack_.empty() || !dirty_heap_.empty()) {
    return Status::Internal("RemoveOps outside a batch boundary");
  }
  for (const OpId id : dead) {
    if (id < 0 || static_cast<std::size_t>(id) >= finalized_nodes_ ||
        nodes_[static_cast<std::size_t>(id)].op == nullptr) {
      return Status::Internal(
          "RemoveOps: unknown or already-removed operator " +
          std::to_string(id));
    }
  }
  for (const OpId id : dead) {
    OpNode& node = nodes_[static_cast<std::size_t>(id)];
    // Index deregistration: surviving postings keep registration order,
    // so survivor dispatch is byte-identical to a never-added run.
    if (node.source_wildcard) {
      query_index_.RemoveWildcard(id);
    } else if (node.source_label != kInvalidLabel) {
      query_index_.Remove(node.source_label, id);
    }
    time_driven_ops_.erase(
        std::remove(time_driven_ops_.begin(), time_driven_ops_.end(), id),
        time_driven_ops_.end());
    // Tombstone the slot: ids are never reused (channels and checkpoints
    // reference them positionally); every loop over nodes_ skips null ops.
    node.op.reset();
    node.replicas.clear();
    node.out = OutputChannel();
    node.pending.clear();
    node.shard_out.clear();
    node.shard_emit.clear();
    node.shard_pending.clear();
    node.shard_scratch.clear();
    node.routing.clear();
    node.coordination.clear();
    node.merge_coalesce = false;
    node.merge_coalescer = StreamingCoalescer();
    node.merge_retracted.clear();
    node.merge_purge_watermark = 1024;
    node.dirty = false;
    node.touched = false;
    node.source_label = kInvalidLabel;
    node.source_wildcard = false;
    --num_live_;
  }
  // Unlink the channel edges feeding the removed subtree from surviving
  // operators. The caller enumerates exactly (live child, dead parent)
  // pairs, so the whole removal stays O(removed subtree): no full-topology
  // channel sweep.
  for (const auto& [from, to] : unlink) {
    if (from < 0 || static_cast<std::size_t>(from) >= nodes_.size() ||
        nodes_[static_cast<std::size_t>(from)].op == nullptr) {
      return Status::Internal("RemoveOps: unlink from a removed operator");
    }
    auto& dests = nodes_[static_cast<std::size_t>(from)].out.dests_;
    const OpId gone = to;
    dests.erase(std::remove_if(dests.begin(), dests.end(),
                               [gone](const PortRef& p) {
                                 return p.op == gone;
                               }),
                dests.end());
  }
  return Status::OK();
}

std::string Executor::DescribeTopology() const {
  std::string out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].op == nullptr) {
      out += "#" + std::to_string(i) + " (removed)\n";
      continue;
    }
    out += "#" + std::to_string(i) + " " + nodes_[i].op->Name();
    if (!nodes_[i].replicas.empty()) {
      out += " x" + std::to_string(1 + nodes_[i].replicas.size());
    }
    const auto& dests = nodes_[i].out.destinations();
    if (!dests.empty()) {
      out += " ->";
      for (const PortRef& d : dests) {
        out += " #" + std::to_string(d.op) + ":" + std::to_string(d.port);
      }
    }
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Delivery
// ---------------------------------------------------------------------------

void Executor::MarkDirty(OpId id) {
  OpNode& node = nodes_[static_cast<std::size_t>(id)];
  if (node.dirty) return;
  node.dirty = true;
  dirty_heap_.push_back(id);
  std::push_heap(dirty_heap_.begin(), dirty_heap_.end(),
                 std::greater<OpId>());
}

template <typename Fn>
void Executor::PopDirtyWave(Fn&& visit) {
  ++num_waves_;
  std::size_t visited = 0;
  while (!dirty_heap_.empty()) {
    std::pop_heap(dirty_heap_.begin(), dirty_heap_.end(),
                  std::greater<OpId>());
    const OpId id = dirty_heap_.back();
    dirty_heap_.pop_back();
    nodes_[static_cast<std::size_t>(id)].dirty = false;
    ++visited;
    visit(id);
  }
  index_skipped_ += nodes_.size() - visited;
}

void Executor::MarkTouchedCone(OpId id) {
  if (nodes_[static_cast<std::size_t>(id)].touched) return;
  // `touched` is monotone, so each node is expanded at most once over the
  // executor's lifetime — amortized O(channels) total, not per edge.
  std::vector<OpId> work = {id};
  while (!work.empty()) {
    const OpId cur = work.back();
    work.pop_back();
    OpNode& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.touched) continue;
    node.touched = true;
    for (const PortRef& dst : node.out.dests_) work.push_back(dst.op);
  }
}

void Executor::Route(const OutputChannel& channel, const Sgt& tuple) {
  if (wave_mode()) {
    for (const PortRef& dst : channel.dests_) {
      nodes_[static_cast<std::size_t>(dst.op)]
          .pending[static_cast<std::size_t>(dst.port)]
          .push_back(tuple);
      MarkDirty(dst.op);
    }
    return;
  }
  // Tuple mode: collect into the current delivery segment; DrainStack
  // pushes the segment in reverse so the first emission is processed (and
  // its cascade completed) first — exactly the old recursion order.
  SGQ_CHECK(segment_ != nullptr) << "emission outside a delivery";
  for (const PortRef& dst : channel.dests_) {
    segment_->emplace_back(dst, tuple);
  }
}

void Executor::DrainStack() {
  std::vector<std::pair<PortRef, Sgt>> segment;
  while (!stack_.empty()) {
    auto [dst, tuple] = std::move(stack_.back());
    stack_.pop_back();
    segment.clear();
    segment_ = &segment;
    nodes_[static_cast<std::size_t>(dst.op)].op->OnTuple(dst.port, tuple);
    segment_ = nullptr;
    for (auto it = segment.rbegin(); it != segment.rend(); ++it) {
      stack_.push_back(std::move(*it));
    }
  }
}

void Executor::RunWave() {
  PopDirtyWave([this](OpId id) {
    OpNode& node = nodes_[static_cast<std::size_t>(id)];
    for (std::size_t port = 0; port < node.pending.size(); ++port) {
      if (node.pending[port].empty()) continue;
      ++ops_touched_;
      std::vector<Sgt> batch;
      batch.swap(node.pending[port]);
      node.op->OnBatch(static_cast<int>(port), batch.data(), batch.size());
    }
  });
}

// ---------------------------------------------------------------------------
// Sharded delivery (num_workers > 1)
// ---------------------------------------------------------------------------

namespace {

/// \brief Appends `tuple` to the per-shard slot(s) its routing selects.
void AppendByRouting(RoutingKey routing, const Sgt& tuple,
                     std::vector<std::vector<Sgt>>* slots) {
  switch (routing) {
    case RoutingKey::kBroadcast:
      for (auto& slot : *slots) slot.push_back(tuple);
      break;
    case RoutingKey::kEdgeValue:
      (*slots)[ShardOfEdge(tuple.src, tuple.trg, slots->size())].push_back(
          tuple);
      break;
  }
}

}  // namespace

void Executor::RouteToShards(const PortRef& dst, const Sgt& tuple) {
  // Driver thread only (MergeAndRoute runs after the parallel section), so
  // the dirty worklist needs no synchronization.
  MarkDirty(dst.op);
  OpNode& dn = nodes_[static_cast<std::size_t>(dst.op)];
  auto& slots = dn.shard_pending[static_cast<std::size_t>(dst.port)];
  // Single-instance operators and coordination-needing operators receive
  // the batch in global arrival order on slot 0 (the latter re-partition
  // at execution time, around deletion barriers).
  if (slots.size() == 1 || !dn.coordination.empty()) {
    slots[0].push_back(tuple);
    return;
  }
  AppendByRouting(dn.routing[static_cast<std::size_t>(dst.port)], tuple,
                  &slots);
}

bool Executor::OfferAtMerge(OpNode& node, const Sgt& tuple) {
  if (tuple.is_deletion) {
    // One coordinated deletion can retract the same output value on
    // several shards; a single instance emits that retraction once.
    if (!node.merge_retracted.insert(tuple.edge()).second) return false;
    node.merge_coalescer.Forget(tuple.edge(), tuple.validity.ts);
    return true;
  }
  node.merge_retracted.erase(tuple.edge());
  return node.merge_coalescer.Offer(tuple);
}

void Executor::MergeAndRoute(OpId id) {
  OpNode& node = nodes_[static_cast<std::size_t>(id)];
  // Shard-order concatenation: deterministic run-to-run because shard
  // sub-batches, and therefore per-shard emission sequences, are a pure
  // function of the input stream.
  for (std::vector<Sgt>& buffer : node.shard_emit) {
    for (const Sgt& tuple : buffer) {
      if (node.merge_coalesce && !OfferAtMerge(node, tuple)) {
        // A sibling shard already covered this emission; a single
        // instance's output coalescer would have suppressed it too.
        ++merge_suppressed_;
        continue;
      }
      for (const PortRef& dst : node.out.dests_) RouteToShards(dst, tuple);
    }
    buffer.clear();
  }
}

template <typename Fn>
void Executor::RunShardsMaybeParallel(std::size_t instances,
                                      std::size_t active_shards,
                                      Fn&& run_shard) {
  // A wave feeding a single shard (the common case at batch_size = 1
  // with hash routing) skips the pool dispatch; empty shards are no-ops.
  if (active_shards <= 1) {
    for (std::size_t s = 0; s < instances; ++s) run_shard(s);
  } else {
    pool_->ParallelFor(instances, run_shard);
  }
}

template <typename Fn>
void Executor::RunInstances(OpId id, bool parallel, Fn&& fn) {
  const std::size_t instances = NumInstances(id);
  if (!parallel || instances == 1) {
    // Inline in shard order: identical per-shard computation and merge
    // order, minus the pool dispatch.
    for (std::size_t s = 0; s < instances; ++s) fn(instance(id, s));
  } else {
    pool_->ParallelFor(instances,
                       [&](std::size_t s) { fn(instance(id, s)); });
  }
  MergeAndRoute(id);
}

void Executor::RunCoordinatedBatch(OpId id, int port,
                                   std::vector<Sgt>& batch) {
  OpNode& node = nodes_[static_cast<std::size_t>(id)];
  const std::size_t instances = NumInstances(id);
  const RoutingKey routing = node.routing[static_cast<std::size_t>(port)];
  std::vector<std::vector<Sgt>> split(instances);
  std::size_t i = 0;
  while (i < batch.size()) {
    if (!batch[i].is_deletion) {
      // Maximal run of positives: partition by the port's routing key and
      // process shard-parallel.
      for (auto& slot : split) slot.clear();
      std::size_t j = i;
      for (; j < batch.size() && !batch[j].is_deletion; ++j) {
        AppendByRouting(routing, batch[j], &split);
      }
      std::size_t active_shards = 0;
      for (const auto& slot : split) {
        if (!slot.empty()) ++active_shards;
      }
      RunShardsMaybeParallel(instances, active_shards, [&](std::size_t s) {
        if (!split[s].empty()) {
          instance(id, s)->OnBatch(port, split[s].data(), split[s].size());
        }
      });
      MergeAndRoute(id);
      i = j;
      continue;
    }
    // Two-phase deletion (see DeletionCoordination in core/physical.h).
    const Sgt deletion = batch[i++];
    std::vector<std::vector<EdgeRef>> retracted(instances);
    if (routing == RoutingKey::kBroadcast) {
      pool_->ParallelFor(instances, [&](std::size_t s) {
        retracted[s] = node.coordination[s]->RetractForDeletion(port,
                                                               deletion);
      });
    } else {
      // Hash-routed port: only the owner shard holds derivations of the
      // deleted binding.
      const ShardId owner =
          ShardOfEdge(deletion.src, deletion.trg, instances);
      retracted[owner] =
          node.coordination[owner]->RetractForDeletion(port, deletion);
    }
    MergeAndRoute(id);  // the negative tuples
    std::set<EdgeRef> all_retracted;
    for (const auto& shard_retracted : retracted) {
      all_retracted.insert(shard_retracted.begin(), shard_retracted.end());
    }
    if (!all_retracted.empty()) {
      const std::vector<EdgeRef> union_vec(all_retracted.begin(),
                                           all_retracted.end());
      pool_->ParallelFor(instances, [&](std::size_t s) {
        node.coordination[s]->ReassertRetracted(union_vec);
      });
      MergeAndRoute(id);  // the surviving re-assertions
    }
    // The retraction-dedup scope is exactly one deletion's two phases: a
    // later deletion of the same value only produces negatives if the
    // value was re-derived in between, which a single instance would also
    // re-retract.
    node.merge_retracted.clear();
  }
  batch.clear();
}

void Executor::RunShardedOpBatches(OpId id) {
  OpNode& node = nodes_[static_cast<std::size_t>(id)];
  auto& take = node.shard_scratch;
  if (!node.coordination.empty()) {
    for (std::size_t p = 0; p < take.size(); ++p) {
      if (!take[p][0].empty()) {
        RunCoordinatedBatch(id, static_cast<int>(p), take[p][0]);
      }
    }
    return;
  }
  const std::size_t instances = NumInstances(id);
  std::size_t active_shards = 0;
  for (std::size_t s = 0; s < instances && active_shards < 2; ++s) {
    for (std::size_t p = 0; p < take.size(); ++p) {
      if (!take[p][s].empty()) {
        ++active_shards;
        break;
      }
    }
  }
  RunShardsMaybeParallel(instances, active_shards, [&](std::size_t s) {
    PhysicalOp* shard_op = instance(id, s);
    for (std::size_t p = 0; p < take.size(); ++p) {
      auto& sub = take[p][s];
      if (!sub.empty()) {
        shard_op->OnBatch(static_cast<int>(p), sub.data(), sub.size());
        sub.clear();  // capacity kept for the next wave
      }
    }
  });
  MergeAndRoute(id);
}

void Executor::RunShardedWave() {
  PopDirtyWave([this](OpId id) {
    OpNode& node = nodes_[static_cast<std::size_t>(id)];
    bool has_input = false;
    for (const auto& port : node.shard_pending) {
      for (const auto& slot : port) {
        if (!slot.empty()) {
          has_input = true;
          break;
        }
      }
      if (has_input) break;
    }
    if (!has_input) return;
    ++ops_touched_;
    // Swap pending batches into the scratch (whose slots are empty but
    // hold the previous wave's capacity) so buffers are reused instead of
    // reallocated; emissions route into the now-empty pending slots.
    for (std::size_t p = 0; p < node.shard_pending.size(); ++p) {
      for (std::size_t s = 0; s < node.shard_pending[p].size(); ++s) {
        node.shard_scratch[p][s].swap(node.shard_pending[p][s]);
      }
    }
    RunShardedOpBatches(id);
  });
}

void Executor::DeliverSgesSharded(const Sge* sges, std::size_t n) {
  // Per-(source, shard) sub-batches, in ascending operator order so the
  // merge is deterministic.
  std::map<OpId, std::vector<std::vector<Sge>>> batches;
  auto append = [&](OpId source, const Sge& sge) {
    auto [entry, inserted] = batches.try_emplace(source);
    const std::size_t instances = NumInstances(source);
    if (inserted) entry->second.resize(instances);
    const std::size_t shard =
        instances == 1 ? 0 : ShardOfEdge(sge.src, sge.trg, instances);
    entry->second[shard].push_back(sge);
  };
  for (std::size_t k = 0; k < n; ++k) {
    const Sge& sge = sges[k];
    const QueryIndex::PostingList* postings = query_index_.Find(sge.label);
    const auto& wildcard = query_index_.wildcard();
    // Label not referenced by any query and no always-on source.
    if (postings == nullptr && wildcard.empty()) continue;
    edges_processed_.Add();
    if (postings != nullptr) {
      for (const OpId source : *postings) append(source, sge);
    }
    for (const OpId source : wildcard) append(source, sge);
  }
  if (batches.empty()) return;
  // Scans are stateless interval maps: running them inline (in shard
  // order, into per-shard capture buffers) is cheaper than a pool
  // dispatch; the heavy lifting parallelizes downstream.
  for (const auto& [source, per_shard] : batches) {
    MarkTouchedCone(source);
    ++ops_touched_;
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
      if (per_shard[s].empty()) continue;
      auto* src = static_cast<SourceOp*>(instance(source, s));
      for (const Sge& sge : per_shard[s]) src->OnSge(sge);
    }
    MergeAndRoute(source);
  }
  RunShardedWave();
}

template <typename Fn>
void Executor::RunOpPhase(Fn&& fn) {
  if (wave_mode()) {
    fn();  // emissions buffer in the pending queues until the next wave
    return;
  }
  // Tuple mode: collect the call's emissions, then run each cascade to
  // completion in emission order — the recursive engine's depth-first
  // order exactly.
  std::vector<std::pair<PortRef, Sgt>> segment;
  segment_ = &segment;
  fn();
  segment_ = nullptr;
  for (auto rit = segment.rbegin(); rit != segment.rend(); ++rit) {
    stack_.push_back(std::move(*rit));
  }
  DrainStack();
}

void Executor::DeliverSge(const Sge& sge) {
  const QueryIndex::PostingList* postings = query_index_.Find(sge.label);
  const auto& wildcard = query_index_.wildcard();
  // Label not referenced by any query and no always-on source.
  if (postings == nullptr && wildcard.empty()) return;
  edges_processed_.Add();
  // Label postings in registration order, then the wildcard bucket in
  // registration order (the ordering contract of query_index.h).
  auto deliver = [&](OpId source) {
    MarkTouchedCone(source);
    ++ops_touched_;
    auto* src = static_cast<SourceOp*>(
        nodes_[static_cast<std::size_t>(source)].op.get());
    RunOpPhase([&] { src->OnSge(sge); });
  };
  if (postings != nullptr) {
    for (const OpId source : *postings) deliver(source);
  }
  for (const OpId source : wildcard) deliver(source);
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

void Executor::TimeAdvanceWave(Timestamp now) {
  // Only operators with declared time-driven work can do anything in this
  // phase: every other OnTimeAdvance is the base no-op (core/physical.h
  // contract), so skipping them is exact. Negative-tuple operators can
  // emit retractions/re-derivations here; the waves deliver them.
  index_skipped_ += nodes_.size() - time_driven_ops_.size();
  if (sharded()) {
    // Time-driven work (Δ-tree expiry) is always worth a pool dispatch.
    for (const OpId id : time_driven_ops_) {
      ++ops_touched_;
      RunInstances(id, /*parallel=*/true,
                   [now](PhysicalOp* op) { op->OnTimeAdvance(now); });
    }
    RunShardedWave();
    return;
  }
  for (const OpId id : time_driven_ops_) {
    ++ops_touched_;
    PhysicalOp* op = nodes_[static_cast<std::size_t>(id)].op.get();
    RunOpPhase([&] { op->OnTimeAdvance(now); });
  }
  if (wave_mode()) RunWave();
}

void Executor::ProcessBoundary(Timestamp boundary) {
  Stopwatch timer;
  TimeAdvanceWave(boundary);
  if (sharded()) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const OpId id = static_cast<OpId>(i);
      if (nodes_[i].op == nullptr) continue;  // removed (tombstoned) slot
      if (!nodes_[i].touched) {
        // Never received input: every shard's StateSize() is 0, below the
        // purge watermark, so MaybePurge would return immediately.
        ++index_skipped_;
        continue;
      }
      // Worth a pool dispatch only when at least two shards will actually
      // run their O(state) purge scan; watermark checks run inline.
      const std::size_t instances = NumInstances(id);
      std::size_t due = 0;
      for (std::size_t s = 0; s < instances && due < 2; ++s) {
        if (instance(id, s)->PurgeDue()) ++due;
      }
      ++ops_touched_;
      RunInstances(id, /*parallel=*/due >= 2,
                   [boundary](PhysicalOp* op) { op->MaybePurge(boundary); });
    }
    RunShardedWave();
    for (OpNode& node : nodes_) {
      // Amortized merge-coalescer purge (memory only, like MaybePurge).
      if (!node.merge_coalesce ||
          node.merge_coalescer.NumKeys() < node.merge_purge_watermark) {
        continue;
      }
      node.merge_coalescer.PurgeBefore(boundary);
      node.merge_purge_watermark =
          std::max<std::size_t>(1024, 2 * node.merge_coalescer.NumKeys());
    }
  } else {
    for (auto& node : nodes_) {
      if (node.op == nullptr) continue;  // removed (tombstoned) slot
      if (!node.touched) {
        ++index_skipped_;  // StateSize() 0 < watermark: MaybePurge no-ops
        continue;
      }
      ++ops_touched_;
      RunOpPhase([&] { node.op->MaybePurge(boundary); });
    }
    if (wave_mode()) RunWave();
  }
  slide_accum_seconds_ += timer.ElapsedSeconds();
  // The paper's per-slide latency: all processing attributable to the
  // slide that just closed (arrivals within it plus expiry work).
  slide_latencies_.Record(slide_accum_seconds_);
  slide_accum_seconds_ = 0;
}

void Executor::AdvanceClock(Timestamp t) {
  if (!started_) {
    current_time_ = t;
    next_boundary_ = (t / slide_) * slide_ + slide_;
    started_ = true;
    return;
  }
  SGQ_CHECK_GE(t, current_time_) << "stream timestamps must be ordered";
  while (next_boundary_ <= t) {
    ProcessBoundary(next_boundary_);
    next_boundary_ += slide_;
  }
  if (t > current_time_) {
    // Exact expiry processing for negative-tuple operators (they check a
    // heap and return immediately when nothing is due).
    Stopwatch timer;
    TimeAdvanceWave(t);
    slide_accum_seconds_ += timer.ElapsedSeconds();
    current_time_ = t;
  }
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

void Executor::Ingest(const Sge& sge) {
  SGQ_CHECK(finalized_) << "Ingest before Finalize";
  const Timestamp floor = queue_.empty() ? current_time_ : queue_.back().t;
  if (started_ || !queue_.empty()) {
    SGQ_CHECK_GE(sge.t, floor) << "stream timestamps must be ordered";
  }
  edges_pushed_.Add();
  queue_.push_back(sge);
  if (queue_.size() >= options_.batch_size) Flush();
}

void Executor::ExecuteOrderedBatch(const Sge* sges, std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    // One micro-batch = one distinct timestamp: window boundaries and
    // expirations between groups are processed exactly as in
    // tuple-at-a-time mode.
    std::size_t j = i;
    while (j < n && sges[j].t == sges[i].t) ++j;
    AdvanceClock(sges[i].t);
    Stopwatch timer;
    if (sharded()) {
      DeliverSgesSharded(sges + i, j - i);
    } else {
      for (std::size_t k = i; k < j; ++k) DeliverSge(sges[k]);
      if (wave_mode()) RunWave();
    }
    slide_accum_seconds_ += timer.ElapsedSeconds();
    i = j;
  }
}

void Executor::Flush() {
  if (queue_.empty()) return;
  std::vector<Sge> batch;
  batch.swap(queue_);
  ExecuteOrderedBatch(batch.data(), batch.size());
}

void Executor::ExecutePipelinedBatch(const Sge* sges, std::size_t n) {
  // The pipeline bypasses Ingest(), so its ordering contract is enforced
  // here: within the batch and against the clock left by earlier batches.
  for (std::size_t k = 0; k < n; ++k) {
    const Timestamp floor = k > 0 ? sges[k - 1].t : current_time_;
    if (started_ || k > 0) {
      SGQ_CHECK_GE(sges[k].t, floor) << "stream timestamps must be ordered";
    }
  }
  edges_pushed_.Add(n);
  ExecuteOrderedBatch(sges, n);
}

namespace {

/// \brief Folds one pipeline run's counters into the executor's
/// cumulative stats.
void AccumulateIngestStats(IngestStats* total, const IngestStats& run) {
  total->ingest_stall_ns += run.ingest_stall_ns;
  total->exec_stall_ns += run.exec_stall_ns;
  total->batches += run.batches;
  total->late_dropped += run.late_dropped;
  total->ingest_pinned = run.ingest_pinned;
  total->merge_stall_ns += run.merge_stall_ns;
  if (run.parsers > 0) total->parsers = run.parsers;
  if (total->parser_stall_ns.size() < run.parser_stall_ns.size()) {
    total->parser_stall_ns.resize(run.parser_stall_ns.size(), 0);
    total->parser_busy_ns.resize(run.parser_busy_ns.size(), 0);
  }
  for (std::size_t p = 0; p < run.parser_stall_ns.size(); ++p) {
    total->parser_stall_ns[p] += run.parser_stall_ns[p];
    total->parser_busy_ns[p] += run.parser_busy_ns[p];
  }
}

}  // namespace

Status Executor::RunPipelined(const ChunkedStream& stream) {
  SGQ_CHECK(finalized_) << "RunPipelined before Finalize";
  IngestPipeline pipeline(this);
  const Status status = pipeline.Run(stream, options_.ingest_parsers);
  AccumulateIngestStats(&ingest_stats_, pipeline.stats());
  return status;
}

void Executor::AdvanceTo(Timestamp t) {
  SGQ_CHECK(finalized_) << "AdvanceTo before Finalize";
  Flush();
  AdvanceClock(t);
}

std::size_t Executor::StateSize() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.op == nullptr) continue;  // removed (tombstoned) slot
    n += node.op->StateSize();
    for (const auto& replica : node.replicas) n += replica->StateSize();
  }
  return n;
}

std::size_t Executor::StateBytes() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.op == nullptr) continue;  // removed (tombstoned) slot
    n += node.op->StateBytes();
    for (const auto& replica : node.replicas) n += replica->StateBytes();
  }
  return n;
}

void Executor::SerializeClock(std::string* out) const {
  PutI64(out, current_time_);
  PutI64(out, next_boundary_);
  PutU8(out, started_ ? 1 : 0);
  PutI64(out, slide_);
  PutI64(out, min_slide_);
  // Pending micro-batch queue: restoring it preserves batch grouping, so
  // the resumed run flushes at the same boundaries as the original.
  PutU64(out, queue_.size());
  for (const Sge& sge : queue_) PutSge(out, sge);
}

Status Executor::DeserializeClock(ByteReader* in) {
  SGQ_CHECK(finalized_) << "restore before Finalize";
  if (started_ || !queue_.empty()) {
    return in->Fail("executor not fresh before restore");
  }
  const Timestamp current_time = in->I64();
  const Timestamp next_boundary = in->I64();
  const bool started = in->U8() != 0;
  const Timestamp slide = in->I64();
  const Timestamp min_slide = in->I64();
  if (in->ok() && (slide != slide_ || min_slide != min_slide_)) {
    return in->Fail("window slide mismatch (checkpoint was taken with a "
                    "different query set)");
  }
  const std::uint64_t n = in->U64();
  for (std::uint64_t i = 0; i < n && in->ok(); ++i) {
    queue_.push_back(GetSge(in));
  }
  if (!in->ok()) return in->status();
  current_time_ = current_time;
  next_boundary_ = next_boundary;
  started_ = started;
  return Status::OK();
}

Status Executor::SerializeOps(CheckpointWriter* out) const {
  // One scratch string carries each operator instance's bytes to the
  // writer, its PutStr length prefix patched in place, so the largest
  // single payload bounds the memory this section costs.
  std::string scratch;
  PutU32(&scratch, static_cast<std::uint32_t>(nodes_.size()));
  for (const OpNode& node : nodes_) {
    // Tombstoned slots serialize as a single liveness byte: a removed
    // query's operators carry no sections, and restore refuses a snapshot
    // whose live set differs from the replayed registration history.
    PutU8(&scratch, node.op != nullptr ? 1 : 0);
    if (node.op == nullptr) continue;
    PutU8(&scratch, node.touched ? 1 : 0);
    PutU8(&scratch, node.merge_coalesce ? 1 : 0);
    if (node.merge_coalesce) {
      node.merge_coalescer.SerializeState(&scratch);
      PutU64(&scratch, node.merge_purge_watermark);
    }
    const std::size_t instances = 1 + node.replicas.size();
    PutU32(&scratch, static_cast<std::uint32_t>(instances));
    for (std::size_t s = 0; s < instances; ++s) {
      const PhysicalOp* inst =
          s == 0 ? node.op.get() : node.replicas[s - 1].get();
      PutU64(&scratch, inst->checkpoint_purge_watermark());
      const std::size_t length_at = PutLengthPlaceholder(&scratch);
      inst->SerializeState(&scratch);
      PatchLength(&scratch, length_at);
      SGQ_RETURN_NOT_OK(out->Append(scratch));
      scratch.clear();
    }
  }
  return out->Append(scratch);
}

Status Executor::DeserializeOps(ByteReader* in) {
  SGQ_CHECK(finalized_) << "restore before Finalize";
  const std::uint32_t num_nodes = in->U32();
  if (in->ok() && num_nodes != nodes_.size()) {
    return in->Fail("operator count mismatch (checkpoint was taken with a "
                    "different plan topology)");
  }
  for (std::size_t id = 0; id < nodes_.size() && in->ok(); ++id) {
    OpNode& node = nodes_[id];
    const bool live = in->U8() != 0;
    if (in->ok() && live != (node.op != nullptr)) {
      return in->Fail("operator " + std::to_string(id) +
                      " liveness mismatch (checkpoint was taken with a "
                      "different set of removed queries)");
    }
    if (!live) continue;
    node.touched = in->U8() != 0;
    const bool merge_coalesce = in->U8() != 0;
    if (in->ok() && merge_coalesce != node.merge_coalesce) {
      return in->Fail("merge-coalescer flag mismatch at operator " +
                      std::to_string(id));
    }
    if (node.merge_coalesce) {
      SGQ_RETURN_NOT_OK(node.merge_coalescer.DeserializeState(in));
      node.merge_purge_watermark = in->U64();
    }
    const std::uint32_t instances = in->U32();
    if (in->ok() && instances != 1 + node.replicas.size()) {
      return in->Fail("shard count mismatch at operator " +
                      std::to_string(id) +
                      " (checkpoint was taken with a different --workers)");
    }
    for (std::size_t s = 0; s < 1 + node.replicas.size() && in->ok(); ++s) {
      PhysicalOp* inst = s == 0 ? node.op.get() : node.replicas[s - 1].get();
      const std::uint64_t watermark = in->U64();
      const std::string blob = in->Str();
      if (!in->ok()) break;
      ByteReader sub(blob, in->context() + ": operator " +
                               std::to_string(id) + " (" + inst->Name() +
                               ") shard " + std::to_string(s));
      SGQ_RETURN_NOT_OK(inst->DeserializeState(&sub));
      SGQ_RETURN_NOT_OK(sub.ExpectEnd());
      inst->restore_purge_watermark(watermark);
    }
  }
  return in->status();
}

}  // namespace sgq
