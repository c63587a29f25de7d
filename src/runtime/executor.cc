#include "runtime/executor.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/logging.h"
#include "common/page_allocator.h"

namespace sgq {

// ---------------------------------------------------------------------------
// OutputChannel
// ---------------------------------------------------------------------------

void OutputChannel::Push(const Sgt& tuple) {
  if (capture_ != nullptr) {
    // Multi-instance operator: buffer locally, merge after the run.
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
  channels_.emplace_back();
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
  channels_[static_cast<std::size_t>(from)].dests_.push_back(PortRef{to, port});
  OpNode& dst = nodes_[static_cast<std::size_t>(to)];
  dst.ports = std::max(dst.ports, static_cast<std::size_t>(port) + 1);
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
  OutputChannel& out = channels_[i];
  out.exec_ = this;
  out.from_ = static_cast<OpId>(i);
  for (const PortRef& dst : out.dests_) {
    if (dst.op <= static_cast<OpId>(i)) {
      return Status::Internal("non-topological channel");
    }
  }
  const std::size_t instances = 1 + node.replicas.size();
  if (instances != 1 && instances != options_.num_workers) {
    return Status::Internal(
        "sharded operator must have 1 or num_workers instances");
  }
  node.slots.resize(node.ports * instances);
  if (instances == 1) {
    // A lone instance emits straight into its destinations' slots.
    node.op->BindOutput(&out);
    return Status::OK();
  }
  node.shards = std::make_unique<ShardState>();
  ShardState& shards = *node.shards;
  // Cache the per-port routing declared by the operator. Sources have no
  // input port: their sges go to the shard that owns the edge value.
  shards.routing.reserve(node.ports);
  for (std::size_t p = 0; p < node.ports; ++p) {
    shards.routing.push_back(node.op->InputRouting(static_cast<int>(p)));
  }
  if (node.source_wildcard || node.source_label != kInvalidLabel) {
    shards.gutters.resize(instances);
  }
  // Every instance emits into its own capture buffer; addresses are
  // stable because neither vector is resized after this point.
  shards.emit.resize(instances);
  shards.out.reserve(instances);
  for (std::size_t s = 0; s < instances; ++s) {
    shards.out.emplace_back(&shards.emit[s]);
    PhysicalOp* inst = instance(static_cast<OpId>(i), s);
    inst->BindOutput(&shards.out.back());
    // The shards share the operator's window partitions; the driver is
    // their only writer (DESIGN.md §2.4).
    inst->ReadSharedWindows();
  }
  shards.merge_coalesce = node.op->CoalesceAtMerge();
  if (node.op->NeedsDeletionCoordination()) {
    shards.coordination.reserve(instances);
    for (std::size_t s = 0; s < instances; ++s) {
      auto* coordination = dynamic_cast<DeletionCoordination*>(
          instance(static_cast<OpId>(i), s));
      if (coordination == nullptr) {
        return Status::Internal(
            "operator requests deletion coordination but does not "
            "implement DeletionCoordination");
      }
      shards.coordination.push_back(coordination);
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
    purge_due_.resize(options_.num_workers);
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
    ConfigureNodeExpirySlide(i);
  }
  finalized_ = true;
  finalized_nodes_ = nodes_.size();
  return Status::OK();
}

void Executor::ConfigureNodeExpirySlide(std::size_t i) {
  for (std::size_t s = 0; s < NumInstances(static_cast<OpId>(i)); ++s) {
    instance(static_cast<OpId>(i), s)->ConfigureExpirySlide(slide_);
  }
  if (StreamingCoalescer* coalescer = nodes_[i].merge_coalescer()) {
    coalescer->ConfigureExpirySlide(slide_);
  }
}

Status Executor::FinalizeNewOps() {
  if (!finalized_) return Status::Internal("FinalizeNewOps before Finalize");
  if (!queue_.empty() || !dirty_heap_.empty()) {
    return Status::Internal("FinalizeNewOps outside a batch boundary");
  }
  // Operators hold their bound channel by address. Appending may have
  // moved the node table, but not what the operators point at: engine-
  // mode channels live in the deque, capture channels in heap buffers the
  // nodes own. So only the appended nodes need binding.
  for (std::size_t i = finalized_nodes_; i < nodes_.size(); ++i) {
    SGQ_RETURN_NOT_OK(SetupNodeTopology(i));
    // The slide granularity is already fixed; the appended operators just
    // adopt it (RegisterSource refused finer slides). New ids are larger
    // than every existing one, so push_back keeps time_driven_ops_ in
    // ascending (wave) order.
    ConfigureNodeExpirySlide(i);
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
  if (!queue_.empty() || !dirty_heap_.empty()) {
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
    channels_[static_cast<std::size_t>(id)] = OutputChannel();
    node.ports = 0;
    node.slots.clear();
    node.shards.reset();
    node.dirty = false;
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
    auto& dests = channels_[static_cast<std::size_t>(from)].dests_;
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
    const auto& dests = channels_[i].destinations();
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

namespace {

/// \brief Empties a delivery buffer for reuse: it keeps its capacity for
/// the next wave unless it reached kPageMapBytes, which it gives back.
template <typename T>
void Recycle(std::vector<T>* buffer) {
  if (buffer->capacity() * sizeof(T) >= kPageMapBytes) {
    std::vector<T>().swap(*buffer);
  } else {
    buffer->clear();
  }
}

/// \brief Appends `tuple` to the one of `n` per-instance slots its
/// routing selects, or to all of them.
void AppendByRouting(RoutingKey routing, const Sgt& tuple,
                     std::vector<Sgt>* slots, std::size_t n) {
  switch (routing) {
    case RoutingKey::kBroadcast:
      for (std::size_t s = 0; s < n; ++s) slots[s].push_back(tuple);
      break;
    case RoutingKey::kEdgeValue:
      slots[ShardOfEdge(tuple.src, tuple.trg, n)].push_back(tuple);
      break;
  }
}

}  // namespace

void Executor::Route(const OutputChannel& channel, const Sgt& tuple) {
  for (const PortRef& dst : channel.dests_) RouteToShards(dst, tuple);
}

void Executor::RouteToShards(const PortRef& dst, const Sgt& tuple) {
  // Driver thread only (single-instance operators run there, and merges
  // follow the parallel section), so the dirty worklist needs no
  // synchronization.
  MarkDirty(dst.op);
  OpNode& dn = nodes_[static_cast<std::size_t>(dst.op)];
  const std::size_t instances = 1 + dn.replicas.size();
  std::vector<Sgt>* slots =
      dn.slots.data() + static_cast<std::size_t>(dst.port) * instances;
  // Single-instance operators and coordination-needing operators receive
  // the batch in global arrival order on slot 0 (the latter re-partition
  // at execution time, around deletion barriers).
  if (instances == 1 || !dn.shards->coordination.empty()) {
    slots[0].push_back(tuple);
    return;
  }
  AppendByRouting(dn.shards->routing[static_cast<std::size_t>(dst.port)],
                  tuple, slots, instances);
}

bool Executor::OfferAtMerge(ShardState& shards, const Sgt& tuple) {
  if (tuple.is_deletion) {
    // One coordinated deletion can retract the same output value on
    // several shards; a single instance emits that retraction once.
    if (!shards.merge_retracted.insert(tuple.edge()).second) return false;
    shards.merge_coalescer.Forget(tuple.edge(), tuple.validity.ts);
    return true;
  }
  shards.merge_retracted.erase(tuple.edge());
  return shards.merge_coalescer.Offer(tuple);
}

void Executor::MergeAndRoute(OpId id) {
  ShardState& shards = *nodes_[static_cast<std::size_t>(id)].shards;
  const std::vector<PortRef>& dests =
      channels_[static_cast<std::size_t>(id)].dests_;
  // Shard-order concatenation: deterministic run-to-run because shard
  // sub-batches, and therefore per-shard emission sequences, are a pure
  // function of the input stream.
  for (std::vector<Sgt>& buffer : shards.emit) {
    for (const Sgt& tuple : buffer) {
      if (shards.merge_coalesce && !OfferAtMerge(shards, tuple)) {
        // A sibling shard already covered this emission; a single
        // instance's output coalescer would have suppressed it too.
        ++merge_suppressed_;
        continue;
      }
      for (const PortRef& dst : dests) RouteToShards(dst, tuple);
    }
    Recycle(&buffer);
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
void Executor::RunInstances(OpId id, Fn&& fn) {
  if (nodes_[static_cast<std::size_t>(id)].replicas.empty()) {
    fn(nodes_[static_cast<std::size_t>(id)].op.get());
    return;
  }
  // Time-driven work (Δ-tree expiry) is always worth a pool dispatch.
  pool_->ParallelFor(NumInstances(id),
                     [&](std::size_t s) { fn(instance(id, s)); });
  MergeAndRoute(id);
}

void Executor::RunCoordinatedBatch(OpId id, int port,
                                   std::vector<Sgt>& batch) {
  OpNode& node = nodes_[static_cast<std::size_t>(id)];
  ShardState& shards = *node.shards;
  const std::size_t instances = NumInstances(id);
  const RoutingKey routing = shards.routing[static_cast<std::size_t>(port)];
  std::vector<std::vector<Sgt>> split(instances);
  std::size_t i = 0;
  while (i < batch.size()) {
    if (!batch[i].is_deletion) {
      // Maximal run of positives: partition by the port's routing key and
      // process shard-parallel, the run's window writes on this thread.
      for (auto& slot : split) slot.clear();
      std::size_t j = i;
      for (; j < batch.size() && !batch[j].is_deletion; ++j) {
        AppendByRouting(routing, batch[j], split.data(), instances);
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
      node.op->WriteWindows(port, batch.data() + i, j - i);
      MergeAndRoute(id);
      i = j;
      continue;
    }
    // Two-phase deletion (see DeletionCoordination in core/physical.h).
    const Sgt deletion = batch[i++];
    std::vector<std::vector<EdgeRef>> retracted(instances);
    if (routing == RoutingKey::kBroadcast) {
      pool_->ParallelFor(instances, [&](std::size_t s) {
        retracted[s] = shards.coordination[s]->RetractForDeletion(port,
                                                                 deletion);
      });
    } else {
      // Hash-routed port: only the owner shard holds derivations of the
      // deleted binding.
      const ShardId owner =
          ShardOfEdge(deletion.src, deletion.trg, instances);
      retracted[owner] =
          shards.coordination[owner]->RetractForDeletion(port, deletion);
    }
    MergeAndRoute(id);  // the negative tuples
    // The deleted value leaves the shared window between the phases: the
    // retraction replayed pre-deletion state, the re-assertion must not
    // see it.
    node.op->WriteWindows(port, &deletion, 1);
    std::set<EdgeRef> all_retracted;
    for (const auto& shard_retracted : retracted) {
      all_retracted.insert(shard_retracted.begin(), shard_retracted.end());
    }
    if (!all_retracted.empty()) {
      const std::vector<EdgeRef> union_vec(all_retracted.begin(),
                                           all_retracted.end());
      pool_->ParallelFor(instances, [&](std::size_t s) {
        shards.coordination[s]->ReassertRetracted(union_vec);
      });
      MergeAndRoute(id);  // the surviving re-assertions
    }
    // The retraction-dedup scope is exactly one deletion's two phases: a
    // later deletion of the same value only produces negatives if the
    // value was re-derived in between, which a single instance would also
    // re-retract.
    shards.merge_retracted.clear();
  }
  Recycle(&batch);
}

void Executor::RunOpSlots(OpId id) {
  OpNode& node = nodes_[static_cast<std::size_t>(id)];
  const std::size_t instances = 1 + node.replicas.size();
  std::vector<Sgt>* slots = node.slots.data();
  if (node.shards != nullptr && !node.shards->coordination.empty()) {
    for (std::size_t p = 0; p < node.ports; ++p) {
      std::vector<Sgt>& batch = slots[p * instances];
      if (batch.empty()) continue;
      ++ops_touched_;
      RunCoordinatedBatch(id, static_cast<int>(p), batch);
    }
    return;
  }
  auto empty = [](const std::vector<Sgt>& slot) { return slot.empty(); };
  for (std::size_t p = 0; p < node.ports; ++p) {
    const std::vector<Sgt>* port = slots + p * instances;
    if (std::all_of(port, port + instances, empty)) continue;
    ++ops_touched_;
    // The wave's window writes run here, on the driver; the shards then
    // only read the partitions they share.
    if (instances > 1 && !port[0].empty()) {
      node.op->WriteWindows(static_cast<int>(p), port[0].data(),
                            port[0].size());
    }
  }
  std::size_t active_shards = 0;
  for (std::size_t s = 0; s < instances && active_shards < 2; ++s) {
    for (std::size_t p = 0; p < node.ports; ++p) {
      if (!slots[p * instances + s].empty()) {
        ++active_shards;
        break;
      }
    }
  }
  RunShardsMaybeParallel(instances, active_shards, [&](std::size_t s) {
    PhysicalOp* inst = instance(id, s);
    for (std::size_t p = 0; p < node.ports; ++p) {
      std::vector<Sgt>& slot = slots[p * instances + s];
      if (slot.empty()) continue;
      inst->OnBatch(static_cast<int>(p), slot.data(), slot.size());
      Recycle(&slot);
    }
  });
  // A lone instance emitted straight into its destinations' slots.
  if (instances > 1) MergeAndRoute(id);
}

void Executor::RunWave() {
  PopDirtyWave([this](OpId id) { RunOpSlots(id); });
}

void Executor::DeliverSges(const Sge* sges, std::size_t n) {
  const auto& wildcard = query_index_.wildcard();
  for (std::size_t k = 0; k < n; ++k) {
    const Sge& sge = sges[k];
    const QueryIndex::PostingList* postings = query_index_.Find(sge.label);
    // Label not referenced by any query and no always-on source.
    if (postings == nullptr && wildcard.empty()) continue;
    edges_processed_.Add();
    // Label postings in registration order, then the wildcard bucket in
    // registration order (the ordering contract of query_index.h).
    auto deliver = [&](OpId source) {
      OpNode& node = nodes_[static_cast<std::size_t>(source)];
      if (node.replicas.empty()) {
        ++ops_touched_;
        static_cast<SourceOp*>(node.op.get())->OnSge(sge);
        return;
      }
      if (!node.gutter_queued) {
        node.gutter_queued = true;
        gutter_ops_.push_back(source);
      }
      std::vector<std::vector<Sge>>& gutters = node.shards->gutters;
      gutters[ShardOfEdge(sge.src, sge.trg, gutters.size())].push_back(sge);
    };
    if (postings != nullptr) {
      for (const OpId source : *postings) deliver(source);
    }
    for (const OpId source : wildcard) deliver(source);
  }
  // Multi-instance sources run in ascending operator order, so the merge
  // is deterministic. Scans are stateless interval maps: running them
  // inline (in shard order, into per-shard capture buffers) is cheaper
  // than a pool dispatch; the heavy lifting parallelizes downstream.
  std::sort(gutter_ops_.begin(), gutter_ops_.end());
  for (const OpId source : gutter_ops_) {
    ++ops_touched_;
    OpNode& node = nodes_[static_cast<std::size_t>(source)];
    std::vector<std::vector<Sge>>& gutters = node.shards->gutters;
    for (std::size_t s = 0; s < gutters.size(); ++s) {
      auto* src = static_cast<SourceOp*>(instance(source, s));
      for (const Sge& sge : gutters[s]) src->OnSge(sge);
      Recycle(&gutters[s]);
    }
    node.gutter_queued = false;
    MergeAndRoute(source);
  }
  gutter_ops_.clear();
  RunWave();
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

void Executor::TimeAdvanceWave(Timestamp now) {
  // Only operators with declared time-driven work can do anything in this
  // phase: every other OnTimeAdvance is the base no-op (core/physical.h
  // contract), so skipping them is exact. Negative-tuple operators can
  // emit retractions/re-derivations here; the wave delivers them.
  index_skipped_ += nodes_.size() - time_driven_ops_.size();
  for (const OpId id : time_driven_ops_) {
    ++ops_touched_;
    RunInstances(id, [now](PhysicalOp* op) { op->OnTimeAdvance(now); });
  }
  RunWave();
}

void Executor::ProcessBoundary(Timestamp boundary) {
  Stopwatch timer;
  TimeAdvanceWave(boundary);
  // Exact purge: every operator with expired state due drops exactly that
  // state. PurgeDue is O(1), so an operator with nothing due — one that
  // never received input among them — costs one check.
  if (sharded()) {
    PurgeDueShards(boundary);
  } else {
    for (auto& node : nodes_) {
      if (node.op == nullptr) continue;  // removed (tombstoned) slot
      if (!node.op->PurgeDue(boundary)) {
        ++index_skipped_;
        continue;
      }
      ++ops_touched_;
      node.op->Purge(boundary);  // emits straight into the slots
    }
  }
  RunWave();
  if (sharded()) {
    // Merge coalescers drain their calendars like any other coalescer.
    for (OpNode& node : nodes_) {
      if (StreamingCoalescer* coalescer = node.merge_coalescer()) {
        coalescer->PurgeBefore(boundary);
      }
    }
  }
  slide_accum_seconds_ += timer.ElapsedSeconds();
  // The paper's per-slide latency: all processing attributable to the
  // slide that just closed (arrivals within it plus expiry work).
  slide_latencies_.Record(slide_accum_seconds_);
  slide_accum_seconds_ = 0;
}

void Executor::PurgeDueShards(Timestamp boundary) {
  // The shards share their window partitions and only read them, so the
  // partitions purge here, once each, before the shards purge their own
  // state. Then one dispatch covers every due (operator, shard) pair:
  // worker s purges shard s of each due operator in ascending id order.
  window_store_.PurgeExpired(boundary);
  for (std::vector<OpId>& due : purge_due_) due.clear();
  purge_due_ops_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const OpId id = static_cast<OpId>(i);
    const OpNode& node = nodes_[i];
    if (node.op == nullptr) continue;  // removed (tombstoned) slot
    bool any = false;
    if (node.replicas.empty()) {
      // A lone instance purges on the driver, below.
      any = node.op->PurgeDue(boundary);
    } else {
      for (std::size_t s = 0; s < NumInstances(id); ++s) {
        if (!instance(id, s)->PurgeDue(boundary)) continue;
        purge_due_[s].push_back(id);
        any = true;
      }
    }
    if (!any) {
      ++index_skipped_;
      continue;
    }
    ++ops_touched_;
    purge_due_ops_.push_back(id);
  }
  if (purge_due_ops_.empty()) return;
  auto run_shard = [&](std::size_t s) {
    for (const OpId id : purge_due_[s]) instance(id, s)->Purge(boundary);
  };
  std::size_t active_shards = 0;
  for (const std::vector<OpId>& due : purge_due_) {
    if (!due.empty()) ++active_shards;
  }
  RunShardsMaybeParallel(purge_due_.size(), active_shards, run_shard);
  for (const OpId id : purge_due_ops_) {
    OpNode& node = nodes_[static_cast<std::size_t>(id)];
    if (node.replicas.empty()) {
      node.op->Purge(boundary);  // emits straight into the slots
    } else {
      MergeAndRoute(id);
    }
  }
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
    // expirations between groups are processed exactly as when every
    // element flushes alone.
    std::size_t j = i;
    while (j < n && sges[j].t == sges[i].t) ++j;
    AdvanceClock(sges[i].t);
    Stopwatch timer;
    DeliverSges(sges + i, j - i);
    slide_accum_seconds_ += timer.ElapsedSeconds();
    i = j;
  }
}

void Executor::Flush() {
  if (queue_.empty()) return;
  // The batch runs from the second buffer, so the queue is empty while it
  // executes; nothing the batch runs ingests or flushes. Swapping and
  // clearing keeps both buffers' capacity: ingest allocates no new queue
  // after every flush.
  batch_.swap(queue_);
  ExecuteOrderedBatch(batch_.data(), batch_.size());
  batch_.clear();
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

Status Executor::RunPipelined(const FileChunkSource& stream) {
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
  std::size_t n = window_store_.NumEntries();
  for (const auto& node : nodes_) {
    if (node.op == nullptr) continue;  // removed (tombstoned) slot
    n += node.op->StateSize();
    for (const auto& replica : node.replicas) n += replica->StateSize();
    if (const StreamingCoalescer* c = node.merge_coalescer()) {
      n += c->NumKeys();
    }
  }
  return n;
}

std::size_t Executor::StateBytes() const {
  std::size_t n = window_store_.StateBytes();
  for (const auto& node : nodes_) {
    if (node.op == nullptr) continue;  // removed (tombstoned) slot
    n += node.op->StateBytes();
    for (const auto& replica : node.replicas) n += replica->StateBytes();
    if (const StreamingCoalescer* c = node.merge_coalescer()) {
      n += c->ApproxBytes();
    }
  }
  return n;
}

void Executor::SerializeClock(PayloadOut* out) const {
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

void Executor::SerializeOps(PayloadOut* out) const {
  PutU32(out, static_cast<std::uint32_t>(nodes_.size()));
  for (const OpNode& node : nodes_) {
    // Tombstoned slots serialize as a single liveness byte: a removed
    // query's operators carry no sections, and restore refuses a snapshot
    // whose live set differs from the replayed registration history.
    PutU8(out, node.op != nullptr ? 1 : 0);
    if (node.op == nullptr) continue;
    const StreamingCoalescer* coalescer = node.merge_coalescer();
    PutU8(out, coalescer != nullptr ? 1 : 0);
    if (coalescer != nullptr) coalescer->SerializeState(out);
    const std::size_t instances = 1 + node.replicas.size();
    PutU32(out, static_cast<std::uint32_t>(instances));
    for (std::size_t s = 0; s < instances; ++s) {
      const PhysicalOp* inst =
          s == 0 ? node.op.get() : node.replicas[s - 1].get();
      out->BeginBlob();
      inst->SerializeState(out);
      out->EndBlob();
    }
  }
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
    StreamingCoalescer* coalescer = node.merge_coalescer();
    const bool merge_coalesce = in->U8() != 0;
    if (in->ok() && merge_coalesce != (coalescer != nullptr)) {
      return in->Fail("merge-coalescer flag mismatch at operator " +
                      std::to_string(id));
    }
    if (coalescer != nullptr) {
      SGQ_RETURN_NOT_OK(coalescer->DeserializeState(in));
    }
    const std::uint32_t instances = in->U32();
    if (in->ok() && instances != 1 + node.replicas.size()) {
      return in->Fail("shard count mismatch at operator " +
                      std::to_string(id) +
                      " (checkpoint was taken with a different --workers)");
    }
    for (std::size_t s = 0; s < 1 + node.replicas.size() && in->ok(); ++s) {
      PhysicalOp* inst = s == 0 ? node.op.get() : node.replicas[s - 1].get();
      const std::string_view blob = in->StrView();
      if (!in->ok()) break;
      ByteReader sub(blob, in->context() + ": operator " +
                               std::to_string(id) + " (" + inst->Name() +
                               ") shard " + std::to_string(s));
      SGQ_RETURN_NOT_OK(inst->DeserializeState(&sub));
      SGQ_RETURN_NOT_OK(sub.ExpectEnd());
    }
  }
  return in->status();
}

}  // namespace sgq
