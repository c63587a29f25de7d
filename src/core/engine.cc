#include "core/engine.h"

#include <functional>
#include <utility>

#include "algebra/translate.h"
#include "common/logging.h"
#include "core/delta_path_op.h"
#include "core/pattern_op.h"
#include "core/spath_op.h"

namespace sgq {

namespace {

ExecutorOptions ToExecutorOptions(const EngineOptions& options) {
  ExecutorOptions exec_options;
  exec_options.batch_size = options.batch_size;
  exec_options.num_workers = options.num_workers == 0 ? 1
                                                      : options.num_workers;
  exec_options.pin_workers = options.pin_workers;
  exec_options.ingest_slack = options.ingest_slack;
  exec_options.ingest_parsers =
      options.ingest_parsers == 0 ? 1 : options.ingest_parsers;
  return exec_options;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), executor_(ToExecutorOptions(options_)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

Engine::~Engine() {
  // Join the background checkpoint write; its status has nowhere to go
  // from a destructor (callers who care run WaitForCheckpoint first).
  if (checkpoint_writer_.joinable()) checkpoint_writer_.join();
}

SinkOp* Engine::sink(QueryId q) const {
  SGQ_CHECK_GE(q, 0);
  SGQ_CHECK_LT(static_cast<std::size_t>(q), sinks_.size());
  // A removed query has no sink; callers must check IsLive first.
  SGQ_CHECK(sinks_[static_cast<std::size_t>(q)] != nullptr);
  return sinks_[static_cast<std::size_t>(q)];
}

OpId Engine::QueryRoot(QueryId q) const {
  SGQ_CHECK_GE(q, 0);
  SGQ_CHECK_LT(static_cast<std::size_t>(q), roots_.size());
  return roots_[static_cast<std::size_t>(q)];
}

Result<QueryId> Engine::AddPlan(const LogicalOp& plan,
                                const Vocabulary& vocab) {
  SGQ_RETURN_NOT_OK(ValidatePlan(plan, vocab));
  return AddValidPlan(plan, vocab);
}

Result<QueryId> Engine::AddValidPlan(const LogicalOp& plan,
                                     const Vocabulary& vocab) {
  if (finalized_) {
    // Live attach (DESIGN.md §10): all admission checks run before any
    // mutation, so a refused SUBSCRIBE leaves the engine running. The
    // attach itself lands at a batch boundary.
    SGQ_RETURN_NOT_OK(CheckLiveAttachable(plan));
    executor_.Flush();
  }
  if (!options_.cross_query_sharing) {
    // Sharing scoped to one query: dedup only within this registration.
    subtree_dedup_.clear();
  }
  ops_before_current_plan_ = executor_.NumOps();
  const std::vector<std::string> sigs = PlanSignatures(plan);
  std::size_t next_sig = 0;
  SGQ_ASSIGN_OR_RETURN(OpId root, Build(plan, sigs, &next_sig));

  // Results are coalesced (Def. 11). PATTERN and PATH coalesce their own
  // output; re-coalescing at the sink would only repeat the work.
  // UNION/FILTER/WSCAN roots can still emit snapshot-redundant tuples, so
  // the sink coalesces for them.
  const bool root_coalesces = plan.kind == LogicalOpKind::kPattern ||
                              plan.kind == LogicalOpKind::kPath;
  auto sink = std::make_unique<SinkOp>(!root_coalesces);
  SinkOp* sink_ptr = sink.get();
  const OpId sink_id = executor_.AddOp(std::move(sink));
  SGQ_RETURN_NOT_OK(executor_.Connect(root, sink_id, 0));
  RecordOp(sink_id, /*sig=*/"", {root}, {});
  if (finalized_) {
    SGQ_RETURN_NOT_OK(executor_.FinalizeNewOps());
  }

  sinks_.push_back(sink_ptr);
  roots_.push_back(root);
  plan_texts_.push_back(plan.ToString(vocab));
  query_live_.push_back(true);
  ++live_queries_;

  // The sharing refcounts: every operator reachable from this query's
  // sink (through compile-time children, shared subtrees included) gains
  // one reference. RemoveQuery decrements the same set. The walk marks
  // what it reaches and clears exactly those marks, so it costs what it
  // reaches, not the whole operator table.
  const QueryId q = static_cast<QueryId>(sinks_.size() - 1);
  std::vector<OpId> reachable;
  std::vector<OpId> work = {sink_id};
  while (!work.empty()) {
    const OpId id = work.back();
    work.pop_back();
    OpRecord& record = ops_[static_cast<std::size_t>(id)];
    if (record.walk_seen) continue;
    record.walk_seen = true;
    reachable.push_back(id);
    for (OpId child : record.children) work.push_back(child);
  }
  for (OpId id : reachable) {
    OpRecord& record = ops_[static_cast<std::size_t>(id)];
    ++record.refs;
    record.walk_seen = false;
  }
  query_ops_.push_back(std::move(reachable));
  return q;
}

Status Engine::CheckLiveAttachable(const LogicalOp& plan) const {
  // The slide granularity was fixed at Finalize; a finer window slide
  // would need boundary instants the running clock already passed. Walk
  // the plan BEFORE compiling so refusal has no side effects.
  if (plan.kind == LogicalOpKind::kWScan &&
      plan.window.slide < executor_.slide()) {
    return Status::InvalidArgument(
        "live attach refused: window slide " +
        std::to_string(plan.window.slide) +
        " is finer than the running engine granularity " +
        std::to_string(executor_.slide()) +
        " (fixed when the engine was finalized)");
  }
  for (const auto& child : plan.children) {
    SGQ_RETURN_NOT_OK(CheckLiveAttachable(*child));
  }
  return Status::OK();
}

void Engine::RecordOp(OpId id, std::string sig, std::vector<OpId> children,
                      std::vector<std::string> window_keys) {
  const std::size_t need = static_cast<std::size_t>(id) + 1;
  if (ops_.size() < need) ops_.resize(need);
  OpRecord& record = ops_[static_cast<std::size_t>(id)];
  record.sig = std::move(sig);
  record.children = std::move(children);
  record.window_keys = std::move(window_keys);
}

Status Engine::RemoveQuery(QueryId q) {
  if (!finalized_) {
    return Status::Internal("Engine::RemoveQuery before Finalize");
  }
  if (q < 0 || static_cast<std::size_t>(q) >= sinks_.size()) {
    return Status::InvalidArgument("RemoveQuery: unknown query " +
                                   std::to_string(q));
  }
  if (!query_live_[static_cast<std::size_t>(q)]) {
    return Status::InvalidArgument("RemoveQuery: query " + std::to_string(q) +
                                   " was already removed");
  }
  // Detach at a batch boundary: buffered input still belongs to the query.
  executor_.Flush();

  // Decrement the sharing refcounts of every operator this query reaches;
  // the zero-reference subset is the removed subtree. Channels only point
  // child -> parent, so every surviving consumer of a dead operator would
  // keep it reachable from a live sink — dead operators' consumers are
  // therefore all dead, and unlinking only needs the (live child, dead
  // parent) frontier edges. The whole teardown is O(removed subtree).
  std::vector<OpId> dead;
  for (OpId id : query_ops_[static_cast<std::size_t>(q)]) {
    if (--ops_[static_cast<std::size_t>(id)].refs == 0) dead.push_back(id);
  }
  std::vector<std::pair<OpId, OpId>> unlink;
  for (OpId id : dead) {
    OpRecord& record = ops_[static_cast<std::size_t>(id)];
    // The dedup map must forget the signature, and a join's head-label-
    // free key, or a later registration would resolve to a destroyed
    // operator. (With cross_query_sharing off the map is cleared per
    // registration; the entry may be stale. A relabel UNION's signature
    // yields its join's key, which the guard leaves to the join.)
    for (const std::string& key : {record.sig, JoinSignature(record.sig)}) {
      if (key.empty()) continue;
      auto it = subtree_dedup_.find(key);
      if (it != subtree_dedup_.end() && it->second == id) {
        subtree_dedup_.erase(it);
      }
    }
    for (const std::string& key : record.window_keys) {
      SGQ_RETURN_NOT_OK(executor_.window_store()->Release(key));
    }
    for (OpId child : record.children) {
      if (ops_[static_cast<std::size_t>(child)].refs > 0) {
        unlink.emplace_back(child, id);
      }
    }
    record = OpRecord{};  // frees the strings and vectors
  }
  SGQ_RETURN_NOT_OK(executor_.RemoveOps(dead, unlink));

  sinks_[static_cast<std::size_t>(q)] = nullptr;
  roots_[static_cast<std::size_t>(q)] = kInvalidOpId;
  query_live_[static_cast<std::size_t>(q)] = false;
  query_ops_[static_cast<std::size_t>(q)].clear();
  query_ops_[static_cast<std::size_t>(q)].shrink_to_fit();
  --live_queries_;
  return Status::OK();
}

bool Engine::IsLive(QueryId q) const {
  SGQ_CHECK_GE(q, 0);
  SGQ_CHECK_LT(static_cast<std::size_t>(q), query_live_.size());
  return query_live_[static_cast<std::size_t>(q)];
}

int Engine::OperatorRefCount(OpId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= ops_.size()) return 0;
  return ops_[static_cast<std::size_t>(id)].refs;
}

Result<QueryId> Engine::AddQuery(const StreamingGraphQuery& query,
                                 const Vocabulary& vocab) {
  // Translation validates the plan it returns.
  SGQ_ASSIGN_OR_RETURN(LogicalPlan plan,
                       TranslateToCanonicalPlan(query, vocab));
  return AddValidPlan(*plan, vocab);
}

Status Engine::Finalize() {
  if (finalized_) return Status::Internal("Engine::Finalize called twice");
  SGQ_RETURN_NOT_OK(executor_.Finalize());
  finalized_ = true;
  return Status::OK();
}

void Engine::PushAll(const InputStream& stream) {
  for (const Sge& sge : stream) Push(sge);
  executor_.Flush();
}

std::string Engine::Explain() const {
  std::string out;
  for (std::size_t i = 0; i < plan_texts_.size(); ++i) {
    if (plan_texts_.size() > 1) {
      out += "-- query " + std::to_string(i) +
             (query_live_[i] ? "" : " (removed)") + " --\n";
    }
    out += plan_texts_[i];
  }
  out += "-- runtime topology --\n" + executor_.DescribeTopology();
  return out;
}

// ---------------------------------------------------------------------------
// Checkpoint/restore (DESIGN.md §7)
// ---------------------------------------------------------------------------

namespace {

/// Section names of the engine-owned SGQC sections; anything else in a
/// checkpoint is an extra returned verbatim by Restore.
constexpr const char* kEngineSections[] = {"meta",    "queries", "vocab",
                                           "clock",   "windows", "ops",
                                           "engine"};

bool IsEngineSection(const std::string& name) {
  for (const char* s : kEngineSections) {
    if (name == s) return true;
  }
  return false;
}

void PutKeyValues(
    PayloadOut* out,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  PutU32(out, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [key, value] : pairs) {
    PutStr(out, key);
    PutStr(out, value);
  }
}

}  // namespace

std::vector<std::pair<std::string, std::string>> Engine::IdentityKeys()
    const {
  // The options that shape runtime state or emission order: restoring a
  // snapshot under different values would bind state to a topology with
  // different semantics, so Restore refuses on any mismatch.
  return {
      {"path_impl",
       options_.path_impl == PathImpl::kSPath ? "spath" : "delta-path"},
      {"batch_size", std::to_string(options_.batch_size)},
      {"num_workers", std::to_string(options_.num_workers)},
      {"cross_query_sharing", options_.cross_query_sharing ? "1" : "0"},
  };
}

std::vector<std::pair<std::string, std::string>> Engine::InformationalKeys()
    const {
  // Ingest-side knobs change how bytes become elements, not what operator
  // state means — recorded for checkpoint_inspect, never refused.
  return {
      {"ingest_parsers", std::to_string(options_.ingest_parsers)},
      {"ingest_slack", std::to_string(options_.ingest_slack)},
      {"pin_workers", options_.pin_workers ? "1" : "0"},
  };
}

Status Engine::EncodeCheckpointSections(
    CheckpointWriter* writer, const Vocabulary* vocab,
    const std::vector<std::pair<std::string, std::string>>& extra) const {
  // Every payload goes through one PayloadOut, which hands the writer
  // 64 KiB pieces: the snapshot never exists in memory as a whole, and
  // no section or operator payload does either.
  PayloadOut out(writer);
  auto section = [&](std::string_view name, auto&& fill) -> Status {
    SGQ_RETURN_NOT_OK(writer->BeginSection(name));
    fill();
    SGQ_RETURN_NOT_OK(out.Flush());
    return writer->EndSection();
  };

  SGQ_RETURN_NOT_OK(section("meta", [&] {
    PutKeyValues(&out, IdentityKeys());
    PutKeyValues(&out, InformationalKeys());
  }));

  // Registration history, not just the live set: (plan, live) per ever-
  // registered query. QueryIds index this list, so a restore target must
  // replay the same adds AND the same removals for ids to line up.
  SGQ_RETURN_NOT_OK(section("queries", [&] {
    PutU32(&out, static_cast<std::uint32_t>(plan_texts_.size()));
    for (std::size_t i = 0; i < plan_texts_.size(); ++i) {
      PutStr(&out, plan_texts_[i]);
      PutU8(&out, query_live_[i] ? 1 : 0);
    }
  }));

  if (vocab != nullptr) {
    SGQ_RETURN_NOT_OK(section("vocab", [&] {
      const std::size_t num_labels = vocab->NumLabels();
      PutU32(&out, static_cast<std::uint32_t>(num_labels));
      for (std::size_t i = 0; i < num_labels; ++i) {
        const LabelId label = static_cast<LabelId>(i);
        PutStr(&out, vocab->LabelName(label));
        PutU8(&out, vocab->IsInputLabel(label) ? 1 : 0);
      }
      const std::size_t num_vertices = vocab->NumVertices();
      PutU64(&out, num_vertices);
      for (std::size_t i = 0; i < num_vertices; ++i) {
        PutStr(&out, vocab->VertexName(static_cast<VertexId>(i)));
      }
    }));
  }

  SGQ_RETURN_NOT_OK(
      section("clock", [&] { executor_.SerializeClock(&out); }));
  SGQ_RETURN_NOT_OK(section(
      "windows", [&] { executor_.window_store()->SerializeState(&out); }));
  SGQ_RETURN_NOT_OK(section("ops", [&] { executor_.SerializeOps(&out); }));
  SGQ_RETURN_NOT_OK(section("engine", [&] { PutU64(&out, ingested()); }));

  for (const auto& [name, payload] : extra) {
    SGQ_RETURN_NOT_OK(writer->BeginSection(name));
    SGQ_RETURN_NOT_OK(writer->Append(payload));
    SGQ_RETURN_NOT_OK(writer->EndSection());
  }
  return writer->Finish();
}

Status Engine::Checkpoint(
    const std::string& path, const Vocabulary* vocab,
    std::vector<std::pair<std::string, std::string>> extra) {
  if (!finalized_) {
    return Status::Internal("Engine::Checkpoint before Finalize");
  }
  // One write in flight at a time; a failure of the previous write
  // surfaces here, before the new snapshot replaces its bytes.
  SGQ_RETURN_NOT_OK(WaitForCheckpoint());

  // Serialization streams straight into the temp file; it is the only
  // stall the ingest loop observes (checkpoint_write_ns, which therefore
  // includes the buffered writes into the page cache). A write error
  // surfaces here, and the file's destructor removes the temp file. The
  // background thread only makes the file durable and visible: fsync,
  // close, rename, directory fsync.
  Stopwatch timer;
  auto file = std::make_unique<CheckpointFile>(path);
  const Status st = EncodeCheckpointSections(file->writer(), vocab, extra);
  checkpoint_write_ns_ +=
      static_cast<std::uint64_t>(timer.ElapsedSeconds() * 1e9);
  if (!st.ok()) return st;
  checkpoint_bytes_ += file->writer()->bytes_written();

  checkpoint_writer_ = std::thread([this, file = std::move(file)]() mutable {
    checkpoint_write_status_ = file->Commit();
    file.reset();  // a failed commit's temp file is gone before the join
  });
  return Status::OK();
}

Status Engine::WaitForCheckpoint() {
  if (checkpoint_writer_.joinable()) checkpoint_writer_.join();
  Status st = checkpoint_write_status_;
  checkpoint_write_status_ = Status::OK();
  return st;
}

Status Engine::Restore(
    const std::string& path, Vocabulary* vocab,
    std::unordered_map<std::string, std::string>* extra_out) {
  if (!finalized_) {
    return Status::Internal("Engine::Restore before Finalize");
  }
  SGQ_ASSIGN_OR_RETURN(CheckpointReader reader,
                       CheckpointReader::ParseFile(path));
  return RestoreFrom(reader, vocab, extra_out);
}

Status Engine::RestoreFrom(
    const CheckpointReader& reader, Vocabulary* vocab,
    std::unordered_map<std::string, std::string>* extra_out) {
  if (ingested() != 0) {
    return Status::Internal("Engine::Restore on a non-fresh engine");
  }

  // 1. Identity keys: refuse a snapshot whose state-affecting options
  //    differ from this engine's (listing every mismatch at once).
  SGQ_ASSIGN_OR_RETURN(ByteReader meta, reader.Open("meta"));
  const auto expected = IdentityKeys();
  const std::uint32_t n_keys = meta.U32();
  if (meta.ok() && n_keys != expected.size()) {
    return meta.Fail("identity key count mismatch (checkpoint format from "
                     "a different engine revision)");
  }
  std::string mismatches;
  for (std::uint32_t i = 0; i < n_keys && meta.ok(); ++i) {
    const std::string key = meta.Str();
    const std::string value = meta.Str();
    if (!meta.ok()) break;
    if (key != expected[i].first) {
      return meta.Fail("unexpected identity key '" + key + "' (want '" +
                       expected[i].first + "')");
    }
    if (value != expected[i].second) {
      mismatches += (mismatches.empty() ? "" : ", ") + key + ": checkpoint " +
                    value + " vs engine " + expected[i].second;
    }
  }
  SGQ_RETURN_NOT_OK(meta.status());
  if (!mismatches.empty()) {
    return meta.Fail("EngineOptions identity mismatch — " + mismatches);
  }

  // 2. Query set: the restored topology must have been rebuilt from the
  //    same plans in the same order.
  SGQ_ASSIGN_OR_RETURN(ByteReader queries, reader.Open("queries"));
  const std::uint32_t n_queries = queries.U32();
  if (queries.ok() && n_queries != plan_texts_.size()) {
    return queries.Fail(
        "query count mismatch: checkpoint has " + std::to_string(n_queries) +
        ", engine has " + std::to_string(plan_texts_.size()));
  }
  for (std::uint32_t i = 0; i < n_queries && queries.ok(); ++i) {
    const std::string text = queries.Str();
    const bool live = queries.U8() != 0;
    if (!queries.ok()) break;
    if (text != plan_texts_[i]) {
      return queries.Fail("query " + std::to_string(i) +
                          " differs from the checkpointed plan");
    }
    if (live != query_live_[i]) {
      return queries.Fail(
          "query " + std::to_string(i) +
          (live ? " is live in the checkpoint but removed in this engine"
                : " is removed in the checkpoint but live in this engine") +
          " — replay the same RemoveQuery history before restoring");
    }
  }
  SGQ_RETURN_NOT_OK(queries.status());

  // 3. Vocabulary: verify-and-adopt — every stored name must intern to
  //    its stored id, so ids in restored state resolve to the same names.
  const CheckpointSection* vocab_section = reader.Find("vocab");
  if (vocab != nullptr && vocab_section != nullptr) {
    SGQ_ASSIGN_OR_RETURN(ByteReader v, reader.Open("vocab"));
    const std::uint32_t num_labels = v.U32();
    for (std::uint32_t i = 0; i < num_labels && v.ok(); ++i) {
      const std::string name = v.Str();
      const bool is_input = v.U8() != 0;
      if (!v.ok()) break;
      Result<LabelId> interned = is_input ? vocab->InternInputLabel(name)
                                          : vocab->InternDerivedLabel(name);
      if (!interned.ok()) {
        return v.Fail("label '" + name +
                      "': " + interned.status().message());
      }
      if (*interned != static_cast<LabelId>(i)) {
        return v.Fail("vocabulary mismatch: label '" + name +
                      "' interned to id " + std::to_string(*interned) +
                      ", checkpoint expects " + std::to_string(i));
      }
    }
    const std::uint64_t num_vertices = v.U64();
    for (std::uint64_t i = 0; i < num_vertices && v.ok(); ++i) {
      const std::string name = v.Str();
      if (!v.ok()) break;
      const Result<VertexId> id = vocab->InternVertex(name);
      if (!id.ok()) return v.Fail(id.status().message());
      if (*id != i) {
        return v.Fail("vocabulary mismatch: vertex '" + name +
                      "' interned to id " + std::to_string(*id) +
                      ", checkpoint expects " + std::to_string(i));
      }
    }
    SGQ_RETURN_NOT_OK(v.ExpectEnd());
  }

  // 4. Runtime state: clock, shared window partitions, per-operator blobs.
  SGQ_ASSIGN_OR_RETURN(ByteReader clock, reader.Open("clock"));
  SGQ_RETURN_NOT_OK(executor_.DeserializeClock(&clock));
  SGQ_RETURN_NOT_OK(clock.ExpectEnd());

  SGQ_ASSIGN_OR_RETURN(ByteReader windows, reader.Open("windows"));
  SGQ_RETURN_NOT_OK(executor_.window_store()->DeserializeState(&windows));
  SGQ_RETURN_NOT_OK(windows.ExpectEnd());

  SGQ_ASSIGN_OR_RETURN(ByteReader ops, reader.Open("ops"));
  SGQ_RETURN_NOT_OK(executor_.DeserializeOps(&ops));
  SGQ_RETURN_NOT_OK(ops.ExpectEnd());

  SGQ_ASSIGN_OR_RETURN(ByteReader engine, reader.Open("engine"));
  restored_ingested_ = engine.U64();
  SGQ_RETURN_NOT_OK(engine.ExpectEnd());

  if (extra_out != nullptr) {
    for (const CheckpointSection& section : reader.sections()) {
      if (!IsEngineSection(section.name)) {
        (*extra_out)[section.name] = std::string(reader.payload(section));
      }
    }
  }
  return Status::OK();
}

Result<OpId> Engine::Build(const LogicalOp& node,
                           const std::vector<std::string>& sigs,
                           std::size_t* next_sig) {
  // Sharing: a subtree whose canonical signature was already compiled —
  // by this query or (with cross_query_sharing) any earlier one — resolves
  // to the existing operator; its channel fans out to the new consumer.
  // A resolved subtree is not walked, so its signatures are skipped.
  const std::size_t at = (*next_sig)++;
  const std::string& sig = sigs[at];
  auto count_hit = [this, &node, at, next_sig](OpId shared) {
    ++shared_subtree_hits_;
    if (static_cast<std::size_t>(shared) < ops_before_current_plan_) {
      ++cross_query_shared_hits_;
    }
    *next_sig = at + node.Size();
  };
  auto dedup_it = subtree_dedup_.find(sig);
  if (dedup_it != subtree_dedup_.end()) {
    count_hit(dedup_it->second);
    return dedup_it->second;
  }

  // With num_workers > 1 every operator compiles to `workers` shard
  // instances (shard 0 is the primary; `make_shard` builds the replicas).
  // The shards of an operator bind its WindowStore partitions once: the
  // executor's driver thread is their only writer, and the shards only
  // read them inside the parallel section, so no partition needs a lock
  // (DESIGN.md §2.4).
  const std::size_t workers = options_.num_workers;

  // A PATTERN that matches a compiled join up to its head label reuses
  // that join: the join keeps emitting the label it was compiled under,
  // and a stateless relabel UNION in its fan-out renames for this
  // consumer. The UNION is recorded under the full signature, so a later
  // query deriving the same label shares it too.
  std::string join_key = JoinSignature(sig);
  if (!join_key.empty()) {
    auto join_it = subtree_dedup_.find(join_key);
    if (join_it != subtree_dedup_.end()) {
      const OpId join = join_it->second;
      count_hit(join);
      auto make_relabel = [&node]() {
        return std::make_unique<UnionOp>(node.output_label,
                                         /*relabel_join=*/true);
      };
      const OpId id = executor_.AddOp(make_relabel());
      for (std::size_t s = 1; s < workers; ++s) {
        SGQ_RETURN_NOT_OK(executor_.AddShardReplica(id, make_relabel()));
      }
      SGQ_RETURN_NOT_OK(executor_.Connect(join, id, 0));
      subtree_dedup_.emplace(sig, id);
      RecordOp(id, sig, {join}, {});
      return id;
    }
  }

  // Children first: the executor's insertion order doubles as its wave
  // order, and channels must point from children to parents.
  std::vector<OpId> children;
  std::vector<const std::string*> child_sigs;
  children.reserve(node.children.size());
  child_sigs.reserve(node.children.size());
  for (const auto& c : node.children) {
    child_sigs.push_back(&sigs[*next_sig]);
    SGQ_ASSIGN_OR_RETURN(OpId child, Build(*c, sigs, next_sig));
    children.push_back(child);
  }

  std::unique_ptr<PhysicalOp> op;
  std::function<std::unique_ptr<PhysicalOp>(std::size_t)> make_shard;
  // Window partitions acquired for this operator, one per input. The
  // PATTERN op_key embeds NumOps() at build time, so the keys cannot be
  // recomputed later — RemoveQuery releases exactly this recorded set.
  std::vector<std::string> wkeys;
  switch (node.kind) {
    case LogicalOpKind::kWScan: {
      auto scan = std::make_unique<WScanOp>(node.input_label, node.window);
      const OpId id = executor_.AddOp(std::move(scan));
      // A wildcard scan (input_label == kInvalidLabel) admits every label:
      // it registers in the query index's always-on bucket instead of a
      // per-label posting list. WScanOp emits the arriving sge's own
      // label, so the operator itself needs no special case.
      if (node.input_label == kInvalidLabel) {
        SGQ_RETURN_NOT_OK(
            executor_.RegisterWildcardSource(id, node.window.slide));
      } else {
        SGQ_RETURN_NOT_OK(executor_.RegisterSource(node.input_label, id,
                                                   node.window.slide));
      }
      for (std::size_t s = 1; s < workers; ++s) {
        SGQ_RETURN_NOT_OK(executor_.AddShardReplica(
            id,
            std::make_unique<WScanOp>(node.input_label, node.window)));
      }
      subtree_dedup_.emplace(sig, id);
      RecordOp(id, sig, {}, {});
      return id;
    }
    case LogicalOpKind::kFilter:
      make_shard = [&node](std::size_t) {
        return std::make_unique<FilterOp>(node.predicates);
      };
      op = make_shard(0);
      break;
    case LogicalOpKind::kUnion:
      make_shard = [&node](std::size_t) {
        return std::make_unique<UnionOp>(node.output_label);
      };
      op = make_shard(0);
      break;
    case LogicalOpKind::kPattern: {
      // Single-atom join state lives in the runtime WindowStore. The
      // partitions are per-operator (keyed by the operator's position):
      // deletion retraction replays the join against pre-deletion state,
      // which cross-operator aliasing would make order-dependent. Under
      // sharding the broadcast ports >= 1 give every shard the whole
      // right-side state, which the shards read from these partitions.
      const std::string op_key = std::to_string(executor_.NumOps());
      std::vector<PatternPortState> port_state(node.children.size());
      for (std::size_t i = 1; i < node.children.size(); ++i) {
        const LabelId label = node.children[i]->OutputLabel();
        if (label == kInvalidLabel) continue;  // mixed-label: private
        port_state[i].label = label;
        std::string key = "atom:" + op_key + ":" + std::to_string(i) + ":" +
                          *child_sigs[i];
        port_state[i].store = executor_.window_store()->Acquire(key);
        wkeys.push_back(std::move(key));
      }
      make_shard = [&node, port_state](std::size_t) {
        return std::make_unique<PatternOp>(node, port_state);
      };
      op = make_shard(0);
      break;
    }
    case LogicalOpKind::kPath: {
      // PATH operators over structurally identical inputs share one
      // window partition: the adjacency depends only on the input stream,
      // not on the regex, and maintenance is idempotent. Under sharding
      // the inputs are broadcast and the shards read the same partition.
      std::string in_sig = "path-in:";
      for (std::size_t i = 0; i < child_sigs.size(); ++i) {
        if (i > 0) in_sig += ",";
        in_sig += *child_sigs[i];
      }
      WindowEdgeStore* window = executor_.window_store()->Acquire(in_sig);
      wkeys.push_back(std::move(in_sig));
      // One DFA per operator: every shard instance gets a copy.
      make_shard = [this, &node, window, workers,
                    dfa = Dfa::FromRegex(node.regex)](
                       std::size_t shard) -> std::unique_ptr<PhysicalOp> {
        std::unique_ptr<PathOpBase> path;
        if (options_.path_impl == PathImpl::kSPath) {
          path = std::make_unique<SPathOp>(dfa, node.output_label);
        } else {
          path = std::make_unique<DeltaPathOp>(dfa, node.output_label);
        }
        if (workers > 1) {
          path->ConfigureShard(static_cast<ShardId>(shard), workers);
        }
        path->BindSharedWindow(window);
        return path;
      };
      op = make_shard(0);
      break;
    }
  }
  const OpId id = executor_.AddOp(std::move(op));
  if (workers > 1 && make_shard) {
    for (std::size_t s = 1; s < workers; ++s) {
      SGQ_RETURN_NOT_OK(executor_.AddShardReplica(id, make_shard(s)));
    }
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    // PATTERN distinguishes ports; single-input operators merge on port 0.
    const int port =
        node.kind == LogicalOpKind::kPattern ? static_cast<int>(i) : 0;
    SGQ_RETURN_NOT_OK(executor_.Connect(children[i], id, port));
  }
  subtree_dedup_.emplace(sig, id);
  if (!join_key.empty()) subtree_dedup_.emplace(std::move(join_key), id);
  RecordOp(id, sig, std::move(children), std::move(wkeys));
  return id;
}

}  // namespace sgq
