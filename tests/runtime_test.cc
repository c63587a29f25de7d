// Tests for the dataflow runtime (runtime/executor.h): topology
// construction, delivery order through chains and fan-in, micro-batch
// waves, exact boundary purging (expired state leaves at the next slide
// boundary), time-advance ordering (OnTimeAdvance for every distinct
// timestamp), shared WindowStore partitions and WSCAN deduplication, and
// batch=1 vs batch=N result equivalence on seeded random streams.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/basic_ops.h"
#include "core/engine.h"
#include "runtime/executor.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

// ---------------------------------------------------------------------------
// Instrumented operators
// ---------------------------------------------------------------------------

/// Records every lifecycle call the runtime makes.
class ProbeOp : public PhysicalOp {
 public:
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    tuples.push_back(tuple);
  }
  void OnBatch(int port, const Sgt* ts, std::size_t n) override {
    batch_sizes.push_back(n);
    PhysicalOp::OnBatch(port, ts, n);
  }
  void OnTimeAdvance(Timestamp now) override { advances.push_back(now); }
  // Contract (core/physical.h): OnTimeAdvance overriders must declare
  // themselves, or the indexed time-advance wave skips them.
  bool HasTimeDrivenWork() const override { return true; }
  std::string Name() const override { return "PROBE"; }

  std::vector<Sgt> tuples;
  std::vector<std::size_t> batch_sizes;
  std::vector<Timestamp> advances;
};

/// Emits `fanout` copies of every input tuple (exercises cascades).
class FanOp : public PhysicalOp {
 public:
  explicit FanOp(int fanout) : fanout_(fanout) {}
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    for (int i = 0; i < fanout_; ++i) {
      Sgt copy = tuple;
      copy.src = tuple.src * 10 + static_cast<VertexId>(i);
      EmitTuple(copy);
    }
  }
  std::string Name() const override { return "FAN"; }

 private:
  int fanout_;
};

/// Forwards every input tuple with its target set to `tag`, so the tuples
/// a consumer receives say which producer emitted them.
class TagOp : public PhysicalOp {
 public:
  explicit TagOp(VertexId tag) : tag_(tag) {}
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    Sgt copy = tuple;
    copy.trg = tag_;
    EmitTuple(copy);
  }
  std::string Name() const override { return "TAG"; }

 private:
  VertexId tag_;
};

// ---------------------------------------------------------------------------
// Exact boundary purging
// ---------------------------------------------------------------------------

TEST(PurgeTest, ExpiredStateLeavesAtTheNextBoundary) {
  // Every entry of these runs expires by t = 100 (window 12 over a stream
  // ending well before 88). An edge of a label no query references still
  // advances the clock across the boundaries in between, and each
  // boundary purges exactly what it expired — however small the state.
  const char* queries[] = {
      "Answer(x,z) <- a(x,y), b(y,z)",
      "Answer(x,y) <- a+(x,y)",
  };
  for (const char* text : queries) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      Vocabulary vocab;
      RandomStreamOptions opt;
      opt.seed = 5;
      opt.num_vertices = 8;
      opt.num_labels = 2;
      opt.num_edges = 60;
      opt.max_gap = 2;
      auto stream = GenerateRandomStream(opt, &vocab);
      ASSERT_TRUE(stream.ok());
      ASSERT_LT(stream->back().t + 12, 100);
      auto query = MakeQuery(text, WindowSpec(12, 3), &vocab);
      ASSERT_TRUE(query.ok()) << text;
      const LabelId idle = *vocab.InternInputLabel("idle");
      const VertexId v = *vocab.InternVertex("v0");
      EngineOptions options;
      options.num_workers = workers;
      Engine engine(options);
      ASSERT_TRUE(engine.AddQuery(*query, vocab).ok()) << text;
      ASSERT_TRUE(engine.Finalize().ok());
      engine.PushAll(*stream);
      EXPECT_GT(engine.StateSize(), 0u) << text << " workers=" << workers;
      engine.Push(Sge(v, v, idle, 100));
      engine.Flush();
      EXPECT_EQ(engine.StateSize(), 0u) << text << " workers=" << workers;
    }
  }
}

// ---------------------------------------------------------------------------
// Executor topology
// ---------------------------------------------------------------------------

TEST(ExecutorTest, RejectsForwardChannels) {
  Executor exec;
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(10, 1)));
  // Channels must go from earlier to later ids (children-first order).
  EXPECT_FALSE(exec.Connect(scan, probe, 0).ok());
  EXPECT_FALSE(exec.Connect(scan, scan, 0).ok());
}

TEST(ExecutorTest, RegisterSourceRequiresSourceOp) {
  Executor exec;
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  EXPECT_FALSE(exec.RegisterSource(0, probe, 1).ok());
}

TEST(ExecutorTest, DescribeTopologyListsChannels) {
  Executor exec;
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(10, 1)));
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  ASSERT_TRUE(exec.Connect(scan, probe, 0).ok());
  ASSERT_TRUE(exec.RegisterSource(0, scan, 1).ok());
  ASSERT_TRUE(exec.Finalize().ok());
  const std::string topo = exec.DescribeTopology();
  EXPECT_NE(topo.find("WSCAN"), std::string::npos);
  EXPECT_NE(topo.find("PROBE"), std::string::npos);
  EXPECT_NE(topo.find("->"), std::string::npos);
}

TEST(ExecutorTest, DeliversThroughChannels) {
  Executor exec;
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(7, WindowSpec(10, 1)));
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  ASSERT_TRUE(exec.Connect(scan, probe, 0).ok());
  ASSERT_TRUE(exec.RegisterSource(7, scan, 1).ok());
  ASSERT_TRUE(exec.Finalize().ok());

  exec.Ingest(Sge(1, 2, 7, 0));
  exec.Ingest(Sge(3, 4, 9, 1));  // label 9 unregistered: dropped
  auto* p = static_cast<ProbeOp*>(exec.op(probe));
  ASSERT_EQ(p->tuples.size(), 1u);
  EXPECT_EQ(p->tuples[0].validity, Interval(0, 10));
  EXPECT_EQ(exec.edges_pushed(), 2u);
  EXPECT_EQ(exec.edges_processed(), 1u);
}

TEST(ExecutorTest, ChannelFanOutDeliversInConnectionOrder) {
  Executor exec;
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(10, 1)));
  const OpId a = exec.AddOp(std::make_unique<ProbeOp>());
  const OpId b = exec.AddOp(std::make_unique<ProbeOp>());
  ASSERT_TRUE(exec.Connect(scan, a, 0).ok());
  ASSERT_TRUE(exec.Connect(scan, b, 1).ok());
  ASSERT_TRUE(exec.RegisterSource(0, scan, 1).ok());
  ASSERT_TRUE(exec.Finalize().ok());
  exec.Ingest(Sge(1, 2, 0, 0));
  EXPECT_EQ(static_cast<ProbeOp*>(exec.op(a))->tuples.size(), 1u);
  EXPECT_EQ(static_cast<ProbeOp*>(exec.op(b))->tuples.size(), 1u);
}

TEST(ExecutorTest, ChainKeepsEmissionOrder) {
  // scan -> fan(2) -> fan(2) -> probe: 4 leaf tuples per input. A chain
  // keeps emission order: each operator runs its whole input of the wave
  // in arrival order, so the leaves arrive as their ancestors emitted.
  Executor exec;
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(10, 1)));
  const OpId f1 = exec.AddOp(std::make_unique<FanOp>(2));
  const OpId f2 = exec.AddOp(std::make_unique<FanOp>(2));
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  ASSERT_TRUE(exec.Connect(scan, f1, 0).ok());
  ASSERT_TRUE(exec.Connect(f1, f2, 0).ok());
  ASSERT_TRUE(exec.Connect(f2, probe, 0).ok());
  ASSERT_TRUE(exec.RegisterSource(0, scan, 1).ok());
  ASSERT_TRUE(exec.Finalize().ok());

  exec.Ingest(Sge(1, 2, 0, 0));
  auto* p = static_cast<ProbeOp*>(exec.op(probe));
  ASSERT_EQ(p->tuples.size(), 4u);
  // src evolves 1 -> 1*10+i -> (1*10+i)*10+j: 100, 101, 110, 111.
  EXPECT_EQ(p->tuples[0].src, 100u);
  EXPECT_EQ(p->tuples[1].src, 101u);
  EXPECT_EQ(p->tuples[2].src, 110u);
  EXPECT_EQ(p->tuples[3].src, 111u);
}

TEST(ExecutorTest, FanInDeliversLowerIdProducerFirst) {
  // scan -> fan(2) -> {tag 7, tag 8} -> probe, both tags on port 0. The
  // probe's port takes the wave's input producer by producer in ascending
  // id: all of tag 7's output, then tag 8's — not the interleaving
  // (7, 8, 7, 8) of delivering each emission's cascade depth-first.
  Executor exec;
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(10, 1)));
  const OpId fan = exec.AddOp(std::make_unique<FanOp>(2));
  const OpId low = exec.AddOp(std::make_unique<TagOp>(7));
  const OpId high = exec.AddOp(std::make_unique<TagOp>(8));
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  ASSERT_TRUE(exec.Connect(scan, fan, 0).ok());
  ASSERT_TRUE(exec.Connect(fan, low, 0).ok());
  ASSERT_TRUE(exec.Connect(fan, high, 0).ok());
  ASSERT_TRUE(exec.Connect(low, probe, 0).ok());
  ASSERT_TRUE(exec.Connect(high, probe, 0).ok());
  ASSERT_TRUE(exec.RegisterSource(0, scan, 1).ok());
  ASSERT_TRUE(exec.Finalize().ok());

  exec.Ingest(Sge(1, 2, 0, 0));
  auto* p = static_cast<ProbeOp*>(exec.op(probe));
  ASSERT_EQ(p->tuples.size(), 4u);
  const std::pair<VertexId, VertexId> expected[] = {
      {10, 7}, {11, 7}, {10, 8}, {11, 8}};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(p->tuples[i].src, expected[i].first) << "position " << i;
    EXPECT_EQ(p->tuples[i].trg, expected[i].second) << "position " << i;
  }
}

TEST(ExecutorTest, WaveModeBatchesPerPort) {
  Executor exec(ExecutorOptions{/*batch_size=*/4});
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(10, 1)));
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  ASSERT_TRUE(exec.Connect(scan, probe, 0).ok());
  ASSERT_TRUE(exec.RegisterSource(0, scan, 1).ok());
  ASSERT_TRUE(exec.Finalize().ok());

  auto* p = static_cast<ProbeOp*>(exec.op(probe));
  // Same timestamp: the whole micro-batch arrives as one OnBatch call.
  for (int i = 0; i < 3; ++i) exec.Ingest(Sge(1, 2, 0, 5));
  EXPECT_TRUE(p->tuples.empty());  // buffered until the batch fills
  exec.Ingest(Sge(1, 2, 0, 5));
  ASSERT_EQ(p->tuples.size(), 4u);
  ASSERT_EQ(p->batch_sizes.size(), 1u);
  EXPECT_EQ(p->batch_sizes[0], 4u);
  EXPECT_EQ(exec.num_waves(), 1u);
}

TEST(ExecutorTest, FlushOnTimestampGroupBoundaries) {
  Executor exec(ExecutorOptions{/*batch_size=*/8});
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(10, 5)));
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  ASSERT_TRUE(exec.Connect(scan, probe, 0).ok());
  ASSERT_TRUE(exec.RegisterSource(0, scan, 5).ok());
  ASSERT_TRUE(exec.Finalize().ok());

  // Timestamps 1,1,3,7 buffered; Flush processes per-timestamp groups
  // with clock advances (and the slide boundary at 5) between them.
  for (Timestamp t : {1, 1, 3, 7}) exec.Ingest(Sge(1, 2, 0, t));
  exec.Flush();
  auto* p = static_cast<ProbeOp*>(exec.op(probe));
  ASSERT_EQ(p->tuples.size(), 4u);
  EXPECT_EQ(p->batch_sizes, (std::vector<std::size_t>{2, 1, 1}));
  // Distinct timestamps 3 and 7 and the boundary 5 all advanced time.
  EXPECT_NE(std::find(p->advances.begin(), p->advances.end(), 3),
            p->advances.end());
  EXPECT_NE(std::find(p->advances.begin(), p->advances.end(), 5),
            p->advances.end());
  EXPECT_NE(std::find(p->advances.begin(), p->advances.end(), 7),
            p->advances.end());
}

TEST(ExecutorTest, IngestRejectsOutOfOrderTimestamps) {
  Executor exec;
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(10, 1)));
  ASSERT_TRUE(exec.RegisterSource(0, scan, 1).ok());
  ASSERT_TRUE(exec.Finalize().ok());
  exec.Ingest(Sge(1, 2, 0, 10));
  EXPECT_DEATH(exec.Ingest(Sge(1, 2, 0, 5)), "ordered");
}

// ---------------------------------------------------------------------------
// Time-advance ordering through the engine
// ---------------------------------------------------------------------------

TEST(TimeAdvanceTest, EveryDistinctTimestampReachesOperators) {
  // slide = 5, arrivals at 1, 3, 7, 7, 12: operators must see advances
  // for the distinct input instants 3, 7, 12 and the boundaries 5, 10.
  Executor exec;
  const OpId scan =
      exec.AddOp(std::make_unique<WScanOp>(0, WindowSpec(20, 5)));
  const OpId probe = exec.AddOp(std::make_unique<ProbeOp>());
  ASSERT_TRUE(exec.Connect(scan, probe, 0).ok());
  ASSERT_TRUE(exec.RegisterSource(0, scan, 5).ok());
  ASSERT_TRUE(exec.Finalize().ok());

  for (Timestamp t : {1, 3, 7, 7, 12}) exec.Ingest(Sge(1, 2, 0, t));
  auto* p = static_cast<ProbeOp*>(exec.op(probe));
  EXPECT_EQ(p->advances, (std::vector<Timestamp>{3, 5, 7, 10, 12}));
  // Purge waves ran at every slide boundary.
  EXPECT_EQ(exec.slide_latencies().count(), 2u);
}

// ---------------------------------------------------------------------------
// Shared state through the compiler
// ---------------------------------------------------------------------------

TEST(SharedStateTest, DuplicateScansCompileToOneOperator) {
  Vocabulary vocab;
  // Two atoms over the same label and window: one WSCAN, fanned out.
  auto query =
      MakeQuery("Answer(x,z) <- a(x,y), a(y,z)", WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  // Topology: WSCAN + PATTERN + SINK (the second scan deduplicated away).
  EXPECT_EQ(engine.executor().NumOps(), 3u);
  // Results unaffected by the dedup.
  LabelId a = *vocab.FindLabel("a");
  engine.Push(Sge(1, 2, a, 0));
  engine.Push(Sge(2, 3, a, 1));
  EXPECT_EQ(ResultPairsAt(engine.results(0), 1).size(), 1u);
}

TEST(SharedStateTest, IdenticalClosuresCompileToOnePathOp) {
  Vocabulary vocab;
  // Two closures over the same base label canonicalize to the same PATH
  // subtree signature: the compiler instantiates one operator whose
  // channel fans out to both PATTERN branches (operator-level sharing,
  // core/engine.h — it subsumes the window-partition sharing this case
  // previously exercised).
  auto query = MakeQuery(
      "Answer(x,y) <- a+(x,y)\nAnswer(x,y) <- a+(y,x)",
      WindowSpec(10, 1), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  std::size_t path_ops = 0;
  const Executor& exec = engine.executor();
  for (std::size_t i = 0; i < exec.NumOps(); ++i) {
    if (exec.op(static_cast<OpId>(i))->Name().find("PATH") !=
        std::string::npos) {
      ++path_ops;
    }
  }
  EXPECT_EQ(path_ops, 1u);
  EXPECT_GE(engine.NumSharedSubtrees(), 1u);
  LabelId a = *vocab.FindLabel("a");
  engine.Push(Sge(1, 2, a, 0));
  engine.Push(Sge(2, 3, a, 1));
  // a+ paths: (1,2),(2,3),(1,3) and the reversed head (2,1),(3,2),(3,1).
  EXPECT_EQ(ResultPairsAt(engine.results(0), 1).size(), 6u);
}

/// \brief Two PATH operators with *different* regexes (`a+` and `a·a*`)
/// over the same scanned input, unioned: they cannot merge into one
/// operator, but still resolve to the same "path-in" adjacency partition.
LogicalPlan TwoPathsOverOneScan(Vocabulary* vocab) {
  const LabelId a = *vocab->InternInputLabel("a");
  const LabelId p1 = *vocab->InternDerivedLabel("p1");
  const LabelId p2 = *vocab->InternDerivedLabel("p2");
  const LabelId ans = *vocab->InternDerivedLabel("Answer");
  const WindowSpec window(10, 1);
  std::vector<LogicalPlan> kids1;
  kids1.push_back(MakeWScan(a, window));
  auto plus = MakePath(p1, Regex::Plus(Regex::Label(a)), std::move(kids1));
  std::vector<LogicalPlan> kids2;
  kids2.push_back(MakeWScan(a, window));
  auto star = MakePath(
      p2, Regex::Concat({Regex::Label(a), Regex::Star(Regex::Label(a))}),
      std::move(kids2));
  std::vector<LogicalPlan> branches;
  branches.push_back(std::move(plus));
  branches.push_back(std::move(star));
  return MakeUnion(ans, std::move(branches));
}

TEST(SharedStateTest, PathOpsShareWindowPartitions) {
  Vocabulary vocab;
  const LogicalPlan plan = TwoPathsOverOneScan(&vocab);
  const LabelId a = *vocab.FindLabel("a");
  Engine engine;
  ASSERT_TRUE(engine.AddPlan(*plan, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  EXPECT_GE(engine.executor().window_store()->NumSharedAcquires(), 1u);
  engine.Push(Sge(1, 2, a, 0));
  engine.Push(Sge(2, 3, a, 1));
  // Both regexes derive the same closure pairs; the relabeling UNION's
  // sink coalesces them.
  EXPECT_EQ(ResultPairsAt(engine.results(0), 1).size(), 3u);
}

TEST(SharedStateTest, StateAccountingCountsASharedPartitionOnce) {
  Vocabulary vocab;
  const LogicalPlan plan = TwoPathsOverOneScan(&vocab);
  const LabelId a = *vocab.FindLabel("a");
  Engine engine;
  ASSERT_TRUE(engine.AddPlan(*plan, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.Push(Sge(1, 2, a, 0));
  engine.Push(Sge(2, 3, a, 1));
  engine.Flush();
  const Executor& exec = engine.executor();
  ASSERT_EQ(exec.window_store()->NumPartitions(), 1u);
  ASSERT_EQ(exec.window_store()->NumEntries(), 2u);
  // Both PATH operators read the partition, and neither owns it: the
  // executor's total is the operators' own state plus the partition once.
  std::size_t owned_entries = 0;
  std::size_t owned_bytes = 0;
  for (std::size_t i = 0; i < exec.NumOps(); ++i) {
    owned_entries += exec.op(static_cast<OpId>(i))->StateSize();
    owned_bytes += exec.op(static_cast<OpId>(i))->StateBytes();
  }
  EXPECT_EQ(exec.StateSize(),
            owned_entries + exec.window_store()->NumEntries());
  EXPECT_EQ(exec.StateBytes(),
            owned_bytes + exec.window_store()->StateBytes());
}

TEST(SharedStateTest, SinkCoalescerBytesAreCounted) {
  // `b*` makes the root a UNION of the direct `a` branch and the join
  // over `b+`, which emit uncoalesced results, so the query's sink
  // coalesces them. Its coalescer keys are operator state: their bytes
  // count in the sink's StateBytes and in the engine's total.
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,z), b*(z,y)", WindowSpec(12, 3),
                         &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  const LabelId a = *vocab.FindLabel("a");
  const LabelId b = *vocab.FindLabel("b");
  for (Timestamp t = 0; t < 10; ++t) {  // a few slides of 3
    const VertexId v = static_cast<VertexId>(t);
    engine.Push(Sge(v, v + 1, a, t));
    engine.Push(Sge(v + 1, v + 2, b, t));
  }
  engine.Flush();
  ASSERT_FALSE(engine.results(0).empty());
  const Executor& exec = engine.executor();
  const PhysicalOp* sink = exec.op(static_cast<OpId>(exec.NumOps() - 1));
  ASSERT_EQ(sink->Name(), "SINK");
  ASSERT_GT(sink->StateSize(), 0u);
  EXPECT_GT(sink->StateBytes(), 0u);
  std::size_t owned_bytes = 0;
  for (std::size_t i = 0; i < exec.NumOps(); ++i) {
    owned_bytes += exec.op(static_cast<OpId>(i))->StateBytes();
  }
  // The sink is one of the operators summed here.
  EXPECT_EQ(engine.StateBytes(),
            owned_bytes + exec.window_store()->StateBytes());
}

TEST(SharedStateTest, ShardedPathOpsSharingAPartitionMatchOneWorker) {
  // Under sharding both operators' shards read the one partition, which
  // the driver writes once per operator: the first operator's write
  // truncates a deleted edge, the second's finds it truncated, and the
  // second operator's shards must still repair the trees that used it.
  for (uint64_t seed : {3, 11, 29}) {
    Vocabulary vocab;
    RandomStreamOptions opt;
    opt.seed = seed;
    opt.num_vertices = 8;
    opt.num_labels = 1;
    opt.num_edges = 150;
    opt.max_gap = 2;
    opt.deletion_probability = 0.2;
    auto stream = GenerateRandomStream(opt, &vocab);
    ASSERT_TRUE(stream.ok());
    const LogicalPlan plan = TwoPathsOverOneScan(&vocab);
    Engine reference;
    ASSERT_TRUE(reference.AddPlan(*plan, vocab).ok());
    ASSERT_TRUE(reference.Finalize().ok());
    reference.PushAll(*stream);
    const std::vector<Timestamp> times = SampleTimes(*stream, 8);
    for (std::size_t workers : {2, 4}) {
      for (std::size_t batch : {1, 16}) {
        EngineOptions options;
        options.num_workers = workers;
        options.batch_size = batch;
        Engine sharded(options);
        ASSERT_TRUE(sharded.AddPlan(*plan, vocab).ok());
        ASSERT_TRUE(sharded.Finalize().ok());
        ASSERT_EQ(sharded.executor().window_store()->NumPartitions(), 1u);
        sharded.PushAll(*stream);
        for (Timestamp t : times) {
          ASSERT_EQ(ResultPairsAt(sharded.results(0), t),
                    ResultPairsAt(reference.results(0), t))
              << "seed=" << seed << " workers=" << workers
              << " batch=" << batch << " t=" << t;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// batch=1 vs batch=N equivalence
// ---------------------------------------------------------------------------

class BatchEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchEquivalenceTest, SnapshotsMatchAcrossBatchSizes) {
  const int seed = GetParam();
  const char* queries[] = {
      "Answer(x,z) <- a(x,y), b(y,z)",
      "Answer(x,y) <- a+(x,y)",
      "Answer(x,z) <- a+(x,y), b(y,z)",
  };
  for (const char* text : queries) {
    Vocabulary vocab;
    RandomStreamOptions opt;
    opt.seed = static_cast<uint64_t>(seed) * 31 + 5;
    opt.num_vertices = 8;
    opt.num_labels = 2;
    opt.num_edges = 120;
    opt.max_gap = 2;
    opt.deletion_probability = 0.1;
    auto stream = GenerateRandomStream(opt, &vocab);
    ASSERT_TRUE(stream.ok());
    auto query = MakeQuery(text, WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok()) << text;

    EngineOptions base;
    Engine reference(base);
    ASSERT_TRUE(reference.AddQuery(*query, vocab).ok()) << text;
    ASSERT_TRUE(reference.Finalize().ok());
    reference.PushAll(*stream);

    for (std::size_t batch : {std::size_t{7}, std::size_t{64}}) {
      EngineOptions options;
      options.batch_size = batch;
      Engine engine(options);
      ASSERT_TRUE(engine.AddQuery(*query, vocab).ok()) << text;
      ASSERT_TRUE(engine.Finalize().ok());
      engine.PushAll(*stream);
      EXPECT_EQ(engine.edges_processed(), reference.edges_processed());
      for (Timestamp t : SampleTimes(*stream, 10)) {
        ASSERT_EQ(ResultPairsAt(engine.results(0), t),
                  ResultPairsAt(reference.results(0), t))
            << "query: " << text << " batch=" << batch << " t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalenceTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace sgq
