// Tests for the physical operators on the paper's running example:
// WSCAN/FILTER/UNION unit behaviour, PATTERN on Example 6, PATH on
// Example 7, and first-class path payloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/basic_ops.h"
#include "core/pattern_op.h"
#include "core/engine.h"
#include "core/spath_op.h"
#include "model/stream_io.h"
#include "test_util.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::ResultPairsAt;

// Collects everything pushed into it.
class CollectOp : public PhysicalOp {
 public:
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    tuples.push_back(tuple);
  }
  std::string Name() const override { return "COLLECT"; }
  std::vector<Sgt> tuples;
};

TEST(WScanOpTest, AssignsValidityIntervals) {
  CollectOp sink;
  WScanOp scan(/*label=*/3, WindowSpec(24, 1));
  OutputChannel scan_wire(&sink, 0);
  scan.BindOutput(&scan_wire);
  scan.OnSge(Sge(1, 2, 3, 7));
  ASSERT_EQ(sink.tuples.size(), 1u);
  EXPECT_EQ(sink.tuples[0].validity, Interval(7, 31));
  EXPECT_EQ(sink.tuples[0].label, 3u);
  ASSERT_EQ(sink.tuples[0].payload.size(), 1u);
}

TEST(WScanOpTest, SlideCoarsensExpiry) {
  CollectOp sink;
  WScanOp scan(3, WindowSpec(24, 6));
  OutputChannel scan_wire(&sink, 0);
  scan.BindOutput(&scan_wire);
  scan.OnSge(Sge(1, 2, 3, 7));   // floor(7/6)*6 + 24 = 30
  scan.OnSge(Sge(1, 2, 3, 13));  // floor(13/6)*6 + 24 = 36
  EXPECT_EQ(sink.tuples[0].validity.exp, 30);
  EXPECT_EQ(sink.tuples[1].validity.exp, 36);
}

TEST(WScanOpTest, DeletionBecomesNegativeTuple) {
  CollectOp sink;
  WScanOp scan(3, WindowSpec(24, 1));
  OutputChannel scan_wire(&sink, 0);
  scan.BindOutput(&scan_wire);
  scan.OnSge(Sge(1, 2, 3, 9, /*del=*/true));
  ASSERT_EQ(sink.tuples.size(), 1u);
  EXPECT_TRUE(sink.tuples[0].is_deletion);
  EXPECT_EQ(sink.tuples[0].validity.ts, 9);
}

TEST(FilterOpTest, EvaluatesConjunction) {
  CollectOp sink;
  FilterPredicate self_loop;
  self_loop.kind = FilterPredicate::Kind::kSrcEqualsTrg;
  FilterOp filter({self_loop});
  OutputChannel filter_wire(&sink, 0);
  filter.BindOutput(&filter_wire);
  filter.OnTuple(0, Sgt(1, 1, 0, Interval(0, 5)));
  filter.OnTuple(0, Sgt(1, 2, 0, Interval(0, 5)));
  EXPECT_EQ(sink.tuples.size(), 1u);
}

TEST(UnionOpTest, RelabelsWhenConfigured) {
  CollectOp sink;
  UnionOp u(/*output_label=*/9);
  OutputChannel u_wire(&sink, 0);
  u.BindOutput(&u_wire);
  u.OnTuple(0, Sgt(1, 2, 3, Interval(0, 5)));
  ASSERT_EQ(sink.tuples.size(), 1u);
  EXPECT_EQ(sink.tuples[0].label, 9u);
}

// ---------------------------------------------------------------------------
// The running example (Figure 2 stream; Examples 6 and 7).
// ---------------------------------------------------------------------------

class RunningExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* csv =
        "u,follows,v,7\n"
        "v,posts,b,10\n"
        "y,follows,u,13\n"
        "v,posts,c,17\n"
        "u,posts,a,22\n"
        "y,likes,a,28\n"
        "u,likes,b,29\n"
        "u,likes,c,30\n";
    auto parsed = ParseStreamCsv(csv, &vocab_);
    ASSERT_TRUE(parsed.ok());
    stream_ = *parsed;
  }

  VertexId V(const char* name) { return *vocab_.FindVertex(name); }

  Vocabulary vocab_;
  InputStream stream_;
};

TEST_F(RunningExampleTest, Example6PatternFindsRecentLikers) {
  // RL(u1,u2) <- likes(u1,m1), follows+(u1,u2), posts(u2,m1); W = 24h.
  auto query = MakeQuery(
      "Answer(u1,u2) <- likes(u1,m1), follows+(u1,u2), posts(u2,m1)",
      WindowSpec(24, 1), &vocab_);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab_).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(stream_);

  const std::vector<Sgt>& results = engine.results(0);
  // Example 6: exactly the derived edges (y, RL, u, [28,37)) and
  // (u, RL, v, [29,31)) (the [30,31) duplicate coalesces away).
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].src, V("y"));
  EXPECT_EQ(results[0].trg, V("u"));
  EXPECT_EQ(results[0].validity, Interval(28, 37));
  EXPECT_EQ(results[1].src, V("u"));
  EXPECT_EQ(results[1].trg, V("v"));
  EXPECT_EQ(results[1].validity, Interval(29, 31));
}

TEST_F(RunningExampleTest, Example7PathOverRecentLikers) {
  // Adds PATH over the derived RL edges; Example 7 expects three results,
  // including the length-2 materialized path (y -> u -> v).
  auto query = MakeQuery(
      "RL(u1,u2) <- likes(u1,m1), follows+(u1,u2), posts(u2,m1)\n"
      "Answer(x,y) <- RL+(x,y)",
      WindowSpec(24, 1), &vocab_);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab_).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(stream_);

  const VertexId u = V("u"), v = V("v"), y = V("y");
  VertexPairSet pairs = ResultPairsAt(engine.results(0), 29);
  VertexPairSet expected = {{y, u}, {u, v}, {y, v}};
  EXPECT_EQ(pairs, expected);

  // The (y, v) result is a materialized path of two RL edges (R3: paths
  // are first-class citizens and are returned).
  bool found_path = false;
  for (const Sgt& r : engine.results(0)) {
    if (r.src == y && r.trg == v) {
      found_path = true;
      ASSERT_EQ(r.payload.size(), 2u);
      EXPECT_EQ(r.payload[0].src, y);
      EXPECT_EQ(r.payload[0].trg, u);
      EXPECT_EQ(r.payload[1].src, u);
      EXPECT_EQ(r.payload[1].trg, v);
      EXPECT_EQ(r.validity, Interval(29, 31));
    }
  }
  EXPECT_TRUE(found_path);
}

TEST_F(RunningExampleTest, SnapshotReducibilityOnRunningExample) {
  auto query = MakeQuery(
      "RL(u1,u2) <- likes(u1,m1), follows+(u1,u2), posts(u2,m1)\n"
      "Answer(x,y) <- RL+(x,y)",
      WindowSpec(24, 1), &vocab_);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab_).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(stream_);
  for (Timestamp t : {7, 13, 22, 25, 28, 29, 30}) {
    EXPECT_EQ(ResultPairsAt(engine.results(0), t),
              testing_util::OraclePairsAt(stream_, *query, vocab_, t))
        << "at t=" << t;
  }
}

// ---------------------------------------------------------------------------
// PATTERN operator specifics
// ---------------------------------------------------------------------------

class PatternOpTest : public ::testing::Test {
 protected:
  // Builds a two-atom join pattern a(x,y), b(y,z) -> out(x,z).
  void SetUp() override {
    a_ = *vocab_.InternInputLabel("a");
    b_ = *vocab_.InternInputLabel("b");
    out_ = *vocab_.InternDerivedLabel("out");
    std::vector<LogicalPlan> children;
    children.push_back(MakeWScan(a_, WindowSpec(10, 1)));
    children.push_back(MakeWScan(b_, WindowSpec(10, 1)));
    logical_ = MakePattern(out_, {{"x", "y"}, {"y", "z"}}, "x", "z",
                           std::move(children));
    op_ = std::make_unique<PatternOp>(*logical_);
    wire_ = OutputChannel(&sink_, 0);
    op_->BindOutput(&wire_);
  }

  Vocabulary vocab_;
  LabelId a_, b_, out_;
  LogicalPlan logical_;
  OutputChannel wire_;
  std::unique_ptr<PatternOp> op_;
  CollectOp sink_;
};

TEST_F(PatternOpTest, JoinsOnSharedVariableWithIntervalIntersection) {
  op_->OnTuple(0, Sgt(1, 2, a_, Interval(0, 10)));
  EXPECT_TRUE(sink_.tuples.empty());
  op_->OnTuple(1, Sgt(2, 3, b_, Interval(5, 15)));
  ASSERT_EQ(sink_.tuples.size(), 1u);
  EXPECT_EQ(sink_.tuples[0].src, 1u);
  EXPECT_EQ(sink_.tuples[0].trg, 3u);
  EXPECT_EQ(sink_.tuples[0].validity, Interval(5, 10));
  EXPECT_EQ(sink_.tuples[0].label, out_);
}

TEST_F(PatternOpTest, DisjointIntervalsDoNotJoin) {
  op_->OnTuple(0, Sgt(1, 2, a_, Interval(0, 5)));
  op_->OnTuple(1, Sgt(2, 3, b_, Interval(7, 15)));
  EXPECT_TRUE(sink_.tuples.empty());
}

TEST_F(PatternOpTest, SymmetricArrivalOrder) {
  // b before a: the symmetric hash join must still find the match.
  op_->OnTuple(1, Sgt(2, 3, b_, Interval(5, 15)));
  op_->OnTuple(0, Sgt(1, 2, a_, Interval(0, 10)));
  ASSERT_EQ(sink_.tuples.size(), 1u);
  EXPECT_EQ(sink_.tuples[0].validity, Interval(5, 10));
}

TEST_F(PatternOpTest, ExplicitDeletionRetractsJoinResults) {
  op_->OnTuple(0, Sgt(1, 2, a_, Interval(0, 10)));
  op_->OnTuple(1, Sgt(2, 3, b_, Interval(0, 10)));
  ASSERT_EQ(sink_.tuples.size(), 1u);
  // Delete the a-edge: a negative (1,3) result must be emitted.
  op_->OnTuple(0, Sgt(1, 2, a_, Interval(4, kMaxTimestamp), {},
                      /*del=*/true));
  ASSERT_EQ(sink_.tuples.size(), 2u);
  EXPECT_TRUE(sink_.tuples[1].is_deletion);
  EXPECT_EQ(sink_.tuples[1].src, 1u);
  EXPECT_EQ(sink_.tuples[1].trg, 3u);
  // And the join state is gone: a new b-partner finds nothing.
  op_->OnTuple(1, Sgt(2, 9, b_, Interval(5, 10)));
  EXPECT_EQ(sink_.tuples.size(), 2u);
}

TEST_F(PatternOpTest, PurgeDropsExpiredState) {
  op_->OnTuple(0, Sgt(1, 2, a_, Interval(0, 10)));
  op_->OnTuple(0, Sgt(7, 8, a_, Interval(0, 30)));
  EXPECT_EQ(op_->StateSize(), 2u);
  op_->Purge(20);
  EXPECT_EQ(op_->StateSize(), 1u);
}

TEST_F(PatternOpTest, StateBytesFallsBackAfterTheWindowPasses) {
  // 3,000 a-edges sharing y land in one left bucket, whose doubling
  // overflow block has room for 4,096 48-byte bindings (192 KiB). Once the
  // window has passed them all, the bucket and its overflow block must be
  // gone, not kept for reuse.
  const std::size_t fresh = op_->StateBytes();
  for (VertexId i = 0; i < 3000; ++i) {
    const Timestamp ts = static_cast<Timestamp>(i);
    op_->OnTuple(0, Sgt(100 + i, 7, a_, Interval(ts, ts + 10)));
  }
  EXPECT_EQ(op_->StateSize(), 3000u);
  EXPECT_GT(op_->StateBytes(), fresh + 100 * 1024);  // the block counts
  op_->Purge(4000);
  EXPECT_EQ(op_->StateSize(), 0u);
  EXPECT_LE(op_->StateBytes(), fresh + 16 * 1024);
}

TEST_F(PatternOpTest, OneExpiryHintPerBucket) {
  // One binding, then 999 coalescing extensions of it: expiry only
  // grows, so none needs a hint of its own.
  for (Timestamp t = 0; t < 1000; ++t) {
    op_->OnTuple(0, Sgt(1, 2, a_, Interval(t, t + 10)));
  }
  EXPECT_EQ(op_->StateSize(), 1u);
  // 100 more bindings in the same bucket, at staggered expiries that all
  // lie after the bucket's hint.
  std::vector<Timestamp> expiries = {1009};  // the extended binding
  for (VertexId i = 0; i < 100; ++i) {
    const Timestamp exp = 20 + 10 * static_cast<Timestamp>(i);
    op_->OnTuple(0, Sgt(100 + i, 2, a_, Interval(exp - 15, exp)));
    expiries.push_back(exp);
  }
  EXPECT_EQ(op_->StateSize(), 101u);
  EXPECT_LE(op_->num_expiry_hints(), 1u);
  // Each binding is dropped by the first purge at its expiry, not before.
  std::sort(expiries.begin(), expiries.end());
  std::size_t live = expiries.size();
  for (const Timestamp exp : expiries) {
    op_->Purge(exp - 1);
    EXPECT_EQ(op_->StateSize(), live) << "dropped before " << exp;
    op_->Purge(exp);
    EXPECT_EQ(op_->StateSize(), --live) << "kept after " << exp;
    EXPECT_LE(op_->num_expiry_hints(), 1u);
  }
  EXPECT_EQ(op_->num_expiry_hints(), 0u);
}

TEST(PatternOpSelfJoinTest, IntraAtomConstraint) {
  // Pattern loop(x,x) keeps only self-loops.
  Vocabulary vocab;
  LabelId a = *vocab.InternInputLabel("a");
  LabelId out = *vocab.InternDerivedLabel("out");
  std::vector<LogicalPlan> children;
  children.push_back(MakeWScan(a, WindowSpec(10, 1)));
  auto logical =
      MakePattern(out, {{"x", "x"}}, "x", "x", std::move(children));
  PatternOp op(*logical);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  op.OnTuple(0, Sgt(1, 2, a, Interval(0, 10)));
  op.OnTuple(0, Sgt(3, 3, a, Interval(0, 10)));
  ASSERT_EQ(sink.tuples.size(), 1u);
  EXPECT_EQ(sink.tuples[0].src, 3u);
}

TEST(PatternOpTriangleTest, CyclicJoinProducesTriangles) {
  // t(x,y), t(y,z), t(z,x): a directed triangle query (GraphS-style cycle
  // detection via PATTERN).
  Vocabulary vocab;
  LabelId t = *vocab.InternInputLabel("t");
  LabelId out = *vocab.InternDerivedLabel("out");
  std::vector<LogicalPlan> children;
  for (int i = 0; i < 3; ++i) {
    children.push_back(MakeWScan(t, WindowSpec(100, 1)));
  }
  auto logical = MakePattern(out, {{"x", "y"}, {"y", "z"}, {"z", "x"}}, "x",
                             "x", std::move(children));
  PatternOp op(*logical);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  auto feed = [&](VertexId s, VertexId g, Interval iv) {
    // The same input stream feeds all three ports (self-join).
    for (int port = 0; port < 3; ++port) {
      op.OnTuple(port, Sgt(s, g, t, iv));
    }
  };
  feed(1, 2, Interval(0, 50));
  feed(2, 3, Interval(1, 50));
  EXPECT_TRUE(sink.tuples.empty());
  feed(3, 1, Interval(2, 50));
  // Three rotations of the triangle (x bound to 1, 2 and 3).
  ASSERT_EQ(sink.tuples.size(), 3u);
  for (const Sgt& r : sink.tuples) {
    EXPECT_EQ(r.src, r.trg);
    EXPECT_EQ(r.validity, Interval(2, 50));
  }
}

}  // namespace
}  // namespace sgq

namespace sgq {
namespace {

TEST(EngineMemoryTest, StateBytesFallBackToAFreshEnginesAfterABurst) {
  // A PATH feeding a PATTERN: a+ closures joined with b-edges. A burst
  // fills the window adjacency, the PATH forest and inverted index, the
  // PATTERN join table and every coalescer; two windows later all of it
  // has expired, and the tables must have given their burst capacity
  // back, not kept it for reuse.
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,z) <- a+(x,y), b(y,z)",
                         WindowSpec(100, 10), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  Engine engine;
  Engine fresh;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(fresh.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  ASSERT_TRUE(fresh.Finalize().ok());
  const LabelId a = *vocab.FindLabel("a");
  const LabelId b = *vocab.FindLabel("b");

  constexpr VertexId kBurst = 20000;
  for (VertexId i = 0; i < kBurst; ++i) {
    const Timestamp t = static_cast<Timestamp>(i / 4000);
    engine.Push(Sge(i, kBurst + i, a, t));
    engine.Push(Sge(kBurst + i, 2 * kBurst + i, b, t));
  }
  engine.Flush();
  const std::size_t burst_bytes = engine.StateBytes();
  EXPECT_EQ(engine.TakeResults(0).size(), kBurst);
  engine.AdvanceTo(300);  // two windows past the burst
  EXPECT_EQ(engine.StateSize(), 0u);

  const std::size_t fresh_bytes = fresh.StateBytes();
  EXPECT_GT(burst_bytes, fresh_bytes + (std::size_t{4} << 20));
  // What stays is calendar bookkeeping: a few hundred bytes.
  EXPECT_LE(engine.StateBytes(), fresh_bytes + 4 * 1024)
      << "burst " << burst_bytes << " B, fresh " << fresh_bytes << " B";
}

}  // namespace
}  // namespace sgq
