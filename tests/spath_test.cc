// Tests for the PATH physical operators: the Figure 9 S-PATH trace, the
// direct vs negative-tuple comparison (Example 10), explicit deletions
// (§6.2.5), and randomized snapshot-reducibility properties against the
// product-BFS oracle.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/delta_path_op.h"
#include "core/spath_op.h"
#include "core/window_store.h"
#include "model/coalesce.h"
#include "model/snapshot_graph.h"
#include "query/oracle.h"
#include "regex/dfa.h"
#include "test_util.h"
#include "workload/generators.h"

namespace sgq {
namespace {

class CollectOp : public PhysicalOp {
 public:
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    tuples.push_back(tuple);
  }
  std::string Name() const override { return "COLLECT"; }
  std::vector<Sgt> tuples;
};

/// Pairs valid at `t` in a result stream.
VertexPairSet PairsAt(const std::vector<Sgt>& results, Timestamp t) {
  VertexPairSet out;
  for (const EdgeRef& e : SnapshotEdges(results, t)) {
    out.insert({e.src, e.trg});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Figure 9: the S-PATH running example.
// ---------------------------------------------------------------------------

class Figure9Test : public ::testing::Test {
 protected:
  void SetUp() override {
    rl_ = *vocab_.InternInputLabel("RL");
    out_ = *vocab_.InternDerivedLabel("RLP");
    for (const char* name :
         {"x", "z", "y", "w", "t", "u", "v", "s"}) {
      ids_[name] = *vocab_.InternVertex(name);
    }
    auto regex = ParseRegex("RL+", &vocab_);
    ASSERT_TRUE(regex.ok());
    dfa_ = Dfa::FromRegex(*regex);
  }

  // The streaming graph of Figure 9a.
  std::vector<Sgt> Figure9Stream() {
    auto E = [&](const char* s, const char* g, Timestamp ts,
                 Timestamp exp) {
      return Sgt(ids_[s], ids_[g], rl_, Interval(ts, exp),
                 {EdgeRef(ids_[s], ids_[g], rl_)});
    };
    return {E("x", "z", 23, 31), E("z", "u", 24, 32), E("x", "y", 25, 35),
            E("y", "w", 26, 33), E("z", "t", 27, 40), E("y", "u", 28, 37),
            E("u", "v", 29, 41), E("u", "s", 30, 38), E("w", "v", 30, 39)};
  }

  VertexId Id(const char* name) { return ids_.at(name); }

  Vocabulary vocab_;
  LabelId rl_, out_;
  Dfa dfa_ = Dfa::FromNfa(Nfa::FromRegex(Regex::Epsilon()));
  std::map<std::string, VertexId> ids_;
};

TEST_F(Figure9Test, SPathTraceMatchesPaperSnapshots) {
  SPathOp op(dfa_, out_);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  for (const Sgt& t : Figure9Stream()) op.OnTuple(0, t);

  auto from_x = [&](Timestamp t) {
    VertexPairSet all = PairsAt(sink.tuples, t);
    std::set<VertexId> out;
    for (const auto& [s, g] : all) {
      if (s == Id("x")) out.insert(g);
    }
    return out;
  };

  // t = 30 (Figure 9c): x reaches everything.
  std::set<VertexId> expected30 = {Id("z"), Id("u"), Id("y"), Id("w"),
                                   Id("t"), Id("v"), Id("s")};
  EXPECT_EQ(from_x(30), expected30);

  // t = 31: (z,1) and (t,1) expire (intervals [23,31) and [27,31)); the
  // propagated path through y keeps u, v, s alive until 35.
  std::set<VertexId> expected31 = {Id("u"), Id("y"), Id("w"), Id("v"),
                                   Id("s")};
  EXPECT_EQ(from_x(31), expected31);

  // t = 34: u/v/s valid until 35 via the propagated derivation; w gone
  // (exp 33).
  std::set<VertexId> expected34 = {Id("u"), Id("y"), Id("v"), Id("s")};
  EXPECT_EQ(from_x(34), expected34);

  // t = 35: everything from x has expired.
  EXPECT_TRUE(from_x(35).empty());
}

TEST_F(Figure9Test, Example10DirectVsNegativeTupleEquivalence) {
  // The two approaches differ in *when* they do the work (Example 10), but
  // their output snapshots must agree at every instant.
  SPathOp direct(dfa_, out_);
  DeltaPathOp negative(dfa_, out_);
  CollectOp direct_sink, negative_sink;
  OutputChannel direct_wire(&direct_sink, 0);
  direct.BindOutput(&direct_wire);
  OutputChannel negative_wire(&negative_sink, 0);
  negative.BindOutput(&negative_wire);

  Timestamp last = 0;
  for (const Sgt& t : Figure9Stream()) {
    // Drive time forward for the negative-tuple operator's expirations.
    for (Timestamp now = last + 1; now <= t.validity.ts; ++now) {
      negative.OnTimeAdvance(now);
    }
    last = t.validity.ts;
    direct.OnTuple(0, t);
    negative.OnTuple(0, t);
  }
  for (Timestamp now = last + 1; now <= 45; ++now) {
    negative.OnTimeAdvance(now);
  }

  for (Timestamp t = 23; t <= 42; ++t) {
    EXPECT_EQ(PairsAt(direct_sink.tuples, t),
              PairsAt(negative_sink.tuples, t))
        << "snapshots diverge at t=" << t;
  }
  // The negative-tuple operator paid for re-derivations; S-PATH did not.
  EXPECT_GT(negative.rederivation_rounds(), 0u);
}

TEST_F(Figure9Test, WitnessPathsAreWellFormed) {
  SPathOp op(dfa_, out_);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  std::vector<Sgt> stream = Figure9Stream();
  for (const Sgt& t : stream) op.OnTuple(0, t);

  for (const Sgt& r : sink.tuples) {
    ASSERT_FALSE(r.payload.empty());
    EXPECT_EQ(r.payload.front().src, r.src);
    EXPECT_EQ(r.payload.back().trg, r.trg);
    for (std::size_t i = 0; i + 1 < r.payload.size(); ++i) {
      EXPECT_EQ(r.payload[i].trg, r.payload[i + 1].src);
    }
    // Every witness edge is a real input edge.
    for (const EdgeRef& e : r.payload) {
      bool found = false;
      for (const Sgt& in : stream) {
        if (in.edge() == e) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST_F(Figure9Test, ExplicitDeletionRetractsAndReasserts) {
  SPathOp op(dfa_, out_);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  // x -> z -> u plus a parallel edge x -> u.
  op.OnTuple(0, Sgt(Id("x"), Id("z"), rl_, Interval(10, 40),
                    {EdgeRef(Id("x"), Id("z"), rl_)}));
  op.OnTuple(0, Sgt(Id("z"), Id("u"), rl_, Interval(11, 40),
                    {EdgeRef(Id("z"), Id("u"), rl_)}));
  op.OnTuple(0, Sgt(Id("x"), Id("u"), rl_, Interval(12, 30),
                    {EdgeRef(Id("x"), Id("u"), rl_)}));
  EXPECT_EQ(PairsAt(sink.tuples, 15).size(), 3u);

  // Delete x->z at t=20: (x,z) must be retracted; (x,u) must survive via
  // the direct edge (re-assertion), (z,u) is untouched.
  op.OnTuple(0, Sgt(Id("x"), Id("z"), rl_, Interval(20, kMaxTimestamp), {},
                    /*del=*/true));
  VertexPairSet after = PairsAt(sink.tuples, 21);
  VertexPairSet expected = {{Id("z"), Id("u")}, {Id("x"), Id("u")}};
  EXPECT_EQ(after, expected);
  // But the surviving (x,u) witness now has the direct edge's expiry 30.
  EXPECT_TRUE(PairsAt(sink.tuples, 29).count({Id("x"), Id("u")}) > 0);
  EXPECT_EQ(PairsAt(sink.tuples, 31).count({Id("x"), Id("u")}), 0u);
}

TEST_F(Figure9Test, ShardRepairSkipsOnlyDeadReferences) {
  // A shard reads a window the driver wrote, so its deletion repair
  // cannot tell whether the deletion truncated a live entry; it repairs as
  // the sibling consumer of a shared partition does, skipping tree edges
  // whose derivation already ended. Here (x, u) hangs off x -> z, which
  // ended at 20, and z -> u is still live when it is deleted at 25 (no
  // purge ran in between): a lone instance re-derives that dead reference.
  auto edge = [&](const char* s, const char* g, Timestamp ts,
                  Timestamp exp) {
    return Sgt(Id(s), Id(g), rl_, Interval(ts, exp),
               {EdgeRef(Id(s), Id(g), rl_)});
  };
  const std::vector<Sgt> stream = {
      edge("x", "z", 10, 20), edge("z", "u", 11, 40),
      Sgt(Id("z"), Id("u"), rl_, Interval(25, kMaxTimestamp), {},
          /*del=*/true)};

  SPathOp lone(dfa_, out_);
  CollectOp lone_sink;
  OutputChannel lone_wire(&lone_sink, 0);
  lone.BindOutput(&lone_wire);
  for (const Sgt& t : stream) lone.OnTuple(0, t);

  WindowEdgeStore shared;
  SPathOp shard(dfa_, out_);
  shard.BindSharedWindow(&shared);
  shard.ReadSharedWindows();
  CollectOp shard_sink;
  OutputChannel shard_wire(&shard_sink, 0);
  shard.BindOutput(&shard_wire);
  for (const Sgt& t : stream) {
    shard.WriteWindows(0, &t, 1);  // the driver writes, the shard reads
    shard.OnTuple(0, t);
  }

  // Only the lone instance retracts (x, u) at 25, a result that ended at
  // 20; no snapshot tells the two apart.
  EXPECT_EQ(lone_sink.tuples.size(), shard_sink.tuples.size() + 1);
  for (Timestamp t = 0; t <= 45; ++t) {
    EXPECT_EQ(PairsAt(shard_sink.tuples, t), PairsAt(lone_sink.tuples, t))
        << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// Randomized property tests: snapshot reducibility of PATH (Def. 14).
// ---------------------------------------------------------------------------

struct RpqCase {
  const char* regex;
  int seed;
};

class PathPropertyTest : public ::testing::TestWithParam<RpqCase> {};

TEST_P(PathPropertyTest, SPathMatchesProductBfsOracle) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam().seed);
  opt.num_vertices = 10;
  opt.num_labels = 3;
  opt.num_edges = 90;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto regex = ParseRegex(GetParam().regex, &vocab);
  ASSERT_TRUE(regex.ok());
  Dfa dfa = Dfa::FromRegex(*regex);
  LabelId out = *vocab.InternDerivedLabel("out");

  const WindowSpec window(20, 1);
  SPathOp op(dfa, out);
  CollectOp sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  SgtStream windowed;
  for (const Sge& sge : *stream) {
    Sgt t(sge.src, sge.trg, sge.label,
          Interval(sge.t, window.ExpiryFor(sge.t)), {sge.edge()});
    windowed.push_back(t);
    op.OnTuple(0, t);
  }

  for (Timestamp t = 0; t <= stream->back().t; t += 7) {
    SnapshotGraph g = SnapshotGraph::At(windowed, t);
    EXPECT_EQ(PairsAt(sink.tuples, t), EvaluateRpq(g, dfa))
        << "regex=" << GetParam().regex << " seed=" << GetParam().seed
        << " t=" << t;
  }
}

TEST_P(PathPropertyTest, DeltaPathMatchesSPathSnapshots) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = static_cast<uint64_t>(GetParam().seed) + 1000;
  opt.num_vertices = 9;
  opt.num_labels = 3;
  opt.num_edges = 80;
  opt.max_gap = 2;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());

  auto regex = ParseRegex(GetParam().regex, &vocab);
  ASSERT_TRUE(regex.ok());
  Dfa dfa = Dfa::FromRegex(*regex);
  LabelId out = *vocab.InternDerivedLabel("out");

  const WindowSpec window(15, 1);
  SPathOp direct(dfa, out);
  DeltaPathOp negative(dfa, out);
  CollectOp sink_d, sink_n;
  OutputChannel direct_wire(&sink_d, 0);
  direct.BindOutput(&direct_wire);
  OutputChannel negative_wire(&sink_n, 0);
  negative.BindOutput(&negative_wire);

  Timestamp last = 0;
  for (const Sge& sge : *stream) {
    for (Timestamp now = last + 1; now <= sge.t; ++now) {
      negative.OnTimeAdvance(now);
    }
    last = sge.t;
    Sgt t(sge.src, sge.trg, sge.label,
          Interval(sge.t, window.ExpiryFor(sge.t)), {sge.edge()});
    direct.OnTuple(0, t);
    negative.OnTuple(0, t);
  }
  for (Timestamp now = last + 1; now <= last + 20; ++now) {
    negative.OnTimeAdvance(now);
  }

  for (Timestamp t = 0; t <= last; t += 3) {
    EXPECT_EQ(PairsAt(sink_d.tuples, t), PairsAt(sink_n.tuples, t))
        << "regex=" << GetParam().regex << " seed=" << GetParam().seed
        << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RpqSweep, PathPropertyTest,
    ::testing::Values(RpqCase{"a+", 1}, RpqCase{"a+", 2}, RpqCase{"a+", 3},
                      RpqCase{"a b", 4}, RpqCase{"a b*", 5},
                      RpqCase{"a b*", 6}, RpqCase{"(a b)+", 7},
                      RpqCase{"(a b c)+", 8}, RpqCase{"a (b|c)*", 9},
                      RpqCase{"(a|b)+", 10}, RpqCase{"a* b", 11},
                      RpqCase{"(a b c)+", 12}, RpqCase{"a (b c)* a", 13}));

}  // namespace
}  // namespace sgq
