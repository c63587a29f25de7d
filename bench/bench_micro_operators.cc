// Operator micro-benchmarks (google-benchmark): the per-tuple costs behind
// the end-to-end numbers — DFA compilation, coalescing, window-store and
// join-table maintenance, Δ-PATH expansion on chains and cliques.

#include <benchmark/benchmark.h>

#include <random>

#include "core/basic_ops.h"
#include "core/pattern_op.h"
#include "core/spath_op.h"
#include "core/window_store.h"
#include "sgq/sgq.h"

namespace sgq {
namespace {

void BM_RegexToMinimalDfa(benchmark::State& state) {
  Vocabulary vocab;
  auto regex = ParseRegex("(a b c)+ | a (b | c)* a", &vocab);
  for (auto _ : state) {
    Dfa dfa = Dfa::FromRegex(*regex);
    benchmark::DoNotOptimize(dfa.NumStates());
  }
}
BENCHMARK(BM_RegexToMinimalDfa);

void BM_CoalesceBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Sgt> tuples;
  std::mt19937_64 rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    Timestamp ts = static_cast<Timestamp>(rng() % 1000);
    tuples.emplace_back(rng() % 50, rng() % 50, 0,
                        Interval(ts, ts + 20 + static_cast<Timestamp>(
                                                   rng() % 30)));
  }
  for (auto _ : state) {
    auto merged = Coalesce(tuples);
    benchmark::DoNotOptimize(merged.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CoalesceBatch)->Arg(256)->Arg(2048);

void BM_StreamingCoalescerOffer(benchmark::State& state) {
  std::mt19937_64 rng(9);
  StreamingCoalescer c;
  Timestamp t = 0;
  for (auto _ : state) {
    ++t;
    Sgt tuple(rng() % 64, rng() % 64, 0, Interval(t, t + 40));
    benchmark::DoNotOptimize(c.Offer(tuple));
    if (t % 512 == 0) c.PurgeBefore(t - 64);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingCoalescerOffer);

void BM_WindowStoreInsertPurge(benchmark::State& state) {
  std::mt19937_64 rng(5);
  WindowEdgeStore store;
  Timestamp t = 0;
  for (auto _ : state) {
    ++t;
    store.Insert(rng() % 256, rng() % 256, rng() % 3,
                 Interval(t, t + 100));
    if (t % 1024 == 0) {
      benchmark::DoNotOptimize(store.PurgeExpired(t - 50));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowStoreInsertPurge);

void BM_SymmetricHashJoin(benchmark::State& state) {
  // Two-atom join a(x,y), b(y,z) fed with random tuples.
  Vocabulary vocab;
  LabelId a = *vocab.InternInputLabel("a");
  LabelId b = *vocab.InternInputLabel("b");
  LabelId out = *vocab.InternDerivedLabel("out");
  std::vector<LogicalPlan> children;
  children.push_back(MakeWScan(a, WindowSpec(100, 1)));
  children.push_back(MakeWScan(b, WindowSpec(100, 1)));
  auto logical = MakePattern(out, {{"x", "y"}, {"y", "z"}}, "x", "z",
                             std::move(children));

  class NullSink : public PhysicalOp {
   public:
    void OnTuple(int, const Sgt&) override { ++count; }
    std::string Name() const override { return "NULL"; }
    std::size_t count = 0;
  };

  PatternOp op(*logical);
  NullSink sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  std::mt19937_64 rng(3);
  Timestamp t = 0;
  for (auto _ : state) {
    ++t;
    const int port = static_cast<int>(rng() % 2);
    op.OnTuple(port, Sgt(rng() % 128, rng() % 128, port == 0 ? a : b,
                         Interval(t, t + 100)));
    if (t % 1024 == 0) op.Purge(t - 50);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SymmetricHashJoin);

void BM_SPathExpand(benchmark::State& state) {
  // a+ over a random graph: measures Δ-PATH maintenance per edge.
  Vocabulary vocab;
  LabelId a = *vocab.InternInputLabel("a");
  LabelId out = *vocab.InternDerivedLabel("out");
  auto regex = ParseRegex("a+", &vocab);
  const std::size_t num_vertices = static_cast<std::size_t>(state.range(0));

  class NullSink : public PhysicalOp {
   public:
    void OnTuple(int, const Sgt&) override {}
    std::string Name() const override { return "NULL"; }
  };

  SPathOp op(Dfa::FromRegex(*regex), out);
  NullSink sink;
  OutputChannel op_wire(&sink, 0);
  op.BindOutput(&op_wire);
  std::mt19937_64 rng(11);
  Timestamp t = 0;
  for (auto _ : state) {
    ++t;
    op.OnTuple(0, Sgt(rng() % num_vertices, rng() % num_vertices, a,
                      Interval(t, t + 200), {}));
    if (t % 512 == 0) op.Purge(t - 100);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SPathExpand)->Arg(64)->Arg(512);

void BM_OracleTransitiveClosure(benchmark::State& state) {
  std::mt19937_64 rng(13);
  VertexPairSet rel;
  for (int i = 0; i < 400; ++i) {
    rel.insert({rng() % 60, rng() % 60});
  }
  for (auto _ : state) {
    auto tc = TransitiveClosure(rel);
    benchmark::DoNotOptimize(tc.size());
  }
}
BENCHMARK(BM_OracleTransitiveClosure);

}  // namespace
}  // namespace sgq

BENCHMARK_MAIN();
