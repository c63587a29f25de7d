// Live attach/detach of standing queries (Engine::AddPlan after
// Finalize, Engine::RemoveQuery — DESIGN.md §10):
//
//  - removing a query mid-stream leaves every surviving query's result
//    stream byte-identical to an engine the removed query never joined
//    (workers=1), snapshot-equivalent sharded;
//  - shared operators are reference-counted: removal decrements, only
//    zero-reference operators are destroyed, NumOperators() returns to
//    the never-added count;
//  - a re-added (or live-attached) query with a fresh subtree sees the
//    stream suffix exactly as a static run over that suffix would;
//  - live attach of a window slide finer than the running granularity is
//    refused without disturbing the engine;
//  - a join shared across head labels survives the removal of either
//    query (the other keeps its relabel UNION or loses it with its
//    suffix), is forgotten once both are gone, and is adopted, state and
//    all, by a live-attached query that matches it up to its head label;
//  - removing a query prunes its label postings: stream elements only it
//    consumed stop counting as processed edges;
//  - checkpoints record the removal history — a snapshot restores only
//    into an engine that replayed the same RemoveQuery calls, and refuses
//    (by name) one whose live set diverged.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

using testing_util::ResultPairsAt;
using testing_util::SampleTimes;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

InputStream RandomStream(uint64_t seed, Vocabulary* vocab,
                         std::size_t num_edges = 150) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = num_edges;
  opt.max_gap = 2;
  opt.deletion_probability = 0.25;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

/// q0/q1 overlap (both compile the a-scan + a+ PATH chain), q2 is
/// disjoint (c-scans only).
std::vector<StreamingGraphQuery> MixedQueries(Vocabulary* vocab) {
  const char* texts[] = {
      "Answer(x,y) <- a+(x,y)",
      "Answer(x,z) <- a+(x,y), b(y,z)",
      "Answer(x,z) <- c(x,y), c(y,z)",
  };
  std::vector<StreamingGraphQuery> queries;
  for (const char* text : texts) {
    auto query = MakeQuery(text, WindowSpec(12, 3), vocab);
    EXPECT_TRUE(query.ok()) << text;
    if (query.ok()) queries.push_back(*query);
  }
  return queries;
}

std::vector<Sgt> RunSolo(const StreamingGraphQuery& query,
                         const Vocabulary& vocab, const InputStream& stream,
                         EngineOptions options) {
  Engine engine(options);
  const bool compiled =
      engine.AddQuery(query, vocab).ok() && engine.Finalize().ok();
  EXPECT_TRUE(compiled);
  if (!compiled) return {};
  engine.PushAll(stream);
  return engine.results(0);
}

void ExpectByteIdentical(const std::vector<Sgt>& expected,
                         const std::vector<Sgt>& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i]) << context << " position " << i;
  }
}

// ---------------------------------------------------------------------------
// Survivor byte-identity / snapshot equivalence
// ---------------------------------------------------------------------------

class RemoveQueryDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RemoveQueryDifferentialTest, SurvivorsMatchNeverAddedRun) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 131 + 7;
  for (PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    for (bool sharing : {true, false}) {
      Vocabulary vocab;
      const InputStream stream = RandomStream(seed, &vocab);
      std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
      ASSERT_EQ(queries.size(), 3u);
      const std::size_t half = stream.size() / 2;

      EngineOptions options;
      options.path_impl = impl;
      options.cross_query_sharing = sharing;
      const std::string context =
          "seed " + std::to_string(seed) +
          (impl == PathImpl::kSPath ? " s-path" : " delta") +
          (sharing ? " shared" : " unshared");

      // The removal run: all three queries, q1 detached mid-stream.
      Engine engine(options);
      for (const StreamingGraphQuery& query : queries) {
        ASSERT_TRUE(engine.AddQuery(query, vocab).ok());
      }
      ASSERT_TRUE(engine.Finalize().ok());
      const std::size_t all_ops = engine.NumOperators();
      for (std::size_t i = 0; i < half; ++i) engine.Push(stream[i]);
      ASSERT_TRUE(engine.RemoveQuery(1).ok()) << context;
      EXPECT_FALSE(engine.IsLive(1));
      EXPECT_TRUE(engine.IsLive(0));
      EXPECT_EQ(engine.NumLiveQueries(), 2u);
      EXPECT_LT(engine.NumOperators(), all_ops) << context;
      for (std::size_t i = half; i < stream.size(); ++i) {
        engine.Push(stream[i]);
      }
      engine.Flush();

      // The never-added reference: q0 and q2 only, full stream.
      Engine reference(options);
      ASSERT_TRUE(reference.AddQuery(queries[0], vocab).ok());
      ASSERT_TRUE(reference.AddQuery(queries[2], vocab).ok());
      ASSERT_TRUE(reference.Finalize().ok());
      reference.PushAll(stream);

      // Removal is invisible to survivors: results byte-identical AND the
      // post-removal operator population matches the never-added engine's.
      ExpectByteIdentical(reference.results(0), engine.results(0),
                          context + " q0");
      ExpectByteIdentical(reference.results(1), engine.results(2),
                          context + " q2");
      EXPECT_EQ(engine.NumOperators(), reference.NumOperators()) << context;

      // A second removal of the same id is refused.
      EXPECT_FALSE(engine.RemoveQuery(1).ok());
      EXPECT_FALSE(engine.RemoveQuery(99).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RemoveQueryDifferentialTest,
                         ::testing::Range(0, 3));

TEST(RemoveQueryShardedTest, SurvivorsStaySnapshotEquivalent) {
  Vocabulary vocab;
  const InputStream stream = RandomStream(55, &vocab);
  std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
  ASSERT_EQ(queries.size(), 3u);
  const std::size_t half = stream.size() / 2;

  const std::vector<Sgt> reference =
      RunSolo(queries[0], vocab, stream, EngineOptions{});
  const std::vector<Timestamp> times = SampleTimes(stream, 6);

  for (std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
      EngineOptions options;
      options.num_workers = workers;
      options.batch_size = batch;
      Engine engine(options);
      for (const StreamingGraphQuery& query : queries) {
        ASSERT_TRUE(engine.AddQuery(query, vocab).ok());
      }
      ASSERT_TRUE(engine.Finalize().ok());
      for (std::size_t i = 0; i < half; ++i) engine.Push(stream[i]);
      ASSERT_TRUE(engine.RemoveQuery(1).ok());
      for (std::size_t i = half; i < stream.size(); ++i) {
        engine.Push(stream[i]);
      }
      engine.Flush();
      for (Timestamp t : times) {
        ASSERT_EQ(ResultPairsAt(engine.results(0), t),
                  ResultPairsAt(reference, t))
            << "workers " << workers << " batch " << batch << " t " << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Refcounts
// ---------------------------------------------------------------------------

TEST(OperatorRefCountTest, SharedSubtreeSurvivesUntilLastSubscriber) {
  Vocabulary vocab;
  std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
  Engine engine{EngineOptions{}};
  ASSERT_TRUE(engine.AddQuery(queries[0], vocab).ok());  // a+
  ASSERT_TRUE(engine.AddQuery(queries[1], vocab).ok());  // a+ . b
  ASSERT_TRUE(engine.Finalize().ok());

  // The a+ chain (WSCAN + PATH) below q0's projection is shared by both
  // plans; find it by its refcount. The per-query PATTERN roots are not
  // shared even when their inputs are.
  std::vector<OpId> shared;
  for (OpId id = 0; id < static_cast<OpId>(engine.NumOperators()); ++id) {
    if (engine.OperatorRefCount(id) == 2) shared.push_back(id);
  }
  ASSERT_FALSE(shared.empty());
  EXPECT_EQ(engine.OperatorRefCount(engine.QueryRoot(0)), 1);
  // q1's private suffix is referenced by q1 alone.
  const OpId q1_root = engine.QueryRoot(1);
  EXPECT_EQ(engine.OperatorRefCount(q1_root), 1);

  const InputStream stream = RandomStream(13, &vocab);
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) engine.Push(stream[i]);

  // Removing q1 keeps the shared chain (refcount 2 -> 1) and destroys
  // only q1's private suffix.
  ASSERT_TRUE(engine.RemoveQuery(1).ok());
  for (OpId id : shared) EXPECT_EQ(engine.OperatorRefCount(id), 1);
  EXPECT_EQ(engine.OperatorRefCount(q1_root), 0);

  // The surviving subscriber still answers through the shared chain.
  for (std::size_t i = half; i < stream.size(); ++i) engine.Push(stream[i]);
  engine.Flush();
  ExpectByteIdentical(RunSolo(queries[0], vocab, stream, EngineOptions{}),
                      engine.results(0), "survivor through shared chain");

  // Removing the last subscriber releases everything.
  ASSERT_TRUE(engine.RemoveQuery(0).ok());
  for (OpId id : shared) EXPECT_EQ(engine.OperatorRefCount(id), 0);
  EXPECT_EQ(engine.NumOperators(), 0u);
  EXPECT_EQ(engine.NumLiveQueries(), 0u);
}

// ---------------------------------------------------------------------------
// A join shared across head labels
// ---------------------------------------------------------------------------

/// q0 compiles the a+ . b join under its head label Answer; q1 (shaped
/// like the paper's Q7) derives the same join as RL, so it reads q0's join
/// through a relabel UNION. Kept out of MixedQueries: removing q0 leaves
/// q1 one operator (the UNION) above its never-added count by design.
std::vector<StreamingGraphQuery> HeadLabelPair(Vocabulary* vocab) {
  const char* texts[] = {
      "Answer(x,z) <- a+(x,y), b(y,z)",
      "RL(x,z) <- a+(x,y), b(y,z)\nAnswer(x,w) <- RL+(x,z), c(w,z)",
  };
  std::vector<StreamingGraphQuery> queries;
  for (const char* text : texts) {
    auto query = MakeQuery(text, WindowSpec(12, 3), vocab);
    EXPECT_TRUE(query.ok()) << text;
    if (query.ok()) queries.push_back(*query);
  }
  return queries;
}

std::size_t CountOps(const Engine& engine, const std::string& name) {
  std::size_t count = 0;
  for (OpId id = 0; id < static_cast<OpId>(engine.executor().NumOps());
       ++id) {
    const PhysicalOp* op = engine.executor().op(id);
    if (op != nullptr && op->Name() == name) ++count;
  }
  return count;
}

/// Parameter: num_workers. Survivors are byte-identical to the reference
/// at 1 worker and snapshot-equivalent to it at 2.
class SharedJoinRemovalTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    stream_ = RandomStream(113, &vocab_);
    queries_ = HeadLabelPair(&vocab_);
    ASSERT_EQ(queries_.size(), 2u);
    options_.num_workers = GetParam();
  }

  void ExpectMatches(const std::vector<Sgt>& reference,
                     const std::vector<Sgt>& actual,
                     const InputStream& stream, const std::string& context) {
    ASSERT_FALSE(reference.empty()) << context;
    if (GetParam() == 1) {
      ExpectByteIdentical(reference, actual, context);
      return;
    }
    for (Timestamp t : SampleTimes(stream, 6)) {
      ASSERT_EQ(ResultPairsAt(actual, t), ResultPairsAt(reference, t))
          << context << " t " << t;
    }
  }

  /// Both queries registered, `removed` detached halfway through.
  void RunWithRemoval(QueryId removed, Engine* engine) {
    for (const StreamingGraphQuery& query : queries_) {
      ASSERT_TRUE(engine->AddQuery(query, vocab_).ok());
    }
    ASSERT_TRUE(engine->Finalize().ok());
    EXPECT_EQ(CountOps(*engine, "PATTERN"), 2u);  // shared join + q1 outer
    const std::size_t half = stream_.size() / 2;
    for (std::size_t i = 0; i < half; ++i) engine->Push(stream_[i]);
    ASSERT_TRUE(engine->RemoveQuery(removed).ok());
    for (std::size_t i = half; i < stream_.size(); ++i) {
      engine->Push(stream_[i]);
    }
    engine->Flush();
  }

  /// The never-added run: `q` alone over the whole stream.
  void RunAlone(QueryId q, Engine* engine) {
    ASSERT_TRUE(engine->AddQuery(queries_[q], vocab_).ok());
    ASSERT_TRUE(engine->Finalize().ok());
    engine->PushAll(stream_);
  }

  Vocabulary vocab_;
  InputStream stream_;
  std::vector<StreamingGraphQuery> queries_;
  EngineOptions options_;
};

TEST_P(SharedJoinRemovalTest, RemovingTheEmittingQueryKeepsTheRelabelStage) {
  // q0's removal leaves the join alive (q1 still reaches it), still
  // emitting Answer into q1's relabel UNION.
  Engine engine(options_);
  ASSERT_NO_FATAL_FAILURE(RunWithRemoval(0, &engine));
  Engine reference(options_);
  ASSERT_NO_FATAL_FAILURE(RunAlone(1, &reference));
  ExpectMatches(reference.results(0), engine.results(1), stream_,
                "survivor q1");
  EXPECT_EQ(engine.NumOperators(), reference.NumOperators() + 1);
  EXPECT_EQ(CountOps(engine, "UNION"), 1u);
  EXPECT_EQ(CountOps(reference, "UNION"), 0u);
}

TEST_P(SharedJoinRemovalTest, RemovingTheRelabeledQueryFreesItsSuffix) {
  // q1's relabel UNION, RL+ PATH, outer PATTERN and sink go; q0 is left
  // exactly as if q1 had never been registered.
  Engine engine(options_);
  ASSERT_NO_FATAL_FAILURE(RunWithRemoval(1, &engine));
  Engine reference(options_);
  ASSERT_NO_FATAL_FAILURE(RunAlone(0, &reference));
  ExpectMatches(reference.results(0), engine.results(0), stream_,
                "survivor q0");
  EXPECT_EQ(engine.NumOperators(), reference.NumOperators());
  EXPECT_EQ(CountOps(engine, "UNION"), 0u);
}

TEST_P(SharedJoinRemovalTest, ReattachAfterBothRemovedCompilesAFreshJoin) {
  // Removing both destroys the join, so the dedup map must forget its
  // signature and its head-label-free key: a re-attached q1 that found
  // either would wire itself to a destroyed operator. It must compile a
  // fresh join (no relabel stage) and see only the stream suffix.
  Engine engine(options_);
  for (const StreamingGraphQuery& query : queries_) {
    ASSERT_TRUE(engine.AddQuery(query, vocab_).ok());
  }
  ASSERT_TRUE(engine.Finalize().ok());
  const std::size_t third = stream_.size() / 3;
  for (std::size_t i = 0; i < third; ++i) engine.Push(stream_[i]);
  ASSERT_TRUE(engine.RemoveQuery(0).ok());
  ASSERT_TRUE(engine.RemoveQuery(1).ok());
  EXPECT_EQ(engine.NumOperators(), 0u);
  for (std::size_t i = third; i < 2 * third; ++i) engine.Push(stream_[i]);

  auto again = engine.AddQuery(queries_[1], vocab_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(CountOps(engine, "PATTERN"), 2u);
  EXPECT_EQ(CountOps(engine, "UNION"), 0u);
  for (std::size_t i = 2 * third; i < stream_.size(); ++i) {
    engine.Push(stream_[i]);
  }
  engine.Flush();

  const InputStream suffix(
      stream_.begin() + static_cast<std::ptrdiff_t>(2 * third), stream_.end());
  Engine reference(options_);
  ASSERT_TRUE(reference.AddQuery(queries_[1], vocab_).ok());
  ASSERT_TRUE(reference.Finalize().ok());
  reference.PushAll(suffix);
  EXPECT_EQ(engine.NumOperators(), reference.NumOperators());
  ExpectMatches(reference.results(0), engine.results(*again), suffix,
                "re-attached q1");
}

INSTANTIATE_TEST_SUITE_P(Workers, SharedJoinRemovalTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2}));

// ---------------------------------------------------------------------------
// Live attach
// ---------------------------------------------------------------------------

TEST(LiveAttachTest, FreshSubtreeMatchesStaticRunOverSuffix) {
  Vocabulary vocab;
  const InputStream stream = RandomStream(29, &vocab);
  std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
  const std::size_t k = stream.size() / 3;
  const InputStream suffix(stream.begin() + static_cast<std::ptrdiff_t>(k),
                           stream.end());

  Engine engine{EngineOptions{}};
  ASSERT_TRUE(engine.AddQuery(queries[0], vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  for (std::size_t i = 0; i < k; ++i) engine.Push(stream[i]);

  // q2 shares nothing with q0: its subtree attaches fresh mid-stream and
  // must behave exactly like a static engine fed only the suffix.
  auto attached = engine.AddQuery(queries[2], vocab);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  for (std::size_t i = k; i < stream.size(); ++i) engine.Push(stream[i]);
  engine.Flush();

  ExpectByteIdentical(RunSolo(queries[2], vocab, suffix, EngineOptions{}),
                      engine.results(*attached), "live attach suffix");
  // The original subscriber never noticed.
  ExpectByteIdentical(RunSolo(queries[0], vocab, stream, EngineOptions{}),
                      engine.results(0), "pre-attached survivor");
}

TEST(LiveAttachTest, ReSubscribeAfterFullDetachStartsFresh) {
  Vocabulary vocab;
  const InputStream stream = RandomStream(47, &vocab);
  std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
  const std::size_t third = stream.size() / 3;

  Engine engine{EngineOptions{}};
  auto first = engine.AddQuery(queries[2], vocab);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(engine.Finalize().ok());
  for (std::size_t i = 0; i < third; ++i) engine.Push(stream[i]);
  ASSERT_TRUE(engine.RemoveQuery(*first).ok());

  // Detached interval: elements only the removed query consumed.
  for (std::size_t i = third; i < 2 * third; ++i) engine.Push(stream[i]);

  // Re-subscribe: the operators were destroyed at detach, so the new
  // registration compiles fresh state and its id is new.
  auto second = engine.AddQuery(queries[2], vocab);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(*second, *first);
  EXPECT_FALSE(engine.IsLive(*first));
  for (std::size_t i = 2 * third; i < stream.size(); ++i) {
    engine.Push(stream[i]);
  }
  engine.Flush();

  const InputStream suffix(
      stream.begin() + static_cast<std::ptrdiff_t>(2 * third), stream.end());
  ExpectByteIdentical(RunSolo(queries[2], vocab, suffix, EngineOptions{}),
                      engine.results(*second), "re-subscribed suffix");
}

TEST(LiveAttachTest, HeadLabelTwinAdoptsTheRunningJoin) {
  // A plan whose join matches a running join up to its head label attaches
  // a relabel UNION to that join instead of compiling a fresh one, so it
  // adopts the join's state: from the attach point on, its results are
  // exactly the running plan's, under its own label.
  Vocabulary vocab;
  const InputStream stream = RandomStream(71, &vocab);
  const WindowSpec window(12, 3);
  auto join = [&](const char* head) {
    std::vector<LogicalPlan> kids;
    kids.push_back(MakeWScan(*vocab.InternInputLabel("a"), window));
    kids.push_back(MakeWScan(*vocab.InternInputLabel("b"), window));
    return MakePattern(*vocab.InternDerivedLabel(head),
                       {{"x", "y"}, {"y", "z"}}, "x", "z", std::move(kids));
  };
  const LogicalPlan running = join("J1");
  const LogicalPlan twin = join("J2");
  const LabelId twin_label = twin->output_label;

  Engine engine{EngineOptions{}};
  ASSERT_TRUE(engine.AddPlan(*running, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) engine.Push(stream[i]);
  const std::size_t before = engine.results(0).size();
  const std::size_t ops = engine.NumOperators();
  auto attached = engine.AddPlan(*twin, vocab);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  EXPECT_EQ(engine.NumOperators(), ops + 2);  // relabel UNION + sink
  for (std::size_t i = half; i < stream.size(); ++i) engine.Push(stream[i]);
  engine.Flush();

  std::vector<Sgt> expected(engine.results(0).begin() +
                                static_cast<std::ptrdiff_t>(before),
                            engine.results(0).end());
  for (Sgt& r : expected) {
    r.label = twin_label;
    r.payload[0].label = twin_label;  // a two-atom join's derived edge
  }
  ASSERT_FALSE(expected.empty());
  ExpectByteIdentical(expected, engine.results(*attached), "adopted join");
}

TEST(LiveAttachTest, FinerSlideIsRefusedWithoutDisturbingTheEngine) {
  Vocabulary vocab;
  const InputStream stream = RandomStream(61, &vocab);
  auto coarse = MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(coarse.ok());
  auto fine = MakeQuery("Answer(x,z) <- c(x,y), c(y,z)", WindowSpec(12, 1),
                        &vocab);
  ASSERT_TRUE(fine.ok());

  Engine engine{EngineOptions{}};
  ASSERT_TRUE(engine.AddQuery(*coarse, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());  // fixes the granularity at slide 3
  const std::size_t half = stream.size() / 2;
  for (std::size_t i = 0; i < half; ++i) engine.Push(stream[i]);

  auto refused = engine.AddQuery(*fine, vocab);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("finer"), std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(engine.NumLiveQueries(), 1u);

  // The refusal had no side effects: the engine keeps running and the
  // surviving query's output is untouched.
  for (std::size_t i = half; i < stream.size(); ++i) engine.Push(stream[i]);
  engine.Flush();
  ExpectByteIdentical(RunSolo(*coarse, vocab, stream, EngineOptions{}),
                      engine.results(0), "after refused attach");
}

// ---------------------------------------------------------------------------
// Query-index pruning
// ---------------------------------------------------------------------------

TEST(RemoveQueryDispatchTest, RemovedLabelsStopCountingAsProcessed) {
  Vocabulary vocab;
  const InputStream stream = RandomStream(83, &vocab);
  std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
  const std::size_t half = stream.size() / 2;

  // Reference: q0 alone — its processed-edge count over the full stream.
  Engine solo{EngineOptions{}};
  ASSERT_TRUE(solo.AddQuery(queries[0], vocab).ok());
  ASSERT_TRUE(solo.Finalize().ok());
  solo.PushAll(stream);

  // q2 is the only consumer of label c: after its removal, c-edges must
  // stop counting as processed — the posting list (and the label's empty
  // source entry) is gone, not just bypassed.
  Engine engine{EngineOptions{}};
  ASSERT_TRUE(engine.AddQuery(queries[0], vocab).ok());
  ASSERT_TRUE(engine.AddQuery(queries[2], vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  for (std::size_t i = 0; i < half; ++i) engine.Push(stream[i]);
  ASSERT_TRUE(engine.RemoveQuery(1).ok());
  const std::size_t at_removal = engine.edges_processed();

  Engine solo_suffix{EngineOptions{}};
  ASSERT_TRUE(solo_suffix.AddQuery(queries[0], vocab).ok());
  ASSERT_TRUE(solo_suffix.Finalize().ok());
  for (std::size_t i = half; i < stream.size(); ++i) {
    engine.Push(stream[i]);
    solo_suffix.Push(stream[i]);
  }
  engine.Flush();
  solo_suffix.Flush();

  EXPECT_EQ(engine.edges_processed() - at_removal,
            solo_suffix.edges_processed());
}

// ---------------------------------------------------------------------------
// Checkpoint after removal
// ---------------------------------------------------------------------------

TEST(RemoveQueryCheckpointTest, RestoresOnlyIntoMatchingRemovalHistory) {
  Vocabulary vocab;
  const InputStream stream = RandomStream(97, &vocab);
  std::vector<StreamingGraphQuery> queries = MixedQueries(&vocab);
  const std::size_t half = stream.size() / 2;

  // Uninterrupted reference with the same add/remove history.
  Engine reference{EngineOptions{}};
  ASSERT_TRUE(reference.AddQuery(queries[0], vocab).ok());
  ASSERT_TRUE(reference.AddQuery(queries[1], vocab).ok());
  ASSERT_TRUE(reference.Finalize().ok());
  for (std::size_t i = 0; i < half; ++i) reference.Push(stream[i]);
  ASSERT_TRUE(reference.RemoveQuery(1).ok());
  for (std::size_t i = half; i < stream.size(); ++i) {
    reference.Push(stream[i]);
  }
  reference.Flush();

  // Checkpoint right after the removal.
  const std::string path = TempPath("removal.sgqc");
  Engine original{EngineOptions{}};
  ASSERT_TRUE(original.AddQuery(queries[0], vocab).ok());
  ASSERT_TRUE(original.AddQuery(queries[1], vocab).ok());
  ASSERT_TRUE(original.Finalize().ok());
  for (std::size_t i = 0; i < half; ++i) original.Push(stream[i]);
  ASSERT_TRUE(original.RemoveQuery(1).ok());
  ASSERT_TRUE(original.Checkpoint(path, &vocab).ok());
  ASSERT_TRUE(original.WaitForCheckpoint().ok());

  // Restore target that replayed the same removal: accepted, and the
  // resumed run is byte-identical to the uninterrupted one.
  Engine resumed{EngineOptions{}};
  ASSERT_TRUE(resumed.AddQuery(queries[0], vocab).ok());
  ASSERT_TRUE(resumed.AddQuery(queries[1], vocab).ok());
  ASSERT_TRUE(resumed.Finalize().ok());
  ASSERT_TRUE(resumed.RemoveQuery(1).ok());
  Status restore = resumed.Restore(path, &vocab);
  ASSERT_TRUE(restore.ok()) << restore.ToString();
  for (std::size_t i = half; i < stream.size(); ++i) {
    resumed.Push(stream[i]);
  }
  resumed.Flush();
  ExpectByteIdentical(reference.results(0), resumed.results(0),
                      "resumed after removal");

  // Restore target whose query set is still fully live: refused by name.
  Engine mismatched{EngineOptions{}};
  ASSERT_TRUE(mismatched.AddQuery(queries[0], vocab).ok());
  ASSERT_TRUE(mismatched.AddQuery(queries[1], vocab).ok());
  ASSERT_TRUE(mismatched.Finalize().ok());
  Status refused = mismatched.Restore(path, &vocab);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("removed in the checkpoint"),
            std::string::npos)
      << refused.ToString();
}

}  // namespace
}  // namespace sgq
