// Registration-churn stress (DESIGN.md §10): add/remove/re-add standing
// queries against a deletion-heavy stream, across PathImpl × workers
// {1,4} × batch {1,64}, and demand that
//
//  - a persistent subscriber's results stay byte-identical (workers=1) /
//    snapshot-equivalent (sharded) to a run that never saw the churn;
//  - operator refcounts and the live-operator count return to the
//    baseline after every churn cycle;
//  - StateBytes() tracks a churn-free control engine exactly across a
//    100-cycle soak — a removed query's state is released, not
//    tombstoned.

#include <gtest/gtest.h>

#include <algorithm>
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

InputStream ChurnStream(Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = 4242;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 240;
  opt.max_gap = 2;
  opt.deletion_probability = 0.3;  // deletion-heavy: retraction paths churn
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

TEST(SubscriptionChurnTest, RefcountsAndSurvivorsStableAcrossMatrix) {
  for (PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      for (std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
        Vocabulary vocab;
        const InputStream stream = ChurnStream(&vocab);
        auto persistent = MakeQuery("Answer(x,y) <- a+(x,y)",
                                    WindowSpec(12, 3), &vocab);
        ASSERT_TRUE(persistent.ok());
        // The churners overlap the persistent query (shared a+ chain) and
        // each other; one is disjoint.
        const char* churn_texts[] = {
            "Answer(x,z) <- a+(x,y), b(y,z)",
            "Answer(x,z) <- c(x,y), c(y,z)",
        };
        std::vector<StreamingGraphQuery> churners;
        for (const char* text : churn_texts) {
          auto query = MakeQuery(text, WindowSpec(12, 3), &vocab);
          ASSERT_TRUE(query.ok()) << text;
          churners.push_back(*query);
        }

        EngineOptions options;
        options.path_impl = impl;
        options.num_workers = workers;
        options.batch_size = batch;
        const std::string context =
            std::string(impl == PathImpl::kSPath ? "s-path" : "delta") +
            " workers " + std::to_string(workers) + " batch " +
            std::to_string(batch);

        Engine engine(options);
        ASSERT_TRUE(engine.AddQuery(*persistent, vocab).ok());
        ASSERT_TRUE(engine.Finalize().ok());
        const std::size_t baseline_ops = engine.NumOperators();
        std::vector<int> baseline_refs;
        for (OpId id = 0; id < static_cast<OpId>(baseline_ops); ++id) {
          baseline_refs.push_back(engine.OperatorRefCount(id));
        }

        // Per cycle: attach both churners, run a stream segment through
        // the widened topology, detach both, verify the baseline is back.
        constexpr std::size_t kCycles = 4;
        const std::size_t segment = stream.size() / kCycles;
        for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
          std::vector<QueryId> attached;
          for (const StreamingGraphQuery& query : churners) {
            auto id = engine.AddQuery(query, vocab);
            ASSERT_TRUE(id.ok()) << context << " cycle " << cycle;
            attached.push_back(*id);
          }
          const std::size_t begin = cycle * segment;
          const std::size_t end =
              cycle + 1 == kCycles ? stream.size() : begin + segment;
          for (std::size_t i = begin; i < end; ++i) engine.Push(stream[i]);
          // Detach in mixed order (last-added first half the time) so the
          // refcount walk sees both unlink directions.
          if (cycle % 2 == 0) {
            std::reverse(attached.begin(), attached.end());
          }
          for (QueryId id : attached) {
            ASSERT_TRUE(engine.RemoveQuery(id).ok())
                << context << " cycle " << cycle;
          }
          ASSERT_EQ(engine.NumOperators(), baseline_ops)
              << context << " cycle " << cycle;
          for (OpId id = 0; id < static_cast<OpId>(baseline_ops); ++id) {
            ASSERT_EQ(engine.OperatorRefCount(id), baseline_refs[id])
                << context << " cycle " << cycle << " op " << id;
          }
          ASSERT_EQ(engine.NumLiveQueries(), 1u) << context;
        }
        engine.Flush();

        // The persistent subscriber never noticed the churn.
        Engine solo(options);
        ASSERT_TRUE(solo.AddQuery(*persistent, vocab).ok());
        ASSERT_TRUE(solo.Finalize().ok());
        solo.PushAll(stream);
        const std::vector<Sgt>& reference = solo.results(0);
        if (workers == 1 && batch == 1) {
          ASSERT_EQ(reference.size(), engine.results(0).size()) << context;
          for (std::size_t i = 0; i < reference.size(); ++i) {
            ASSERT_TRUE(reference[i] == engine.results(0)[i])
                << context << " position " << i;
          }
        } else {
          for (Timestamp t : SampleTimes(stream, 6)) {
            ASSERT_EQ(ResultPairsAt(engine.results(0), t),
                      ResultPairsAt(reference, t))
                << context << " t " << t;
          }
        }
      }
    }
  }
}

TEST(SubscriptionChurnTest, StateBytesStayFlatOverHundredCycles) {
  Vocabulary vocab;
  const InputStream base = ChurnStream(&vocab);
  auto persistent =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(persistent.ok());
  auto churner = MakeQuery("Answer(x,z) <- a+(x,y), b(y,z)",
                           WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(churner.ok());

  Engine engine{EngineOptions{}};
  ASSERT_TRUE(engine.AddQuery(*persistent, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  // The control engine runs the same persistent query over the same
  // stream but never sees the churn. StateBytes() counts pool high-water
  // marks and container capacities, which creep slowly under any long
  // run — so "flat" is defined against this control: if a removed
  // query's state were tombstoned instead of released, the churned
  // engine would diverge upward from the control, cycle after cycle.
  Engine control{EngineOptions{}};
  ASSERT_TRUE(control.AddQuery(*persistent, vocab).ok());
  ASSERT_TRUE(control.Finalize().ok());

  // Each cycle replays the same 40-element prefix shifted forward in time
  // (timestamps must be non-decreasing engine-wide), slide-aligned with
  // window-size clearance so every cycle touches identically shaped
  // window state.
  constexpr std::size_t kCycles = 100;
  constexpr std::size_t kSegment = 40;
  const Timestamp span = ((base[kSegment - 1].t + 24) / 3 + 1) * 3;
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    auto id = engine.AddQuery(*churner, vocab);
    ASSERT_TRUE(id.ok()) << "cycle " << cycle;
    const Timestamp shift = static_cast<Timestamp>(cycle) * span;
    for (std::size_t i = 0; i < kSegment; ++i) {
      Sge sge = base[i];
      sge.t += shift;
      engine.Push(sge);
      control.Push(sge);
    }
    ASSERT_TRUE(engine.RemoveQuery(*id).ok()) << "cycle " << cycle;
    // Drain the standing subscription like a real server would.
    engine.TakeResults(0);
    control.TakeResults(0);
    ASSERT_EQ(engine.StateBytes(), control.StateBytes())
        << "residue after detach, cycle " << cycle;
  }
  // QueryIds kept monotone: 100 churn registrations never reused an id.
  EXPECT_EQ(engine.num_queries(), 1u + kCycles);
  EXPECT_EQ(engine.NumLiveQueries(), 1u);
}

}  // namespace
}  // namespace sgq
