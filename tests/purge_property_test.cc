// Exact purging at the operator level (core/physical.h, DESIGN.md §5):
// two instances of one operator — PATTERN (2 and 3 atoms), S-PATH and
// Δ-PATH — are fed the same seeded deletion-heavy sequence; one is purged
// at every slide boundary, the other never. Purging only stops past-only
// re-derivations (intervals ending before the current time that earlier
// emissions already cover), so:
//
//  - the two output streams are snapshot-identical at every instant;
//  - every tuple the purged instance emits, the unpurged one emits too;
//  - after each boundary's purge nothing is due any more, and a purge
//    with nothing due leaves the state untouched.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "algebra/logical_plan.h"
#include "core/delta_path_op.h"
#include "core/pattern_op.h"
#include "core/spath_op.h"
#include "model/coalesce.h"
#include "model/vocabulary.h"
#include "model/window.h"
#include "regex/dfa.h"
#include "regex/regex.h"
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

enum class Kind { kPattern2, kPattern3, kSPath, kDeltaPath };

struct PurgeCase {
  Kind kind;
  uint64_t seed;
};

std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kPattern2:
      return "pattern-2atom";
    case Kind::kPattern3:
      return "pattern-3atom";
    case Kind::kSPath:
      return "spath";
    case Kind::kDeltaPath:
      return "deltapath";
  }
  return "?";
}

/// \brief One operator instance wired to its own collector.
struct Instance {
  std::unique_ptr<PhysicalOp> op;
  CollectOp sink;
  std::unique_ptr<OutputChannel> wire;
};

class PurgePropertyTest : public ::testing::TestWithParam<PurgeCase> {
 protected:
  static constexpr Timestamp kSlide = 3;

  void SetUp() override {
    RandomStreamOptions opt;
    opt.seed = GetParam().seed;
    opt.num_vertices = 8;
    opt.num_labels = 3;
    opt.num_edges = 150;
    opt.max_gap = 2;
    opt.deletion_probability = 0.2;
    auto stream = GenerateRandomStream(opt, &vocab_);
    ASSERT_TRUE(stream.ok());
    stream_ = *stream;
    for (const char* name : {"a", "b", "c"}) {
      labels_.push_back(*vocab_.FindLabel(name));
    }
    out_ = *vocab_.InternDerivedLabel("out");
  }

  std::unique_ptr<PhysicalOp> MakeOp() {
    const WindowSpec window(12, kSlide);
    switch (GetParam().kind) {
      case Kind::kPattern2:
      case Kind::kPattern3: {
        const bool three = GetParam().kind == Kind::kPattern3;
        std::vector<LogicalPlan> children;
        std::vector<std::pair<std::string, std::string>> atoms = {
            {"x", "y"}, {"y", "z"}};
        if (three) atoms.push_back({"z", "w"});
        for (std::size_t i = 0; i < atoms.size(); ++i) {
          children.push_back(MakeWScan(labels_[i], window));
        }
        logical_ = MakePattern(out_, atoms, "x", three ? "w" : "z",
                               std::move(children));
        return std::make_unique<PatternOp>(*logical_);
      }
      case Kind::kSPath:
      case Kind::kDeltaPath: {
        auto regex = ParseRegex("(a|b)+", &vocab_);
        EXPECT_TRUE(regex.ok());
        const Dfa dfa = Dfa::FromRegex(*regex);
        if (GetParam().kind == Kind::kSPath) {
          return std::make_unique<SPathOp>(dfa, out_);
        }
        return std::make_unique<DeltaPathOp>(dfa, out_);
      }
    }
    return nullptr;
  }

  void Build(Instance* inst) {
    inst->op = MakeOp();
    inst->op->ConfigureExpirySlide(kSlide);
    inst->wire = std::make_unique<OutputChannel>(&inst->sink, 0);
    inst->op->BindOutput(inst->wire.get());
  }

  /// Input port of a stream label, or -1 when the operator ignores it.
  int PortOf(LabelId label) const {
    const bool path = GetParam().kind == Kind::kSPath ||
                      GetParam().kind == Kind::kDeltaPath;
    if (path) return 0;
    const std::size_t ports = GetParam().kind == Kind::kPattern3 ? 3 : 2;
    for (std::size_t p = 0; p < ports; ++p) {
      if (labels_[p] == label) return static_cast<int>(p);
    }
    return -1;
  }

  Vocabulary vocab_;
  InputStream stream_;
  std::vector<LabelId> labels_;
  LabelId out_ = kInvalidLabel;
  LogicalPlan logical_;
};

using TupleKey = std::tuple<VertexId, VertexId, LabelId, Timestamp, Timestamp,
                            bool, std::vector<EdgeRef>>;

TupleKey KeyOf(const Sgt& t) {
  return {t.src,          t.trg,         t.label,
          t.validity.ts,  t.validity.exp, t.is_deletion,
          std::vector<EdgeRef>(t.payload.begin(), t.payload.end())};
}

TEST_P(PurgePropertyTest, PurgedOutputIsSnapshotIdenticalSubset) {
  Instance purged;
  Instance kept;
  Build(&purged);
  Build(&kept);
  const WindowSpec window(12, kSlide);
  const bool time_driven = purged.op->HasTimeDrivenWork();

  Timestamp current = stream_.front().t;
  Timestamp next_boundary = (current / kSlide) * kSlide + kSlide;
  std::size_t purges_run = 0;
  // Mirrors Executor::AdvanceClock: every boundary passed runs the
  // time-advance phase, then (on one instance only) the purge; then the
  // new distinct timestamp's time advance.
  auto advance_to = [&](Timestamp t) {
    while (next_boundary <= t) {
      const Timestamp b = next_boundary;
      if (time_driven) {
        purged.op->OnTimeAdvance(b);
        kept.op->OnTimeAdvance(b);
      }
      if (purged.op->PurgeDue(b)) {
        purged.op->Purge(b);
        ++purges_run;
      } else {
        const std::size_t before = purged.op->StateSize();
        purged.op->Purge(b);
        EXPECT_EQ(purged.op->StateSize(), before)
            << "a purge with nothing due changed state at " << b;
      }
      EXPECT_FALSE(purged.op->PurgeDue(b)) << "still due after purge " << b;
      next_boundary += kSlide;
    }
    if (t > current && time_driven) {
      purged.op->OnTimeAdvance(t);
      kept.op->OnTimeAdvance(t);
    }
    current = std::max(current, t);
  };

  for (const Sge& sge : stream_) {
    advance_to(sge.t);
    const int port = PortOf(sge.label);
    if (port < 0) continue;
    const Sgt tuple =
        sge.is_deletion
            ? Sgt(sge.src, sge.trg, sge.label,
                  Interval(sge.t, kMaxTimestamp), {sge.edge()},
                  /*del=*/true)
            : Sgt(sge.src, sge.trg, sge.label,
                  Interval(sge.t, window.ExpiryFor(sge.t)), {sge.edge()});
    purged.op->OnTuple(port, tuple);
    kept.op->OnTuple(port, tuple);
  }
  const Timestamp last = stream_.back().t;
  advance_to(last + 40);

  const std::string context =
      KindName(GetParam().kind) + " seed=" + std::to_string(GetParam().seed);
  EXPECT_GT(purges_run, 0u) << context;
  EXPECT_EQ(purged.op->StateSize(), 0u) << context;
  ASSERT_FALSE(kept.sink.tuples.empty()) << context;

  for (Timestamp t = 0; t <= last + 40; ++t) {
    ASSERT_EQ(SnapshotEdges(purged.sink.tuples, t),
              SnapshotEdges(kept.sink.tuples, t))
        << context << " t=" << t;
  }
  std::set<TupleKey> kept_tuples;
  for (const Sgt& t : kept.sink.tuples) kept_tuples.insert(KeyOf(t));
  for (std::size_t i = 0; i < purged.sink.tuples.size(); ++i) {
    EXPECT_TRUE(kept_tuples.count(KeyOf(purged.sink.tuples[i])) > 0)
        << context << " purged-only tuple at position " << i;
  }
}

std::vector<PurgeCase> AllCases() {
  std::vector<PurgeCase> cases;
  for (Kind kind :
       {Kind::kPattern2, Kind::kPattern3, Kind::kSPath, Kind::kDeltaPath}) {
    for (uint64_t seed : {3, 17, 41, 99, 1234}) cases.push_back({kind, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Operators, PurgePropertyTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<PurgeCase>& info) {
      std::string name = KindName(info.param.kind);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace sgq
