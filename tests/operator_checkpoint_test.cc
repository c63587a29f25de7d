// Per-operator SerializeState/DeserializeState round trips (DESIGN.md §7).
// The property under test is behavioral, not just structural: a restored
// operator must (a) re-serialize to byte-identical state and (b) behave
// identically to the original on every subsequent input — probes, purges,
// suppression decisions, releases. Byte-equal re-serialization is the
// cheap proxy the engine-level differential leans on, so it is pinned
// here at the smallest scope.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "core/pattern_op.h"
#include "core/reorder_buffer.h"
#include "core/window_store.h"
#include "model/checkpoint.h"
#include "model/coalesce.h"
#include "model/vocabulary.h"

namespace sgq {
namespace {

/// \brief `op`'s SerializeState bytes.
template <typename Op>
std::string Serialized(const Op& op) {
  PayloadOut out;
  op.SerializeState(&out);
  return out.TakeBytes();
}

/// \brief Serialize → restore into a fresh instance → assert the restored
/// bytes match. Returns the restored instance through `out`.
template <typename Op>
std::string RoundTrip(const Op& original, Op* out) {
  const std::string bytes = Serialized(original);
  ByteReader in(bytes, "round-trip");
  Status st = out->DeserializeState(&in);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(in.ExpectEnd().ok()) << in.status().ToString();
  EXPECT_EQ(bytes, Serialized(*out))
      << "restored state re-serializes differently";
  return bytes;
}

// ---------------------------------------------------------------------------
// WindowEdgeStore
// ---------------------------------------------------------------------------

/// \brief A store exercised through inserts, coalescing overlaps, explicit
/// deletions, value scrubs, and purges — every mutation path.
void ChurnStore(WindowEdgeStore* store, std::uint32_t seed,
                bool with_in_index) {
  if (with_in_index) store->EnableInIndex();
  std::mt19937 rng(seed);
  std::uniform_int_distribution<VertexId> vertex(0, 9);
  std::uniform_int_distribution<LabelId> label(0, 2);
  std::uniform_int_distribution<Timestamp> ts(0, 80);
  for (int i = 0; i < 200; ++i) {
    const VertexId src = vertex(rng);
    const VertexId trg = vertex(rng);
    const LabelId l = label(rng);
    const Timestamp t = ts(rng);
    const int action = i % 10;
    if (action < 7) {
      store->Insert(src, trg, l, Interval(t, t + 20));
    } else if (action < 9) {
      store->DeleteAt(src, trg, l, t);
    } else {
      store->RemoveValue(src, trg, l);
    }
  }
  store->PurgeExpired(40);
}

void ExpectSameEdges(const WindowEdgeStore::EdgeRun& a,
                     const WindowEdgeStore::EdgeRun& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trg, b[i].trg) << what << " entry " << i;
    EXPECT_EQ(a[i].validity.ts, b[i].validity.ts) << what << " entry " << i;
    EXPECT_EQ(a[i].validity.exp, b[i].validity.exp) << what << " entry " << i;
  }
}

TEST(WindowEdgeStoreCheckpointTest, RoundTripPreservesProbesAndPurges) {
  for (std::uint32_t seed : {1u, 7u, 42u}) {
    WindowEdgeStore original;
    ChurnStore(&original, seed, /*with_in_index=*/true);

    WindowEdgeStore restored;
    restored.EnableInIndex();
    RoundTrip(original, &restored);
    EXPECT_EQ(restored.NumEntries(), original.NumEntries());

    // Identical probe results — including run *order*, which downstream
    // traversals and probe loops depend on for byte-identical output.
    for (VertexId v = 0; v < 10; ++v) {
      for (LabelId l = 0; l < 3; ++l) {
        ExpectSameEdges(original.OutEdges(v, l), restored.OutEdges(v, l),
                        "out-edges");
        ExpectSameEdges(original.InEdges(v, l), restored.InEdges(v, l),
                        "in-edges");
      }
    }

    // Identical behavior from here on: purge both at the same instant and
    // compare the drop counts, then the surviving adjacency.
    const std::size_t d1 = original.PurgeExpired(70);
    const std::size_t d2 = restored.PurgeExpired(70);
    EXPECT_EQ(d1, d2) << "seed " << seed;
    EXPECT_EQ(restored.NumEntries(), original.NumEntries()) << "seed " << seed;
    for (VertexId v = 0; v < 10; ++v) {
      for (LabelId l = 0; l < 3; ++l) {
        ExpectSameEdges(original.OutEdges(v, l), restored.OutEdges(v, l),
                        "post-purge out-edges");
        ExpectSameEdges(original.InEdges(v, l), restored.InEdges(v, l),
                        "post-purge in-edges");
      }
    }
    const std::string a = Serialized(original);
    const std::string b = Serialized(restored);
    EXPECT_EQ(a, b) << "post-purge state diverged, seed " << seed;
  }
}

TEST(WindowEdgeStoreCheckpointTest, AdoptsLazilyEnabledInIndex) {
  // PATH consumers enable the reverse index lazily on the first delete, so
  // a snapshot can carry in_index=true while the fresh restore-target store
  // has it false. Restore must adopt the flag and the index content.
  WindowEdgeStore original;
  original.Insert(1, 2, 0, Interval(0, 50));
  original.Insert(3, 2, 0, Interval(5, 50));
  original.EnableInIndex();  // the lazy enable, mid-run

  WindowEdgeStore restored;  // fresh: flag off
  RoundTrip(original, &restored);
  EXPECT_TRUE(restored.in_index_enabled());
  ExpectSameEdges(original.InEdges(2, 0), restored.InEdges(2, 0),
                  "adopted in-edges");
}

TEST(WindowEdgeStoreCheckpointTest, NonEmptyTargetRefused) {
  WindowEdgeStore original;
  original.Insert(1, 2, 0, Interval(0, 10));
  std::string bytes = Serialized(original);

  WindowEdgeStore dirty;
  dirty.Insert(5, 6, 1, Interval(0, 10));
  ByteReader in(bytes, "dirty");
  Status st = dirty.DeserializeState(&in);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not empty"), std::string::npos)
      << st.ToString();
}

TEST(WindowEdgeStoreCheckpointTest, TruncatedStateRejected) {
  WindowEdgeStore original;
  ChurnStore(&original, 3, /*with_in_index=*/false);
  std::string bytes = Serialized(original);
  for (std::size_t len : {std::size_t{0}, bytes.size() / 3,
                          bytes.size() - 1}) {
    WindowEdgeStore target;
    ByteReader in(std::string_view(bytes.data(), len), "trunc");
    Status st = target.DeserializeState(&in);
    if (st.ok()) st = in.ExpectEnd();
    EXPECT_FALSE(st.ok()) << "accepted " << len << " of " << bytes.size();
  }
}

// ---------------------------------------------------------------------------
// StreamingCoalescer
// ---------------------------------------------------------------------------

TEST(StreamingCoalescerCheckpointTest, RoundTripPreservesSuppression) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<VertexId> vertex(0, 5);
  std::uniform_int_distribution<Timestamp> ts(0, 60);

  StreamingCoalescer original;
  for (int i = 0; i < 150; ++i) {
    const Timestamp t = ts(rng);
    original.Offer(Sgt(vertex(rng), vertex(rng), 0, Interval(t, t + 10)));
  }
  original.PurgeBefore(20);
  original.Forget(EdgeRef{1, 2, 0}, 30);

  StreamingCoalescer restored;
  RoundTrip(original, &restored);
  EXPECT_EQ(restored.NumKeys(), original.NumKeys());

  // The restored coalescer must make the *same* accept/suppress decision
  // as the original on every further offer.
  std::mt19937 probe_rng(99);
  for (int i = 0; i < 300; ++i) {
    const Timestamp t = ts(probe_rng);
    const Sgt probe(vertex(probe_rng), vertex(probe_rng), 0,
                    Interval(t, t + 5));
    EXPECT_EQ(original.Offer(probe), restored.Offer(probe))
        << "offer " << i << " diverged";
  }
  const std::string a = Serialized(original);
  const std::string b = Serialized(restored);
  EXPECT_EQ(a, b);
}

TEST(StreamingCoalescerCheckpointTest, NonEmptyTargetRefused) {
  StreamingCoalescer original;
  original.Offer(Sgt(1, 2, 0, Interval(0, 10)));
  std::string bytes = Serialized(original);

  StreamingCoalescer dirty;
  dirty.Offer(Sgt(3, 4, 0, Interval(0, 10)));
  ByteReader in(bytes, "dirty");
  EXPECT_FALSE(dirty.DeserializeState(&in).ok());
}

TEST(StreamingCoalescerCheckpointTest, MalformedCoverageRejected) {
  // The purge drops each key's expired prefix and restore hints each key
  // at its first interval's expiry, so an image must hold keys with
  // non-empty, sorted, disjoint intervals, each key once.
  using Ivs = std::vector<std::pair<Timestamp, Timestamp>>;
  auto image = [](const std::vector<std::pair<EdgeRef, Ivs>>& keys) {
    std::string out;
    PutU64(&out, keys.size());
    for (const auto& [key, ivs] : keys) {
      PutU64(&out, key.src);
      PutU64(&out, key.trg);
      PutU32(&out, key.label);
      PutU32(&out, static_cast<std::uint32_t>(ivs.size()));
      for (const auto& [ts, exp] : ivs) {
        PutI64(&out, ts);
        PutI64(&out, exp);
      }
    }
    return out;
  };
  const EdgeRef a(1, 2, 0);
  const EdgeRef b(3, 4, 0);
  const std::string bad[] = {
      image({{a, {}}}),                          // no coverage
      image({{a, {{5, 5}}}}),                    // empty interval
      image({{a, {{10, 20}, {0, 5}}}}),          // unsorted
      image({{a, {{0, 10}, {10, 20}}}}),         // adjacent, not merged
      image({{a, {{0, 10}}}, {a, {{20, 30}}}}),  // key twice
  };
  for (const std::string& bytes : bad) {
    StreamingCoalescer target;
    ByteReader in(bytes, "malformed");
    EXPECT_FALSE(target.DeserializeState(&in).ok());
  }
  StreamingCoalescer good;
  const std::string valid = image({{a, {{0, 10}, {12, 20}}}, {b, {{5, 30}}}});
  ByteReader in(valid, "good");
  ASSERT_TRUE(good.DeserializeState(&in).ok());
  good.PurgeBefore(10);  // a's first interval leaves on time after restore
  EXPECT_FALSE(good.Offer(Sgt(1, 2, 0, Interval(12, 20))));
  EXPECT_TRUE(good.Offer(Sgt(1, 2, 0, Interval(8, 10))));
}

// ---------------------------------------------------------------------------
// ReorderBuffer
// ---------------------------------------------------------------------------

TEST(ReorderBufferCheckpointTest, RoundTripPreservesReleases) {
  std::mt19937 rng(5);
  std::uniform_int_distribution<Timestamp> jitter(0, 8);

  ReorderBuffer original(/*slack=*/8);
  for (Timestamp base = 0; base < 40; ++base) {
    const Timestamp t = base + jitter(rng) - 4;
    original.Offer(Sge{static_cast<VertexId>(base % 7),
                       static_cast<VertexId>(base % 5), 0,
                       t < 0 ? 0 : t, false});
  }

  ReorderBuffer restored(/*slack=*/8);
  RoundTrip(original, &restored);
  EXPECT_EQ(restored.Buffered(), original.Buffered());
  EXPECT_EQ(restored.Watermark(), original.Watermark());
  EXPECT_EQ(restored.LateCount(), original.LateCount());

  // Identical releases for every further offer, then identical flushes.
  std::mt19937 probe_rng(17);
  for (Timestamp base = 40; base < 70; ++base) {
    const Timestamp t = base + jitter(probe_rng) - 4;
    const Sge sge{static_cast<VertexId>(base % 7),
                  static_cast<VertexId>(base % 5), 0, t, false};
    const std::vector<Sge> r1 = original.Offer(sge);
    const std::vector<Sge> r2 = restored.Offer(sge);
    ASSERT_EQ(r1.size(), r2.size()) << "offer at base " << base;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].t, r2[i].t);
      EXPECT_EQ(r1[i].src, r2[i].src);
      EXPECT_EQ(r1[i].trg, r2[i].trg);
    }
  }
  const std::vector<Sge> f1 = original.Flush();
  const std::vector<Sge> f2 = restored.Flush();
  ASSERT_EQ(f1.size(), f2.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(f1[i].t, f2[i].t);
    EXPECT_EQ(f1[i].src, f2[i].src);
  }
}

TEST(ReorderBufferCheckpointTest, CorruptStateRejected) {
  ReorderBuffer original(4);
  original.Offer(Sge{1, 2, 0, 10, false});
  original.Offer(Sge{2, 3, 0, 12, false});
  std::string bytes = Serialized(original);
  // Truncate inside the buffered-elements array.
  ReorderBuffer target(4);
  ByteReader in(std::string_view(bytes.data(), bytes.size() - 3), "trunc");
  Status st = target.DeserializeState(&in);
  if (st.ok()) st = in.ExpectEnd();
  EXPECT_FALSE(st.ok());
}

// ---------------------------------------------------------------------------
// PatternOp
// ---------------------------------------------------------------------------

class CollectOp : public PhysicalOp {
 public:
  void OnTuple(int port, const Sgt& tuple) override {
    (void)port;
    tuples.push_back(tuple);
  }
  std::string Name() const override { return "COLLECT"; }
  std::vector<Sgt> tuples;
};

/// \brief Decoded PATTERN payload of a one-level pattern whose right side
/// is a private table (DESIGN.md §7), so tests can re-encode it with one
/// field changed.
struct PatternImage {
  struct Binding {
    std::vector<std::uint64_t> vals;
    Timestamp ts = 0;
    Timestamp exp = 0;
  };
  struct Bucket {
    std::vector<std::uint64_t> key;
    Timestamp hinted = 0;
    std::vector<Binding> bindings;
  };
  struct Table {
    std::vector<Bucket> buckets;
    std::uint64_t entries = 0;
  };
  std::uint32_t levels = 0;
  Table left;
  std::uint8_t store_backed = 0;
  Table right;
  std::string tail;  ///< the output coalescer, verbatim

  static Table GetTable(ByteReader* in) {
    Table t;
    t.buckets.resize(in->U64());
    for (Bucket& bucket : t.buckets) {
      bucket.key.resize(in->U32());
      for (std::uint64_t& v : bucket.key) v = in->U64();
      bucket.hinted = in->I64();
      bucket.bindings.resize(in->U32());
      for (Binding& b : bucket.bindings) {
        b.vals.resize(in->U32());
        for (std::uint64_t& v : b.vals) v = in->U64();
        b.ts = in->I64();
        b.exp = in->I64();
      }
    }
    t.entries = in->U64();
    return t;
  }
  static void PutTable(const Table& t, std::string* out) {
    PutU64(out, t.buckets.size());
    for (const Bucket& bucket : t.buckets) {
      PutU32(out, static_cast<std::uint32_t>(bucket.key.size()));
      for (std::uint64_t v : bucket.key) PutU64(out, v);
      PutI64(out, bucket.hinted);
      PutU32(out, static_cast<std::uint32_t>(bucket.bindings.size()));
      for (const Binding& b : bucket.bindings) {
        PutU32(out, static_cast<std::uint32_t>(b.vals.size()));
        for (std::uint64_t v : b.vals) PutU64(out, v);
        PutI64(out, b.ts);
        PutI64(out, b.exp);
      }
    }
    PutU64(out, t.entries);
  }

  static PatternImage Decode(const std::string& bytes) {
    ByteReader in(bytes, "decode");
    PatternImage image;
    image.levels = in.U32();
    image.left = GetTable(&in);
    image.store_backed = in.U8();
    image.right = GetTable(&in);
    image.tail = std::string(in.Raw(in.remaining()));
    EXPECT_TRUE(in.ok()) << in.status().ToString();
    return image;
  }
  std::string Encode() const {
    std::string out;
    PutU32(&out, levels);
    PutTable(left, &out);
    PutU8(&out, store_backed);
    PutTable(right, &out);
    return out + tail;
  }
};

/// \brief a(x,y), b(y,z) -> out(x,z) with both sides in private tables:
/// the one level keys on y, and bindings hold (x, y, z).
class PatternCheckpointTest : public ::testing::Test {
 protected:
  // Offsets into the payload Feed() leaves: u32 levels and the left
  // table's u64 key count, then its one bucket — u32 key arity, one u64
  // key value, i64 hinted, u32 bindings, and three bindings of u32 arity,
  // three u64 values, i64 ts and i64 exp — then the u64 entry counter.
  static constexpr std::size_t kKeyArityAt = 4 + 8;
  static constexpr std::size_t kCountAt = kKeyArityAt + 4 + 8 + 8;
  static constexpr std::size_t kArityAt = kCountAt + 4;
  static constexpr std::size_t kEntriesAt = kArityAt + 3 * (4 + 3 * 8 + 16);

  void SetUp() override {
    a_ = *vocab_.InternInputLabel("a");
    b_ = *vocab_.InternInputLabel("b");
    const LabelId out = *vocab_.InternDerivedLabel("out");
    std::vector<LogicalPlan> children;
    children.push_back(MakeWScan(a_, WindowSpec(40, 1)));
    children.push_back(MakeWScan(b_, WindowSpec(40, 1)));
    logical_ = MakePattern(out, {{"x", "y"}, {"y", "z"}}, "x", "z",
                           std::move(children));
  }

  std::unique_ptr<PatternOp> MakeOp(CollectOp* sink) {
    auto op = std::make_unique<PatternOp>(*logical_);
    wires_.push_back(std::make_unique<OutputChannel>(sink, 0));
    op->BindOutput(wires_.back().get());
    return op;
  }

  /// \brief One left bucket (y = 5) of three bindings, whose second
  /// insert moved the hint earlier (20, leaving a stale hint at 30), and
  /// one right bucket of one binding.
  void Feed(PatternOp* op) {
    op->OnTuple(0, Sgt(1, 5, a_, Interval(0, 30)));
    op->OnTuple(0, Sgt(2, 5, a_, Interval(2, 20)));
    op->OnTuple(0, Sgt(3, 5, a_, Interval(4, 40)));
    op->OnTuple(1, Sgt(5, 9, b_, Interval(6, 26)));
  }

  Vocabulary vocab_;
  LabelId a_ = 0;
  LabelId b_ = 0;
  LogicalPlan logical_;
  std::vector<std::unique_ptr<OutputChannel>> wires_;
};

TEST_F(PatternCheckpointTest, RestoreRegistersOneHintPerBucket) {
  CollectOp original_out;
  CollectOp restored_out;
  auto original = MakeOp(&original_out);
  Feed(original.get());
  EXPECT_EQ(original->num_expiry_hints(), 3u);  // one of them stale
  auto restored = MakeOp(&restored_out);
  RoundTrip(*original, restored.get());
  EXPECT_EQ(restored->num_expiry_hints(), 2u);

  // The stale hint never reaches an image: from here on the two operators
  // drop the same bindings, emit the same joins and write the same state.
  original_out.tuples.clear();
  for (const Timestamp now : {19, 20, 25, 26, 29, 30, 39, 40}) {
    original->Purge(now);
    restored->Purge(now);
    EXPECT_EQ(original->StateSize(), restored->StateSize()) << now;
    const Sgt probe(5, 100 + static_cast<VertexId>(now), b_,
                    Interval(now, now + 5));
    original->OnTuple(1, probe);
    restored->OnTuple(1, probe);
    EXPECT_EQ(Serialized(*original), Serialized(*restored))
        << "images diverged after purge at " << now;
  }
  ASSERT_EQ(original_out.tuples.size(), restored_out.tuples.size());
  EXPECT_FALSE(original_out.tuples.empty());
  for (std::size_t i = 0; i < original_out.tuples.size(); ++i) {
    EXPECT_EQ(original_out.tuples[i].edge(), restored_out.tuples[i].edge());
    EXPECT_EQ(original_out.tuples[i].validity,
              restored_out.tuples[i].validity);
  }
}

TEST_F(PatternCheckpointTest, MalformedBucketsRejectedWithOffsets) {
  CollectOp sink;
  auto original = MakeOp(&sink);
  Feed(original.get());
  std::string bytes = Serialized(*original);
  const PatternImage valid = PatternImage::Decode(bytes);
  ASSERT_EQ(valid.Encode(), bytes);
  ASSERT_EQ(valid.left.buckets.size(), 1u);
  ASSERT_EQ(valid.left.buckets[0].key.size(), 1u);
  ASSERT_EQ(valid.left.buckets[0].hinted, 20);
  ASSERT_EQ(valid.left.buckets[0].bindings.size(), 3u);

  struct Case {
    const char* what;
    PatternImage image;
    std::string error;  ///< expected "offset N: ..." substring
  };
  std::vector<Case> cases;
  // Each case is a well-formed payload except for one field.
  cases.push_back({"binding arity", valid,
                   "offset " + std::to_string(kArityAt + 4) +
                       ": binding arity 2, want 3"});
  cases.back().image.left.buckets[0].bindings[0].vals.pop_back();
  cases.push_back({"key arity", valid,
                   "offset " + std::to_string(kKeyArityAt + 4) +
                       ": join key arity 2, want 1"});
  cases.back().image.left.buckets[0].key.push_back(6);
  cases.push_back({"empty bucket", valid,
                   "offset " + std::to_string(kCountAt + 4) +
                       ": empty join bucket"});
  cases.back().image.left.buckets[0].bindings.clear();
  cases.back().image.left.entries = 0;
  cases.push_back({"late hint", valid,
                   "offset " + std::to_string(kEntriesAt) +
                       ": bucket hint 21 is later than its earliest "
                       "binding expiry 20"});
  cases.back().image.left.buckets[0].hinted = 21;
  cases.push_back({"entry counter", valid,
                   "offset " + std::to_string(kEntriesAt + 8) +
                       ": entry counter 4 disagrees with the 3 bindings "
                       "restored"});
  cases.back().image.left.entries = 4;
  for (const Case& c : cases) {
    CollectOp fresh_out;
    auto fresh = MakeOp(&fresh_out);
    const std::string image = c.image.Encode();
    ByteReader in(image, "pattern");
    const Status st = fresh->DeserializeState(&in);
    ASSERT_FALSE(st.ok()) << c.what << " accepted";
    EXPECT_NE(st.message().find("pattern: " + c.error), std::string::npos)
        << c.what << ": " << st.ToString();
  }
}

}  // namespace
}  // namespace sgq
