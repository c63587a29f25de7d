// Engine-level crash recovery (DESIGN.md §7): kill/restore/resume must be
// indistinguishable from never having crashed. The differential runs a
// deletion-heavy stream uninterrupted, then re-runs it through
// CheckpointKillResume below (checkpoint → keep running → simulated
// SIGKILL → fresh engine → Restore → resume) and demands *byte-identical*
// results at workers=1 — at every batch boundary, across PathImpl × batch
// size. The fault-injection half mutilates real engine snapshots (per-
// section corruption, truncation at every frame boundary, identity skew,
// vocabulary conflicts) and demands a positioned rejection with no crash
// and no partial restore observable. The write side is pinned too: the
// streamed snapshot is byte-identical to goldens of the in-memory encoder
// it replaced, and a write error surfaces from Checkpoint() itself with
// the previous file intact and no temp file left.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#if !defined(_WIN32)
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/engine.h"
#include "model/checkpoint.h"
#include "model/stream_io.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// \brief Deletion-heavy stream: deletions land on live window state, so
/// checkpoints capture truncated intervals, scrubbed PATTERN ports, and
/// lazily enabled reverse indexes — the state most likely to diverge.
InputStream DeletionHeavyStream(Vocabulary* vocab, std::uint64_t seed,
                                std::size_t num_edges) {
  RandomStreamOptions opt;
  opt.seed = seed;
  opt.num_vertices = 10;
  opt.num_labels = 3;
  opt.num_edges = num_edges;
  opt.max_gap = 2;
  opt.deletion_probability = 0.25;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return *stream;
}

/// \brief The uninterrupted reference: same engine configuration, never
/// crashed, full stream.
std::vector<Sgt> ReferenceRun(const InputStream& stream,
                              const StreamingGraphQuery& query,
                              const Vocabulary& vocab,
                              const EngineOptions& options) {
  Engine engine(options);
  EXPECT_TRUE(engine.AddQuery(query, vocab).ok());
  EXPECT_TRUE(engine.Finalize().ok());
  engine.PushAll(stream);
  return engine.results(0);
}

/// \brief Field-wise, *order-sensitive* comparison: the byte-identical bar
/// of the determinism ladder, not just multiset equality.
void ExpectIdenticalResults(const std::vector<Sgt>& expected,
                            const std::vector<Sgt>& actual,
                            const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Sgt& e = expected[i];
    const Sgt& a = actual[i];
    ASSERT_TRUE(e.src == a.src && e.trg == a.trg && e.label == a.label &&
                e.validity.ts == a.validity.ts &&
                e.validity.exp == a.validity.exp &&
                e.is_deletion == a.is_deletion)
        << what << ": result " << i << " diverged";
  }
}

// PATH + PATTERN in one plan: reaches WindowEdgeStore, PatternOp levels,
// the coalescer, and the shared window partitions.
constexpr char kQuery[] = "Answer(x,y) <- a+(x,y), b(x,m), c(m,y)";

/// \brief A simulated crash and recovery: runs `query` over `stream`,
/// checkpoints to `path` after element `checkpoint_at`, keeps pushing
/// until element `kill_at` and then abandons that engine — the simulated
/// SIGKILL, losing everything past the snapshot. A fresh engine compiled
/// from the same query restores the checkpoint, resumes from the element
/// index the snapshot recorded (Engine::ingested()), and runs to the end
/// of the stream. Returns the resumed run's complete result stream; at
/// workers == 1 it is byte-identical to the uninterrupted run's.
/// `*checkpoint_bytes` (optional) receives the snapshot's size.
Result<std::vector<Sgt>> CheckpointKillResume(
    const InputStream& stream, const StreamingGraphQuery& query,
    const Vocabulary& vocab, const EngineOptions& options,
    const std::string& path, std::size_t checkpoint_at, std::size_t kill_at,
    std::uint64_t* checkpoint_bytes = nullptr) {
  checkpoint_at = std::min(checkpoint_at, stream.size());
  kill_at = std::min(std::max(kill_at, checkpoint_at), stream.size());
  {
    // The doomed engine goes out of scope without Flush(): everything it
    // did after the snapshot is discarded, exactly like a SIGKILL.
    Engine doomed(options);
    SGQ_RETURN_NOT_OK(doomed.AddQuery(query, vocab).status());
    SGQ_RETURN_NOT_OK(doomed.Finalize());
    for (std::size_t i = 0; i < checkpoint_at; ++i) doomed.Push(stream[i]);
    SGQ_RETURN_NOT_OK(doomed.Checkpoint(path, &vocab));
    SGQ_RETURN_NOT_OK(doomed.WaitForCheckpoint());
    if (checkpoint_bytes != nullptr) {
      *checkpoint_bytes = doomed.checkpoint_bytes();
    }
    for (std::size_t i = checkpoint_at; i < kill_at; ++i) {
      doomed.Push(stream[i]);
    }
  }
  Engine engine(options);
  SGQ_RETURN_NOT_OK(engine.AddQuery(query, vocab).status());
  SGQ_RETURN_NOT_OK(engine.Finalize());
  SGQ_RETURN_NOT_OK(engine.Restore(path));
  for (std::uint64_t i = engine.ingested(); i < stream.size(); ++i) {
    engine.Push(stream[i]);
  }
  return engine.TakeResults(0);
}

// ---------------------------------------------------------------------------
// Differential: kill/restore/resume == uninterrupted
// ---------------------------------------------------------------------------

TEST(EngineCheckpointTest, KillRestoreResumeMatchesUninterrupted) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 21, 160);
  auto query = MakeQuery(kQuery, WindowSpec(20, 2), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  int config = 0;
  for (PathImpl impl : {PathImpl::kSPath, PathImpl::kDeltaPath}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{7}}) {
      EngineOptions options;
      options.path_impl = impl;
      options.batch_size = batch;
      const std::vector<Sgt> expected =
          ReferenceRun(stream, *query, vocab, options);
      ASSERT_FALSE(expected.empty());

      const std::string path =
          TempPath("ckpt_matrix_" + std::to_string(config++) + ".sgqc");
      std::uint64_t checkpoint_bytes = 0;
      auto resumed = CheckpointKillResume(
          stream, *query, vocab, options, path, stream.size() / 3,
          2 * stream.size() / 3, &checkpoint_bytes);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      EXPECT_GT(checkpoint_bytes, 0u);
      ExpectIdenticalResults(expected, *resumed,
                             "impl=" + std::to_string(static_cast<int>(impl)) +
                                 " batch=" + std::to_string(batch));
      std::remove(path.c_str());
    }
  }
}

TEST(EngineCheckpointTest, EveryBatchBoundaryIsACleanRecoveryPoint) {
  // Satellite bar: checkpoint at *every* batch boundary of a deletion-heavy
  // stream, restore each, resume, and diff against the uninterrupted run.
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 9, 60);
  auto query = MakeQuery(kQuery, WindowSpec(14, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::vector<Sgt> expected =
      ReferenceRun(stream, *query, vocab, options);

  const std::string path = TempPath("ckpt_boundary.sgqc");
  for (std::size_t at = 1; at < stream.size(); ++at) {
    const std::size_t kill = std::min(at + 9, stream.size());
    auto resumed =
        CheckpointKillResume(stream, *query, vocab, options, path, at, kill);
    ASSERT_TRUE(resumed.ok())
        << "checkpoint at " << at << ": " << resumed.status().ToString();
    ExpectIdenticalResults(expected, *resumed,
                           "checkpoint at element " + std::to_string(at));
  }
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, ShardedResumeStaysDeterministic) {
  // workers>1 relaxes the bar from byte-identical to the sharded contract:
  // the resumed run must equal the *uninterrupted sharded* run, which is
  // itself deterministic — so plain equality still holds, run to run.
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 33, 140);
  auto query = MakeQuery(kQuery, WindowSpec(18, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  options.num_workers = 2;
  const std::vector<Sgt> expected =
      ReferenceRun(stream, *query, vocab, options);

  const std::string path = TempPath("ckpt_sharded.sgqc");
  auto resumed = CheckpointKillResume(stream, *query, vocab, options, path,
                                      stream.size() / 2,
                                      3 * stream.size() / 4);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdenticalResults(expected, *resumed, "workers=2");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Refusals: wrong engine, wrong vocab, dirty engine
// ---------------------------------------------------------------------------

/// \brief Builds a processor, pushes a prefix, checkpoints, and returns the
/// snapshot path.
std::string SnapshotAfterPrefix(const InputStream& stream,
                                const StreamingGraphQuery& query,
                                Vocabulary* vocab,
                                const EngineOptions& options,
                                const std::string& name) {
  Engine engine(options);
  EXPECT_TRUE(engine.AddQuery(query, *vocab).ok());
  EXPECT_TRUE(engine.Finalize().ok());
  for (std::size_t i = 0; i < stream.size() / 2; ++i) {
    engine.Push(stream[i]);
  }
  const std::string path = TempPath(name);
  Status st = engine.Checkpoint(path, vocab);
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = engine.WaitForCheckpoint();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

TEST(EngineCheckpointTest, OptionsIdentityMismatchRefused) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 4, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions spath;
  spath.path_impl = PathImpl::kSPath;
  const std::string path =
      SnapshotAfterPrefix(stream, *query, &vocab, spath, "ckpt_id.sgqc");

  EngineOptions delta;
  delta.path_impl = PathImpl::kDeltaPath;
  Engine engine(delta);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  Status st = engine.Restore(path, &vocab);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("path_impl"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("identity mismatch"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, VocabularyIsVerifiedAndAdopted) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 6, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::string path =
      SnapshotAfterPrefix(stream, *query, &vocab, options, "ckpt_vocab.sgqc");

  // A conflicting vocabulary — same names interned to different ids — must
  // be refused: restored label ids would silently mean different labels.
  {
    Vocabulary conflicting;
    ASSERT_TRUE(conflicting.InternInputLabel("z").ok());  // shifts ids
    ASSERT_TRUE(conflicting.InternInputLabel("a").ok());
    Engine engine(options);
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    Status st = engine.Restore(path, &conflicting);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("vocab"), std::string::npos)
        << st.ToString();
  }

  // The matching vocabulary restores cleanly.
  {
    Vocabulary same = vocab;
    Engine engine(options);
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    Status st = engine.Restore(path, &same);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(engine.ingested(), stream.size() / 2);
  }
  std::remove(path.c_str());
}

TEST(EngineCheckpointTest, RestoreOnNonFreshEngineRefused) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 8, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::string path =
      SnapshotAfterPrefix(stream, *query, &vocab, options, "ckpt_dirty.sgqc");

  Engine engine(options);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.Push(stream[0]);  // no longer fresh
  Status st = engine.Restore(path, &vocab);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("non-fresh"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault injection on real snapshots
// ---------------------------------------------------------------------------

TEST(EngineCheckpointTest, CorruptionInAnySectionRejectedPositioned) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 12, 100);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::string path = SnapshotAfterPrefix(stream, *query, &vocab,
                                               options, "ckpt_corrupt.sgqc");
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  auto reader = CheckpointReader::Parse(*bytes, path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_GE(reader->sections().size(), 5u) << "expected a full engine image";

  const std::string bad_path = TempPath("ckpt_corrupt_bad.sgqc");
  for (const CheckpointSection& section : reader->sections()) {
    ASSERT_GT(section.length, 0u) << section.name;
    std::string bad = *bytes;
    bad[section.offset] = static_cast<char>(bad[section.offset] ^ 0x40);
    ASSERT_TRUE(WriteFileBytes(bad_path, bad).ok());

    Engine engine(options);
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    Vocabulary fresh_vocab;
    Status st = engine.Restore(bad_path, &fresh_vocab);
    ASSERT_FALSE(st.ok()) << "corrupt '" << section.name << "' accepted";
    // Positioned: the whole-file CRC catches it first and names the file.
    EXPECT_NE(st.message().find("CRC"), std::string::npos)
        << section.name << ": " << st.ToString();
    EXPECT_NE(st.message().find(bad_path), std::string::npos)
        << section.name << ": " << st.ToString();
  }

  // No partial restore: a *rebuilt* engine still restores the good file
  // and resumes to the uninterrupted result.
  const std::vector<Sgt> expected =
      ReferenceRun(stream, *query, vocab, options);
  Engine engine(options);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  ASSERT_TRUE(engine.Restore(path, &vocab).ok());
  for (std::size_t i = engine.ingested(); i < stream.size(); ++i) {
    engine.Push(stream[i]);
  }
  engine.Flush();
  ExpectIdenticalResults(expected, engine.results(0), "after bad candidates");

  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(EngineCheckpointTest, TruncationAtEverySectionBoundaryRejected) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 14, 100);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  const std::string path = SnapshotAfterPrefix(stream, *query, &vocab,
                                               options, "ckpt_trunc.sgqc");
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  auto reader = CheckpointReader::Parse(*bytes, path);
  ASSERT_TRUE(reader.ok());

  const std::string bad_path = TempPath("ckpt_trunc_bad.sgqc");
  std::vector<std::size_t> cuts = {0, 4, 12};  // magic, header, first frame
  for (const CheckpointSection& section : reader->sections()) {
    cuts.push_back(section.offset);                   // before the payload
    cuts.push_back(section.offset + section.length);  // after the payload
  }
  cuts.push_back(bytes->size() - 1);  // inside the footer CRC
  for (std::size_t cut : cuts) {
    ASSERT_TRUE(WriteFileBytes(bad_path, bytes->substr(0, cut)).ok());
    Engine engine(options);
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    Status st = engine.Restore(bad_path);
    ASSERT_FALSE(st.ok()) << "truncation at byte " << cut << " accepted";
    EXPECT_NE(st.message().find("trunc"), std::string::npos)
        << "cut " << cut << ": " << st.ToString();
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

/// \brief `reader`'s image with section `name`'s payload replaced by
/// `payload`, re-framed so every CRC is valid again.
std::string Reframe(const CheckpointReader& reader, const std::string& name,
                    const std::string& payload) {
  StringByteSink sink;
  CheckpointWriter writer(&sink);
  for (const CheckpointSection& section : reader.sections()) {
    EXPECT_TRUE(writer.BeginSection(section.name).ok());
    EXPECT_TRUE(writer
                    .Append(section.name == name ? std::string_view(payload)
                                                 : reader.payload(section))
                    .ok());
    EXPECT_TRUE(writer.EndSection().ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return sink.bytes();
}

TEST(EngineCheckpointTest, BlobLengthPastSectionEndRejectedPositioned) {
  // A CRC-valid image whose first window-partition blob, or first
  // operator blob, claims more bytes than its section holds: restore
  // reads blobs in place, and must refuse with the blob's position.
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 12, 100);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  const std::string path = SnapshotAfterPrefix(stream, *query, &vocab,
                                               options, "ckpt_blob.sgqc");
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  auto reader = CheckpointReader::Parse(*bytes, path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  auto u32_at = [](std::string_view payload, std::size_t at) {
    ByteReader in(payload.substr(at), "u32");
    return in.U32();
  };
  auto patch_u32 = [](std::string* payload, std::size_t at,
                      std::uint32_t v) {
    std::string le;
    PutU32(&le, v);
    payload->replace(at, le.size(), le);
  };
  // "windows": u32 count, then per partition the key string and the
  // blob. "ops": u32 count, then node 0 (a scan): live and merge-
  // coalescer bytes, u32 instances, and the instance's blob.
  const std::string_view windows = reader->payload(*reader->Find("windows"));
  const std::size_t windows_blob = 8 + u32_at(windows, 4);
  const struct {
    const char* section;
    std::size_t length_at;
  } cases[] = {{"windows", windows_blob}, {"ops", 10}};
  const std::string bad_path = TempPath("ckpt_blob_bad.sgqc");
  for (const auto& c : cases) {
    std::string payload(reader->payload(*reader->Find(c.section)));
    ASSERT_LE(c.length_at + 4, payload.size()) << c.section;
    patch_u32(&payload, c.length_at,
              static_cast<std::uint32_t>(payload.size()));
    ASSERT_TRUE(
        WriteFileBytes(bad_path, Reframe(*reader, c.section, payload)).ok());

    Engine engine(options);
    ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    Vocabulary fresh_vocab;
    const Status st = engine.Restore(bad_path, &fresh_vocab);
    ASSERT_FALSE(st.ok()) << c.section << " blob overrun accepted";
    const std::string where = "section '" + std::string(c.section) +
                              "': offset " + std::to_string(c.length_at + 4) +
                              ": truncated string";
    EXPECT_NE(st.message().find(where), std::string::npos)
        << c.section << ": " << st.ToString();
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

// ---------------------------------------------------------------------------
// Vertex fields: 32-bit ids in the u64 fields of the format
// ---------------------------------------------------------------------------

/// \brief An unsharded engine running a PATH into a PATTERN over two edges,
/// a(v0,v1) and b(v1,v2), checkpointed: every vertex field of its "ops"
/// section is at a known offset.
class VertexFieldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"v0", "v1", "v2"}) {
      ids_.push_back(*vocab_.InternVertex(name));
    }
    auto query = MakeQuery("Answer(x,z) <- a+(x,y), b(y,z)",
                           WindowSpec(100, 10), &vocab_);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    query_ = *query;
    Engine engine;
    ASSERT_TRUE(engine.AddQuery(query_, vocab_).ok());
    ASSERT_TRUE(engine.Finalize().ok());
    ASSERT_NE(engine.Explain().find("#1 PATH[S-PATH] -> #3:0"),
              std::string::npos)
        << engine.Explain();
    ASSERT_NE(engine.Explain().find("#3 PATTERN -> #4:0"), std::string::npos)
        << engine.Explain();
    engine.Push(Sge(ids_[0], ids_[1], *vocab_.FindLabel("a"), 1));
    engine.Push(Sge(ids_[1], ids_[2], *vocab_.FindLabel("b"), 2));
    ASSERT_EQ(engine.results(0).size(), 1u);
    path_ = TempPath("ckpt_vertex.sgqc");
    bad_path_ = TempPath("ckpt_vertex_bad.sgqc");
    ASSERT_TRUE(engine.Checkpoint(path_, &vocab_).ok());
    ASSERT_TRUE(engine.WaitForCheckpoint().ok());
    auto bytes = ReadFileBytes(path_);
    ASSERT_TRUE(bytes.ok());
    auto reader = CheckpointReader::Parse(*bytes, path_);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    reader_ = std::make_unique<CheckpointReader>(std::move(*reader));
    ops_ = std::string(reader_->payload(*reader_->Find("ops")));

    // "ops": u32 node count, then per node u8 live, u8 merge-coalescer
    // flag, u32 instances and the one instance's length-prefixed blob.
    ByteReader in(ops_, "ops");
    const std::uint32_t nodes = in.U32();
    for (std::uint32_t i = 0; i < nodes; ++i) {
      ASSERT_EQ(in.U8(), 1u) << "node " << i << " live";
      ASSERT_EQ(in.U8(), 0u) << "node " << i << " merge coalescer";
      ASSERT_EQ(in.U32(), 1u) << "node " << i << " instances";
      const std::uint32_t length = in.U32();
      blobs_.push_back({in.offset(), length});
      in.Raw(length);
    }
    ASSERT_TRUE(in.ExpectEnd().ok()) << in.status().ToString();
    ASSERT_EQ(blobs_.size(), 5u);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(bad_path_.c_str());
  }

  /// \brief The u64 at `at` in operator `op`'s blob.
  std::uint64_t U64At(int op, std::size_t at) const {
    ByteReader in(std::string_view(ops_).substr(blobs_[op].first + at, 8),
                  "u64");
    return in.U64();
  }

  /// \brief Restores the image whose operator `op` holds `value` at blob
  /// offset `at` into a fresh engine.
  Status RestoreWith(int op, std::size_t at, std::uint64_t value) {
    std::string ops = ops_;
    std::string le;
    PutU64(&le, value);
    ops.replace(blobs_[op].first + at, le.size(), le);
    const Status written =
        WriteFileBytes(bad_path_, Reframe(*reader_, "ops", ops));
    if (!written.ok()) return written;
    Engine engine;
    SGQ_RETURN_NOT_OK(engine.AddQuery(query_, vocab_).status());
    SGQ_RETURN_NOT_OK(engine.Finalize());
    Vocabulary fresh;
    return engine.Restore(bad_path_, &fresh);
  }

  // Operator ids of the topology SetUp checks.
  static constexpr int kPath = 1;
  static constexpr int kPattern = 3;

  Vocabulary vocab_;
  std::vector<VertexId> ids_;
  StreamingGraphQuery query_;
  std::string path_;
  std::string bad_path_;
  std::unique_ptr<CheckpointReader> reader_;
  std::string ops_;
  std::vector<std::pair<std::size_t, std::size_t>> blobs_;  ///< offset, size
};

TEST_F(VertexFieldTest, IdsPastTheIdSpaceRejectedPositioned) {
  // PATH (shared window): u8 flag, u64 tree count, then the first root.
  // PATTERN: u32 levels, the left table's u64 key count and its first
  // key's u32 arity, then the key's value (y). Its output coalescer ends
  // the blob: the last key's src, trg, label, u32 interval count 1 and
  // one interval.
  ASSERT_EQ(ops_[blobs_[kPath].first], 1) << "PATH shares its window";
  const std::size_t coalescer_src = blobs_[kPattern].second - 40;
  ASSERT_EQ(U64At(kPattern, blobs_[kPattern].second - 24) >> 32, 1u);
  const struct {
    const char* what;
    int op;
    std::size_t at;
    VertexId holds;
    const char* name;
  } fields[] = {
      {"PATH tree root", kPath, 9, ids_[0], "PATH[S-PATH]"},
      {"PATTERN join key", kPattern, 16, ids_[1], "PATTERN"},
      {"PATTERN coalescer key", kPattern, coalescer_src, ids_[0], "PATTERN"},
  };
  for (const auto& f : fields) {
    ASSERT_EQ(U64At(f.op, f.at), f.holds) << f.what;
    for (const std::uint64_t bad : {0xFFFFFFFFull, 0x100000000ull}) {
      const Status st = RestoreWith(f.op, f.at, bad);
      ASSERT_FALSE(st.ok()) << f.what << " = " << bad << " accepted";
      const std::string where =
          "section 'ops': operator " + std::to_string(f.op) + " (" + f.name +
          ") shard 0: offset " + std::to_string(f.at) + ": vertex id " +
          std::to_string(bad) + " out of range";
      EXPECT_NE(st.message().find(where), std::string::npos)
          << f.what << ": " << st.ToString();
    }
  }
}

TEST_F(VertexFieldTest, U64MaxRestoresAsTheSentinel) {
  // The left binding binds x = v0 and y = v1 and leaves z unbound: after
  // the u64 key, the i64 hint and the u32 binding count, its u32 arity
  // and three u64 values, z last. The unbound z is kInvalidVertex,
  // written as u64 max.
  const std::set<std::uint64_t> bound = {U64At(kPattern, 40),
                                         U64At(kPattern, 48)};
  ASSERT_EQ(bound, (std::set<std::uint64_t>{ids_[0], ids_[1]}));
  ASSERT_EQ(U64At(kPattern, 56), ~std::uint64_t{0});
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(query_, vocab_).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  Vocabulary fresh;
  const Status st = engine.Restore(path_, &fresh);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The restored sentinel writes the same u64 max back.
  ASSERT_TRUE(engine.Checkpoint(bad_path_, &fresh).ok());
  ASSERT_TRUE(engine.WaitForCheckpoint().ok());
  auto again = CheckpointReader::ParseFile(bad_path_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->payload(*again->Find("ops")), ops_);
  // The binding still joins: a second b-edge from v1 derives (v0, v3).
  const VertexId v3 = *fresh.InternVertex("v3");
  engine.Push(Sge(ids_[1], v3, *fresh.FindLabel("b"), 3));
  const std::vector<Sgt> results = engine.results(0);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results.back().src, ids_[0]);
  EXPECT_EQ(results.back().trg, v3);
}

TEST_F(VertexFieldTest, TreeEdgeOffItsKeysRejectedPositioned) {
  // The PATH tree holds the root (v0, s0) and its child (v1, s1), sorted
  // by key, after the u64 root and the u64 node count (offset 25). Each
  // node: key (u64 vertex, u32 state), interval (2 × i64), parent key,
  // the edge from the parent (u64 src, u64 trg, u32 label), u8 is_root,
  // u32 child count and the child keys. The root has one child (77
  // bytes), so the child's edge starts at 102 + 40.
  constexpr std::size_t kRootEdge = 25 + 40;
  constexpr std::size_t kChildEdge = 25 + 77 + 40;
  ASSERT_EQ(U64At(kPath, 25), ids_[0]);
  ASSERT_EQ(U64At(kPath, kRootEdge), ~std::uint64_t{0});  // a root has none
  ASSERT_EQ(U64At(kPath, 25 + 77), ids_[1]);
  ASSERT_EQ(U64At(kPath, kChildEdge), ids_[0]);
  ASSERT_EQ(U64At(kPath, kChildEdge + 8), ids_[1]);
  const struct {
    const char* what;
    std::size_t at;
    VertexId value;
  } cases[] = {
      {"child edge from v1, parent v0", kChildEdge, ids_[1]},
      {"child edge to v2, node v1", kChildEdge + 8, ids_[2]},
      {"root with an edge", kRootEdge, ids_[0]},
  };
  for (const auto& c : cases) {
    const Status st = RestoreWith(kPath, c.at, c.value);
    ASSERT_FALSE(st.ok()) << c.what << " accepted";
    // Positioned after the node's is_root byte (edge + 20 bytes + 1).
    const std::string where =
        "operator 1 (PATH[S-PATH]) shard 0: offset " +
        std::to_string((c.at == kRootEdge ? kRootEdge : kChildEdge) + 21) +
        ": tree edge endpoints disagree with the parent and node keys";
    EXPECT_NE(st.message().find(where), std::string::npos)
        << c.what << ": " << st.ToString();
  }
}

TEST_F(VertexFieldTest, VocabularyPastItsLimitRefusedPositioned) {
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(query_, vocab_).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  testing_util::BoundedVocabulary bounded(2);
  const Status st = engine.Restore(path_, &bounded);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("section 'vocab': offset"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("vertex 'v2' refused"), std::string::npos)
      << st.ToString();
}

TEST(EngineCheckpointTest, MissingFileIsACleanError) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 2, 40);
  auto query = MakeQuery(kQuery, WindowSpec(12, 2), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  Status st = engine.Restore(TempPath("no_such_ckpt.sgqc"));
  ASSERT_FALSE(st.ok());
}

// ---------------------------------------------------------------------------
// The streamed image is the pre-streaming image
// ---------------------------------------------------------------------------

struct GoldenConfig {
  const char* name;
  bool so;  ///< the SO query set over an SO stream, else kQuery
  PathImpl impl;
  std::size_t batch;
  std::size_t workers;
  std::size_t size;          ///< golden file size
  std::uint64_t fingerprint;  ///< golden FNV-1a 64 of the file
};

/// \brief The SGQC bytes of a deterministic engine snapshot: two thirds of
/// a deletion-heavy stream, vocabulary and one extra section included.
std::string SnapshotBytes(const GoldenConfig& config,
                          const std::string& path) {
  Vocabulary vocab;
  InputStream stream;
  std::vector<std::string> texts;
  WindowSpec window(16, 2);
  if (config.so) {
    SoOptions opt;
    opt.seed = 5;
    opt.num_vertices = 120;
    opt.num_edges = 900;
    opt.deletion_probability = 0.1;
    auto so = GenerateSoStream(opt, &vocab);
    EXPECT_TRUE(so.ok());
    stream = *so;
    for (const BenchQuery& q : SoQuerySet()) texts.push_back(q.text);
    window = WindowSpec(3 * kDay, kDay / 2);
  } else {
    stream = DeletionHeavyStream(&vocab, 12, 100);
    texts.push_back(kQuery);
  }
  EngineOptions options;
  options.path_impl = config.impl;
  options.batch_size = config.batch;
  options.num_workers = config.workers;
  Engine engine(options);
  for (const std::string& text : texts) {
    auto query = MakeQuery(text, window, &vocab);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    EXPECT_TRUE(engine.AddQuery(*query, vocab).ok());
  }
  EXPECT_TRUE(engine.Finalize().ok());
  for (std::size_t i = 0; i < 2 * stream.size() / 3; ++i) {
    engine.Push(stream[i]);
  }
  std::string blob;
  PutU64(&blob, 99);
  Status st = engine.Checkpoint(path, &vocab, {{"x-extra", blob}});
  if (st.ok()) st = engine.WaitForCheckpoint();
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::string();
}

TEST(EngineCheckpointTest, StreamedSnapshotsMatchPreStreamingGoldens) {
  // Frozen from the encoder that assembled the whole image in memory
  // before writing it: streaming the snapshot into the temp file changes
  // the write path, never the SGQC bytes. Re-frozen for version 3, whose
  // images differ from version 2 only in the header version, the "meta"
  // section (two identity keys fewer) and the footer CRC — every other
  // section's CRC is unchanged. The SO snapshot (several MB, mostly
  // undrained sink buffers and PATH forests) spans thousands of sink
  // buffer flushes. It registers Q6 and Q7, whose joins differ only in
  // head label and compile once: re-frozen when Q7's copy of the join
  // (its `atom:` partitions and PATTERN state) left the image, which
  // changed only the "windows" and "ops" sections and the footer CRC.
  // Re-frozen for version 4: "meta" lost two keys (48 bytes); only the
  // header version, "meta" and the footer CRC moved. Re-frozen for
  // version 5, since every config registers a PATTERN join: its "ops"
  // payload carries each join bucket's hinted expiry instead of the
  // binding-expiry calendar's hint list (every image shrank); only the
  // header version, "ops" and the footer CRC moved. Re-frozen for version
  // 6: "ops" lost the purge watermarks and the touched bytes, and every
  // slide boundary now purges exactly what expired, so "ops" and
  // "windows" no longer carry expired state (every image shrank); only
  // the header version, "ops", "windows" and the footer CRC moved.
  // Re-frozen for version 7: the two shards of spath-w2 share one window
  // partition per key, so its "windows" section halved (1,698 -> 830
  // bytes, the image 4,746 -> 3,878); the unsharded images moved only in
  // the header version and the footer CRC. Re-frozen for version 8:
  // "meta" lost the async_ingest key (21 bytes, every image); only the
  // header version, "meta" and the footer CRC moved. so-b1 re-frozen when
  // batch 1 began to run waves instead of the depth-first drain: Q3's
  // star-join UNION now takes its branches' output branch by branch, so
  // its undrained sink holds 15 tuples more (23,603 -> 23,618) and "ops"
  // grew by 875 bytes; only "ops" and the footer CRC moved, and the other
  // three images are unchanged.
  const GoldenConfig goldens[] = {
      {"spath-b1", false, PathImpl::kSPath, 1, 1, 2681,
       0x837b31ae0d5dde79ull},
      {"delta-b7", false, PathImpl::kDeltaPath, 7, 1, 3792,
       0xd4f77b01814605aeull},
      {"spath-w2", false, PathImpl::kSPath, 4, 2, 3857,
       0x34c93ba4d72bc2dbull},
      {"so-b1", true, PathImpl::kSPath, 1, 1, 6359892,
       0x2dfd50cb864b92e3ull},
  };
  const std::string path = TempPath("ckpt_golden.sgqc");
  for (const GoldenConfig& golden : goldens) {
    const std::string bytes = SnapshotBytes(golden, path);
    EXPECT_EQ(bytes.size(), golden.size) << golden.name;
    EXPECT_EQ(testing_util::Fingerprint(bytes), golden.fingerprint)
        << golden.name;
    EXPECT_FALSE(ReadFileBytes(path + ".tmp").ok()) << golden.name;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Write failures
// ---------------------------------------------------------------------------

TEST(EngineCheckpointTest, WriteFailureReturnsFromCheckpointAndKeepsPrevious) {
#if defined(_WIN32)
  GTEST_SKIP() << "needs /dev/full and symlinks";
#else
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 10, 100);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  for (std::size_t i = 0; i < stream.size() / 2; ++i) engine.Push(stream[i]);

  const std::string path = TempPath("ckpt_enospc.sgqc");
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());  // a stale symlink would fail the first write
  ASSERT_TRUE(engine.Checkpoint(path, &vocab).ok());
  ASSERT_TRUE(engine.WaitForCheckpoint().ok());
  auto previous = ReadFileBytes(path);
  ASSERT_TRUE(previous.ok());

  // The next snapshot's temp file is a disk that is always full: the
  // ENOSPC is hit while serializing, so the call itself returns it.
  for (std::size_t i = stream.size() / 2; i < stream.size(); ++i) {
    engine.Push(stream[i]);
  }
  ASSERT_EQ(::symlink("/dev/full", tmp.c_str()), 0);
  const Status st = engine.Checkpoint(path, &vocab);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("No space left"), std::string::npos)
      << st.ToString();
  struct stat tmp_stat;
  EXPECT_NE(::lstat(tmp.c_str(), &tmp_stat), 0) << "temp file left behind";
  EXPECT_TRUE(engine.WaitForCheckpoint().ok());  // nothing in flight

  auto kept = ReadFileBytes(path);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, *previous);
  EXPECT_TRUE(CheckpointReader::ParseFile(path).ok());

  // With space again, the next checkpoint replaces the previous one.
  ASSERT_TRUE(engine.Checkpoint(path, &vocab).ok());
  ASSERT_TRUE(engine.WaitForCheckpoint().ok());
  auto replaced = ReadFileBytes(path);
  ASSERT_TRUE(replaced.ok());
  EXPECT_NE(*replaced, *previous);
  std::remove(path.c_str());
#endif
}

// ---------------------------------------------------------------------------
// Metrics and extras
// ---------------------------------------------------------------------------

TEST(EngineCheckpointTest, MetricsAndExtrasRoundTrip) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 18, 80);
  auto query = MakeQuery(kQuery, WindowSpec(16, 2), &vocab);
  ASSERT_TRUE(query.ok());

  EngineOptions options;
  Engine engine(options);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  for (std::size_t i = 0; i < stream.size() / 2; ++i) engine.Push(stream[i]);

  const std::string path = TempPath("ckpt_extras.sgqc");
  std::string blob;
  PutU64(&blob, 12345);
  ASSERT_TRUE(
      engine.Checkpoint(path, &vocab, {{"x-reorder", blob}}).ok());
  ASSERT_TRUE(engine.WaitForCheckpoint().ok());
  // checkpoint_bytes counts the encoded image == the durable file.
  auto on_disk = ReadFileBytes(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(engine.checkpoint_bytes(), on_disk->size());

  Engine restored(options);
  ASSERT_TRUE(restored.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(restored.Finalize().ok());
  std::unordered_map<std::string, std::string> extra;
  ASSERT_TRUE(restored.Restore(path, &vocab, &extra).ok());
  ASSERT_EQ(extra.count("x-reorder"), 1u);
  ByteReader in(extra["x-reorder"], "extra");
  EXPECT_EQ(in.U64(), 12345u);
  EXPECT_TRUE(in.ExpectEnd().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgq
