// Engine-level crash recovery (DESIGN.md §7): kill/restore/resume must be
// indistinguishable from never having crashed. The differential runs a
// deletion-heavy stream uninterrupted, then re-runs it through the
// RunSgaCheckpointKill harness (checkpoint → keep running → simulated
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

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#if !defined(_WIN32)
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/engine.h"
#include "core/query_processor.h"
#include "model/checkpoint.h"
#include "model/stream_io.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/harness.h"
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
  auto qp = QueryProcessor::FromQuery(query, vocab, options);
  EXPECT_TRUE(qp.ok()) << qp.status().ToString();
  (*qp)->PushAll(stream);
  return (*qp)->results();
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
      std::vector<Sgt> resumed;
      auto metrics = RunSgaCheckpointKill(
          stream, *query, vocab, options, path, stream.size() / 3,
          2 * stream.size() / 3, "kill", &resumed);
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      EXPECT_GT(metrics->checkpoint_bytes, 0u);
      ExpectIdenticalResults(expected, resumed,
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
    std::vector<Sgt> resumed;
    const std::size_t kill = std::min(at + 9, stream.size());
    auto metrics = RunSgaCheckpointKill(stream, *query, vocab, options, path,
                                        at, kill, "boundary", &resumed);
    ASSERT_TRUE(metrics.ok())
        << "checkpoint at " << at << ": " << metrics.status().ToString();
    ExpectIdenticalResults(expected, resumed,
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
  std::vector<Sgt> resumed;
  auto metrics = RunSgaCheckpointKill(stream, *query, vocab, options, path,
                                      stream.size() / 2,
                                      3 * stream.size() / 4, "sharded",
                                      &resumed);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ExpectIdenticalResults(expected, resumed, "workers=2");
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
  auto qp = QueryProcessor::FromQuery(query, *vocab, options);
  EXPECT_TRUE(qp.ok());
  for (std::size_t i = 0; i < stream.size() / 2; ++i) {
    (*qp)->Push(stream[i]);
  }
  const std::string path = TempPath(name);
  Status st = (*qp)->engine().Checkpoint(path, vocab);
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = (*qp)->engine().WaitForCheckpoint();
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
  auto qp = QueryProcessor::FromQuery(*query, vocab, delta);
  ASSERT_TRUE(qp.ok());
  Status st = (*qp)->engine().Restore(path, &vocab);
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
    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    Status st = (*qp)->engine().Restore(path, &conflicting);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("vocab"), std::string::npos)
        << st.ToString();
  }

  // The matching vocabulary restores cleanly.
  {
    Vocabulary same = vocab;
    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    Status st = (*qp)->engine().Restore(path, &same);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ((*qp)->engine().ingested(), stream.size() / 2);
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

  auto qp = QueryProcessor::FromQuery(*query, vocab, options);
  ASSERT_TRUE(qp.ok());
  (*qp)->Push(stream[0]);  // no longer fresh
  Status st = (*qp)->engine().Restore(path, &vocab);
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

    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    Vocabulary fresh_vocab;
    Status st = (*qp)->engine().Restore(bad_path, &fresh_vocab);
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
  auto qp = QueryProcessor::FromQuery(*query, vocab, options);
  ASSERT_TRUE(qp.ok());
  ASSERT_TRUE((*qp)->engine().Restore(path, &vocab).ok());
  for (std::size_t i = (*qp)->engine().ingested(); i < stream.size(); ++i) {
    (*qp)->Push(stream[i]);
  }
  (*qp)->Flush();
  ExpectIdenticalResults(expected, (*qp)->results(), "after bad candidates");

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
    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    Status st = (*qp)->engine().Restore(bad_path);
    ASSERT_FALSE(st.ok()) << "truncation at byte " << cut << " accepted";
    EXPECT_NE(st.message().find("trunc"), std::string::npos)
        << "cut " << cut << ": " << st.ToString();
  }
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(EngineCheckpointTest, MissingFileIsACleanError) {
  Vocabulary vocab;
  const InputStream stream = DeletionHeavyStream(&vocab, 2, 40);
  auto query = MakeQuery(kQuery, WindowSpec(12, 2), &vocab);
  ASSERT_TRUE(query.ok());
  auto qp = QueryProcessor::FromQuery(*query, vocab, {});
  ASSERT_TRUE(qp.ok());
  Status st = (*qp)->engine().Restore(TempPath("no_such_ckpt.sgqc"));
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
  // header version, "meta" and the footer CRC moved.
  const GoldenConfig goldens[] = {
      {"spath-b1", false, PathImpl::kSPath, 1, 1, 11417,
       0x67a1519762a3d593ull},
      {"delta-b7", false, PathImpl::kDeltaPath, 7, 1, 8645,
       0xca240161e56f7241ull},
      {"spath-w2", false, PathImpl::kSPath, 4, 2, 13254,
       0x591e976a898081e5ull},
      {"so-b1", true, PathImpl::kSPath, 1, 1, 7496411,
       0xf62648f5f87a757aull},
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
  auto qp = QueryProcessor::FromQuery(*query, vocab, {});
  ASSERT_TRUE(qp.ok());
  Engine& engine = (*qp)->engine();
  for (std::size_t i = 0; i < stream.size() / 2; ++i) (*qp)->Push(stream[i]);

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
    (*qp)->Push(stream[i]);
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
  auto qp = QueryProcessor::FromQuery(*query, vocab, options);
  ASSERT_TRUE(qp.ok());
  for (std::size_t i = 0; i < stream.size() / 2; ++i) (*qp)->Push(stream[i]);

  const std::string path = TempPath("ckpt_extras.sgqc");
  std::string blob;
  PutU64(&blob, 12345);
  ASSERT_TRUE((*qp)
                  ->engine()
                  .Checkpoint(path, &vocab, {{"x-reorder", blob}})
                  .ok());
  ASSERT_TRUE((*qp)->engine().WaitForCheckpoint().ok());
  // checkpoint_bytes counts the encoded image == the durable file.
  auto on_disk = ReadFileBytes(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ((*qp)->engine().checkpoint_bytes(), on_disk->size());

  auto restored = QueryProcessor::FromQuery(*query, vocab, options);
  ASSERT_TRUE(restored.ok());
  std::unordered_map<std::string, std::string> extra;
  ASSERT_TRUE((*restored)->engine().Restore(path, &vocab, &extra).ok());
  ASSERT_EQ(extra.count("x-reorder"), 1u);
  ByteReader in(extra["x-reorder"], "extra");
  EXPECT_EQ(in.U64(), 12345u);
  EXPECT_TRUE(in.ExpectEnd().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgq
