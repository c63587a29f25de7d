// Bounded-memory file ingest (model/file_chunk_source.h, DESIGN.md §6.3):
//
//  - the windowed file source reproduces the materialized
//    MakeChunkedStream view byte-for-byte — chunk count, per-chunk
//    element sequence, CSV global line numbers and binary byte offsets in
//    error text — in both serving modes and both formats;
//  - engine results through RunPipelined are identical between the file
//    source and the in-memory source across format × parsers, and the
//    RunSgaFile harness matches RunSgaText in every parse placement,
//    reorder slack included;
//  - peak resident chunk bytes are O(readahead window), independent of
//    file size (the bounded-memory contract);
//  - aborting runs (early parse error, multi-parser) terminate instead of
//    hanging on the readahead window;
//  - degenerate inputs (zero-length files, retired-chunk reopens) behave
//    exactly like the materialized path.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/query_processor.h"
#include "model/file_chunk_source.h"
#include "model/stream_io.h"
#include "workload/generators.h"
#include "workload/harness.h"
#include "workload/queries.h"

namespace sgq {
namespace {

/// \brief Drains a cursor; asserts nothing (callers check status).
InputStream Drain(StreamCursor* cursor) {
  InputStream out;
  Sge buffer[7];  // odd capacity: exercises partial final batches
  for (;;) {
    const std::size_t n = cursor->Next(buffer, 7);
    if (n == 0) break;
    out.insert(out.end(), buffer, buffer + n);
  }
  return out;
}

void ExpectSameElements(const InputStream& a, const InputStream& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].src, b[i].src) << what << " element " << i;
    ASSERT_EQ(a[i].trg, b[i].trg) << what << " element " << i;
    ASSERT_EQ(a[i].label, b[i].label) << what << " element " << i;
    ASSERT_EQ(a[i].t, b[i].t) << what << " element " << i;
    ASSERT_EQ(a[i].is_deletion, b[i].is_deletion) << what << " element "
                                                  << i;
  }
}

InputStream TestStream(Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = 4242;
  opt.num_vertices = 40;
  opt.num_labels = 3;
  opt.num_edges = 4000;  // enough bytes for several chunks at min_chunks=8
  opt.max_gap = 2;
  opt.deletion_probability = 0.1;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

std::string WriteTemp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteFileBytes(path, bytes).ok());
  return path;
}

const FileIngestMode kModes[] = {FileIngestMode::kBuffered,
                                 FileIngestMode::kMmap};

const char* ModeName(FileIngestMode mode) {
  return mode == FileIngestMode::kMmap ? "mmap" : "buffered";
}

// ---------------------------------------------------------------------------
// Chunk-view parity with the materialized source
// ---------------------------------------------------------------------------

TEST(FileChunkSourceTest, ChunksMatchMaterializedSourceExactly) {
  Vocabulary vocab;
  const InputStream stream = TestStream(&vocab);
  const std::string csv = FormatStreamCsv(stream, vocab);
  auto binary = FormatStreamBinary(stream, vocab);
  ASSERT_TRUE(binary.ok());

  for (const bool use_binary : {false, true}) {
    const std::string& bytes = use_binary ? *binary : csv;
    const StreamFormat format =
        use_binary ? StreamFormat::kBinary : StreamFormat::kCsv;
    const std::string path = WriteTemp(
        use_binary ? "chunk_parity.sgqb" : "chunk_parity.csv", bytes);
    auto reference =
        MakeChunkedStream(bytes, format, &vocab, false, /*min_chunks=*/8);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (const FileIngestMode mode : kModes) {
      FileChunkOptions fco;
      fco.mode = mode;
      fco.min_chunks = 8;
      auto source = MakeFileChunkSource(path, format, &vocab, fco);
      ASSERT_TRUE(source.ok()) << source.status().ToString();
      EXPECT_EQ((*source)->mode(), mode);
      EXPECT_EQ((*source)->file_size(), bytes.size());
      ASSERT_EQ((*source)->NumChunks(), (*reference)->NumChunks())
          << ModeName(mode);
      // Sequential open/drain/close respects the readahead window and
      // compares every chunk's element sequence against the same chunk of
      // the materialized source.
      for (std::size_t c = 0; c < (*source)->NumChunks(); ++c) {
        auto got = (*source)->OpenChunk(c);
        auto want = (*reference)->OpenChunk(c);
        const InputStream got_elems = Drain(got.get());
        const InputStream want_elems = Drain(want.get());
        ASSERT_TRUE(got->status().ok())
            << ModeName(mode) << " chunk " << c << ": "
            << got->status().ToString();
        ASSERT_TRUE(want->status().ok());
        ExpectSameElements(got_elems, want_elems, ModeName(mode));
      }
    }
    std::remove(path.c_str());
  }
}

TEST(FileChunkSourceTest, RetiredChunksReopenWithIdenticalContents) {
  Vocabulary vocab;
  const InputStream stream = TestStream(&vocab);
  const std::string csv = FormatStreamCsv(stream, vocab);
  const std::string path = WriteTemp("reopen.csv", csv);
  auto reference = MakeChunkedStream(csv, StreamFormat::kCsv, &vocab, false,
                                     /*min_chunks=*/6);
  ASSERT_TRUE(reference.ok());
  for (const FileIngestMode mode : kModes) {
    FileChunkOptions fco;
    fco.mode = mode;
    fco.min_chunks = 6;
    fco.readahead_chunks = 2;  // clamp floor: tightest legal window
    auto source = MakeFileChunkSource(path, StreamFormat::kCsv, &vocab, fco);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    EXPECT_EQ((*source)->window_chunks(), 2u);
    // Walk everything once (each chunk retires when its cursor drops)...
    for (std::size_t c = 0; c < (*source)->NumChunks(); ++c) {
      auto cursor = (*source)->OpenChunk(c);
      Drain(cursor.get());
      ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    }
    // ...then reopen a retired middle chunk: buffered mode reloads the
    // bytes from disk, mmap re-touches MADV_DONTNEEDed pages.
    auto again = (*source)->OpenChunk(2);
    auto want = (*reference)->OpenChunk(2);
    ExpectSameElements(Drain(again.get()), Drain(want.get()),
                       ModeName(mode));
    ASSERT_TRUE(again->status().ok()) << again->status().ToString();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Error-text parity (global line numbers / byte offsets)
// ---------------------------------------------------------------------------

TEST(FileChunkSourceTest, CsvErrorsCarryGlobalLineNumbers) {
  // A malformed record deep in the file: its line number is global, which
  // the lazy boundary resolution must accumulate chunk by chunk.
  std::string csv;
  for (int i = 0; i < 400; ++i) {
    csv += "u" + std::to_string(i % 50) + ",a,v" + std::to_string(i % 50) +
           "," + std::to_string(i / 4) + "\n";
  }
  csv += "u1,a,v1,not-a-timestamp\n";  // line 401
  const std::string path = WriteTemp("line_numbers.csv", csv);

  Vocabulary ref_vocab;
  auto reference = MakeChunkedStream(csv, StreamFormat::kCsv, &ref_vocab,
                                     false, /*min_chunks=*/8);
  ASSERT_TRUE(reference.ok());
  ChunkWalkCursor want(**reference, false);
  Drain(&want);
  ASSERT_FALSE(want.status().ok());
  ASSERT_NE(want.status().message().find("line 401"), std::string::npos)
      << want.status().ToString();

  for (const FileIngestMode mode : kModes) {
    Vocabulary vocab;
    FileChunkOptions fco;
    fco.mode = mode;
    fco.min_chunks = 8;
    auto source = MakeFileChunkSource(path, StreamFormat::kCsv, &vocab, fco);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ChunkWalkCursor got(**source, false);
    Drain(&got);
    ASSERT_FALSE(got.status().ok()) << ModeName(mode);
    EXPECT_EQ(got.status().message(), want.status().message())
        << ModeName(mode);
  }
  std::remove(path.c_str());
}

TEST(FileChunkSourceTest, BinaryHeaderErrorsMatchMaterializedPath) {
  const std::string bad = "SGQX not a real header";
  const std::string path = WriteTemp("bad_header.sgqb", bad);
  Vocabulary vocab;
  auto reference =
      MakeChunkedStream(bad, StreamFormat::kBinary, &vocab, false, 1);
  ASSERT_FALSE(reference.ok());
  for (const FileIngestMode mode : kModes) {
    FileChunkOptions fco;
    fco.mode = mode;
    auto source =
        MakeFileChunkSource(path, StreamFormat::kBinary, &vocab, fco);
    ASSERT_FALSE(source.ok()) << ModeName(mode);
    EXPECT_EQ(source.status().message(), reference.status().message())
        << ModeName(mode);
  }
  std::remove(path.c_str());
}

TEST(FileChunkSourceTest, ZeroLengthFileMatchesMaterializedPath) {
  const std::string path = WriteTemp("empty_stream.csv", "");
  Vocabulary vocab;
  for (const FileIngestMode mode : kModes) {
    FileChunkOptions fco;
    fco.mode = mode;
    // CSV: zero elements, clean end (an empty mapping is degenerate, so
    // the source degrades to a resident empty buffer in either mode).
    auto source = MakeFileChunkSource(path, StreamFormat::kCsv, &vocab, fco);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ChunkWalkCursor cursor(**source, false);
    EXPECT_TRUE(Drain(&cursor).empty());
    EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
    // Binary: same truncated-header error as parsing empty bytes.
    auto ref =
        MakeChunkedStream("", StreamFormat::kBinary, &vocab, false, 1);
    ASSERT_FALSE(ref.ok());
    auto bin = MakeFileChunkSource(path, StreamFormat::kBinary, &vocab, fco);
    ASSERT_FALSE(bin.ok()) << ModeName(mode);
    EXPECT_EQ(bin.status().message(), ref.status().message());
  }
  std::remove(path.c_str());
}

TEST(FileChunkSourceTest, MissingFileAndDirectoryErrors) {
  Vocabulary vocab;
  auto missing = MakeFileChunkSource(::testing::TempDir() + "/nope.csv",
                                     StreamFormat::kCsv, &vocab);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto dir =
      MakeFileChunkSource(::testing::TempDir(), StreamFormat::kCsv, &vocab);
  ASSERT_FALSE(dir.ok());
  EXPECT_NE(dir.status().message().find("is a directory"),
            std::string::npos);
}

TEST(FileChunkSourceTest, DetectStreamFileFormatSniffsMagic) {
  Vocabulary vocab;
  const InputStream stream = TestStream(&vocab);
  auto binary = FormatStreamBinary(stream, vocab);
  ASSERT_TRUE(binary.ok());
  const std::string csv_path =
      WriteTemp("detect.csv", FormatStreamCsv(stream, vocab));
  const std::string bin_path = WriteTemp("detect.sgqb", *binary);
  auto csv_format = DetectStreamFileFormat(csv_path);
  auto bin_format = DetectStreamFileFormat(bin_path);
  ASSERT_TRUE(csv_format.ok());
  ASSERT_TRUE(bin_format.ok());
  EXPECT_EQ(*csv_format, StreamFormat::kCsv);
  EXPECT_EQ(*bin_format, StreamFormat::kBinary);
  EXPECT_FALSE(DetectStreamFileFormat(csv_path + ".gone").ok());
  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
}

// ---------------------------------------------------------------------------
// Engine differential: file source vs in-memory source
// ---------------------------------------------------------------------------

std::vector<Sgt> RunShardedOver(const StreamingGraphQuery& query,
                                Vocabulary* vocab,
                                const ChunkedStream& chunks,
                                EngineOptions options) {
  auto qp = QueryProcessor::FromQuery(query, *vocab, options);
  EXPECT_TRUE(qp.ok()) << qp.status().ToString();
  if (!qp.ok()) return {};
  Status run = (*qp)->engine().RunPipelined(chunks);
  EXPECT_TRUE(run.ok()) << run.ToString();
  return (*qp)->results();
}

TEST(FileIngestDifferentialTest, ResultsIdenticalToInMemorySource) {
  // The hard contract: same chunk boundaries, same merge order, so the
  // result stream through RunPipelined is *identical* (order
  // included) between the file source and the materialized source, for
  // every format × parsers × mode cell. (The vocabulary is pre-populated
  // by the generator, so concurrent CSV interning resolves fixed ids.)
  Vocabulary vocab;
  const InputStream stream = TestStream(&vocab);
  const std::string csv = FormatStreamCsv(stream, vocab);
  auto binary = FormatStreamBinary(stream, vocab);
  ASSERT_TRUE(binary.ok());
  auto query =
      MakeQuery("Answer(x,z) <- a(x,y), b(y,z)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  for (const bool use_binary : {false, true}) {
    const std::string& bytes = use_binary ? *binary : csv;
    const StreamFormat format =
        use_binary ? StreamFormat::kBinary : StreamFormat::kCsv;
    const std::string path = WriteTemp(
        use_binary ? "differential.sgqb" : "differential.csv", bytes);
    for (std::size_t parsers : {std::size_t{1}, std::size_t{4}}) {
      const std::size_t min_chunks = parsers > 1 ? parsers * 2 : 1;
      EngineOptions options;
      options.batch_size = 16;
      options.ingest_parsers = parsers;
      auto reference =
          MakeChunkedStream(bytes, format, &vocab, false, min_chunks);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      const std::vector<Sgt> expected =
          RunShardedOver(*query, &vocab, **reference, options);
      for (const FileIngestMode mode : kModes) {
        FileChunkOptions fco;
        fco.mode = mode;
        fco.min_chunks = min_chunks;
        fco.readahead_chunks = parsers + 1;
        auto source = MakeFileChunkSource(path, format, &vocab, fco);
        ASSERT_TRUE(source.ok()) << source.status().ToString();
        const std::vector<Sgt> actual =
            RunShardedOver(*query, &vocab, **source, options);
        ASSERT_EQ(actual.size(), expected.size())
            << ModeName(mode) << " format="
            << (use_binary ? "binary" : "csv") << " parsers=" << parsers;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_TRUE(actual[i] == expected[i])
              << ModeName(mode) << " format="
              << (use_binary ? "binary" : "csv") << " parsers=" << parsers
              << " position " << i;
        }
      }
    }
    std::remove(path.c_str());
  }
}

TEST(FileIngestDifferentialTest, RunSgaFileMatchesRunSgaText) {
  // Harness-level parity in every parse placement RunSgaText supports:
  // sync inline parse, async single producer, async sharded.
  Vocabulary vocab;
  const InputStream stream = TestStream(&vocab);
  const std::string csv = FormatStreamCsv(stream, vocab);
  auto binary = FormatStreamBinary(stream, vocab);
  ASSERT_TRUE(binary.ok());
  auto query = MakeQuery("Answer(x,y) <- a(x,y)\nAnswer(x,y) <- c(x,y)",
                         WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const std::string csv_path = WriteTemp("harness.csv", csv);
  const std::string bin_path = WriteTemp("harness.sgqb", *binary);

  struct Placement {
    bool async;
    std::size_t parsers;
  };
  const Placement placements[] = {{false, 1}, {true, 1}, {true, 4}};
  for (const bool use_binary : {false, true}) {
    for (const Placement& p : placements) {
      EngineOptions options;
      options.batch_size = 16;
      options.async_ingest = p.async;
      options.ingest_parsers = p.parsers;
      options.ingest_format =
          use_binary ? StreamFormat::kBinary : StreamFormat::kCsv;
      auto text = RunSgaText(use_binary ? *binary : csv, *query, &vocab,
                             options, "text");
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      for (const FileIngestMode mode : kModes) {
        options.ingest_file_mode = mode;
        auto file = RunSgaFile(use_binary ? bin_path : csv_path, *query,
                               &vocab, options, "file");
        ASSERT_TRUE(file.ok()) << file.status().ToString();
        EXPECT_EQ(file->results_emitted, text->results_emitted)
            << ModeName(mode) << " format="
            << (use_binary ? "binary" : "csv") << " async=" << p.async
            << " parsers=" << p.parsers;
        EXPECT_EQ(file->edges_processed, text->edges_processed);
      }
    }
  }
  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(FileIngestDifferentialTest, SlackRunsAgreeAcrossSourcesAndPlacements) {
  // ingest_slack on every ChunkedStream runner: the synchronous chunk
  // walk must reorder through a ReorderBuffer exactly like the pipeline's
  // merge stage, for in-memory bytes and files alike. The small stream
  // holds two adjacent swaps; the large one swaps every adjacent pair.
  Vocabulary generator_vocab;
  InputStream disordered = TestStream(&generator_vocab);
  for (std::size_t i = 0; i + 1 < disordered.size(); i += 2) {
    std::swap(disordered[i], disordered[i + 1]);
  }
  const std::string inputs[] = {
      "u,a,v,1\nv,a,w,3\nu,b,v,2\nw,a,u,5\nv,b,u,4\n",
      FormatStreamCsv(disordered, generator_vocab),
  };
  int idx = 0;
  for (const std::string& csv : inputs) {
    const std::string path =
        WriteTemp("slack" + std::to_string(idx++) + ".csv", csv);
    struct Run {
      std::size_t results;
      std::size_t edges;
    };
    std::vector<Run> runs;
    for (const bool from_file : {false, true}) {
      for (const bool async : {false, true}) {
        Vocabulary vocab;
        auto query = MakeQuery("Answer(x,y) <- a(x,y)\nAnswer(x,y) <- b(x,y)",
                               WindowSpec(12, 3), &vocab);
        ASSERT_TRUE(query.ok()) << query.status().ToString();
        EngineOptions options;
        options.async_ingest = async;
        options.ingest_slack = 4;
        auto m = from_file
                     ? RunSgaFile(path, *query, &vocab, options, "file")
                     : RunSgaText(csv, *query, &vocab, options, "text");
        ASSERT_TRUE(m.ok()) << m.status().ToString() << " file=" << from_file
                            << " async=" << async;
        runs.push_back({m->results_emitted, m->edges_processed});
      }
    }
    EXPECT_GT(runs[0].results, 0u);
    for (const Run& run : runs) {
      EXPECT_EQ(run.results, runs[0].results) << "input " << idx - 1;
      EXPECT_EQ(run.edges, runs[0].edges) << "input " << idx - 1;
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Bounded memory and abort safety
// ---------------------------------------------------------------------------

TEST(FileIngestBoundedMemoryTest, PeakResidentBytesIndependentOfFileSize) {
  // Two synthetic CSV files, one 4x the other; at a fixed readahead
  // window the feeder's high-water resident payload must not scale with
  // the file (the whole point of the windowed source). The in-memory
  // path, by contrast, holds every byte.
  auto make_csv = [](std::size_t target_bytes) {
    std::string csv;
    csv.reserve(target_bytes + 64);
    std::size_t i = 0;
    while (csv.size() < target_bytes) {
      csv += "u" + std::to_string(i % 500) + ",a,v" +
             std::to_string((i * 7) % 500) + "," + std::to_string(i / 50) +
             "\n";
      ++i;
    }
    return csv;
  };
  const std::string small_csv = make_csv(2u << 20);   // ~2 MiB: 8 chunks
  const std::string large_csv = make_csv(8u << 20);   // ~8 MiB: 32 chunks
  const std::string small_path = WriteTemp("rss_small.csv", small_csv);
  const std::string large_path = WriteTemp("rss_large.csv", large_csv);

  for (const FileIngestMode mode : kModes) {
    std::uint64_t peak[2] = {0, 0};
    int idx = 0;
    for (const std::string* path : {&small_path, &large_path}) {
      Vocabulary vocab;
      FileChunkOptions fco;
      fco.mode = mode;
      fco.readahead_chunks = 4;
      auto source =
          MakeFileChunkSource(*path, StreamFormat::kCsv, &vocab, fco);
      ASSERT_TRUE(source.ok()) << source.status().ToString();
      ASSERT_GE((*source)->NumChunks(), 8u);
      ChunkWalkCursor cursor(**source, false);
      EXPECT_FALSE(Drain(&cursor).empty());
      ASSERT_TRUE(cursor.status().ok()) << cursor.status().ToString();
      peak[idx++] = (*source)->peak_resident_bytes();
    }
    // The window is 4 chunks of ~256 KiB: both peaks sit near ~1 MiB.
    // Identical boundaries modulo newline slack, so "independent of file
    // size" is a tight relation, not a loose threshold.
    EXPECT_GT(peak[0], 0u) << ModeName(mode);
    EXPECT_LE(peak[1], peak[0] + peak[0] / 4) << ModeName(mode)
        << ": peak grew with file size (" << peak[0] << " -> " << peak[1]
        << ")";
    // And absolutely bounded far below the large file itself.
    EXPECT_LT(peak[1], large_csv.size() / 4) << ModeName(mode);
  }
  std::remove(small_path.c_str());
  std::remove(large_path.c_str());
}

TEST(FileIngestAbortTest, EarlyParseErrorTerminatesShardedRun) {
  // A malformed record in the first chunk while 4 parsers contend for a
  // tight window: the merge's abort must wake any parser blocked in
  // OpenChunk (ChunkedStream::Abort) or this test hangs.
  std::string csv = "u0,a,v0,not-a-timestamp\n";  // line 1: poison
  for (int i = 0; i < 20000; ++i) {
    csv += "u" + std::to_string(i % 50) + ",a,v" + std::to_string(i % 50) +
           "," + std::to_string(i / 100) + "\n";
  }
  const std::string path = WriteTemp("abort.csv", csv);
  for (const FileIngestMode mode : kModes) {
    Vocabulary vocab;
    auto query =
        MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(12, 3), &vocab);
    ASSERT_TRUE(query.ok());
    EngineOptions options;
    options.ingest_parsers = 4;
    auto qp = QueryProcessor::FromQuery(*query, vocab, options);
    ASSERT_TRUE(qp.ok());
    FileChunkOptions fco;
    fco.mode = mode;
    fco.min_chunks = 8;
    fco.readahead_chunks = 2;
    auto source = MakeFileChunkSource(path, StreamFormat::kCsv, &vocab, fco);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    Status run = (*qp)->engine().RunPipelined(**source);
    ASSERT_FALSE(run.ok()) << ModeName(mode);
    EXPECT_NE(run.message().find("line 1"), std::string::npos)
        << run.ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgq
