// Chunk sources (model/file_chunk_source.h, DESIGN.md §6.3):
//
//  - the split rule is frozen: chunk count, per-chunk element counts and
//    element fingerprints match a table recorded from the separate
//    in-memory and file chunkers before they were folded into one
//    source, for both byte origins (resident and pread) and both formats;
//  - the pread origin reproduces the resident one byte-for-byte — chunk
//    count, per-chunk element sequence, CSV global line numbers and
//    binary byte offsets in error text;
//  - the format is detected from the first bytes the source reads, for
//    files and pipes alike, and an explicit format overrides it;
//  - a file truncated mid-run ends in a read error naming the file and
//    the offset, never a crash;
//  - engine results through RunPipelined are identical between a file
//    and in-memory bytes across format × parsers, and a harness Run over
//    the file matches one over its bytes in every parse placement,
//    reorder slack included;
//  - peak held chunk bytes, pooled buffers included, are O(readahead
//    window), independent of file size and of how often the source is
//    walked (the bounded-memory contract);
//  - aborting runs (early parse error, multi-parser) terminate instead of
//    hanging on the readahead window;
//  - degenerate inputs (zero-length files, retired-chunk reopens) behave
//    exactly like in-memory bytes.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <poll.h>
#include <sys/inotify.h>
#endif

#include "core/engine.h"
#include "model/file_chunk_source.h"
#include "model/stream_io.h"
#include "test_util.h"
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

/// \brief A timestamp-ordered CSV stream of at least `target_bytes`.
std::string SyntheticCsv(std::size_t target_bytes) {
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
}

// ---------------------------------------------------------------------------
// The split rule, frozen
// ---------------------------------------------------------------------------

struct FrozenChunk {
  std::size_t elements;
  std::uint64_t fingerprint;  ///< of the chunk's elements as CSV lines
};

/// \brief Drains chunk `c` of `source`, rendering its elements as CSV
/// lines (names, not ids, so the rendering is vocabulary-independent).
std::string ChunkText(const FileChunkSource& source, std::size_t c,
                      const Vocabulary& vocab, std::size_t* elements) {
  auto cursor = source.OpenChunk(c);
  const InputStream elems = Drain(cursor.get());
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  std::string text;
  for (const Sge& sge : elems) AppendCsvLine(sge, vocab, &text);
  *elements = elems.size();
  return text;
}

void ExpectFrozenSplit(const FileChunkSource& source, const Vocabulary& vocab,
                       const std::vector<FrozenChunk>& frozen,
                       const std::string& what) {
  ASSERT_EQ(source.NumChunks(), frozen.size()) << what;
  for (std::size_t c = 0; c < frozen.size(); ++c) {
    std::size_t elements = 0;
    const std::string text = ChunkText(source, c, vocab, &elements);
    EXPECT_EQ(elements, frozen[c].elements) << what << " chunk " << c;
    EXPECT_EQ(testing_util::Fingerprint(text), frozen[c].fingerprint)
        << what << " chunk " << c;
  }
}

TEST(FileChunkSourceTest, SplitMatchesFrozenChunkTable) {
  // Recorded from the earlier in-memory chunkers (identical, at the time,
  // to the file source in both of its serving modes): the 4,000-edge
  // stream as CSV and SGQB at min_chunks 1 and 8, and a ~2 MiB CSV at
  // min_chunks 1, where the 256 KiB chunk-size rule sets the count.
  // Every origin must still split exactly so.
  const std::vector<FrozenChunk> whole = {{4000, 0xf91ea65eb6849568ull}};
  const std::vector<FrozenChunk> csv8 = {
      {535, 0x3c6c64f1d2ff8300ull}, {523, 0x8a1f270852e015c3ull},
      {491, 0x00e9149025f31a4aull}, {491, 0xf6aa18497579cb55ull},
      {490, 0x25a17c0458f2f422ull}, {490, 0x099f41efd5d9c8f2ull},
      {489, 0x84d8cf372010c300ull}, {491, 0x1ae1440dfa0a59c9ull}};
  const std::vector<FrozenChunk> bin8 = {
      {500, 0xfefcaf8746bb176full}, {500, 0x5e5c04dc179b3f41ull},
      {500, 0x1e3f6d05951ecd53ull}, {500, 0x5eda576349ed7d4aull},
      {500, 0xa0e5b3aeaea3107bull}, {500, 0x2ab9c9e809768060ull},
      {500, 0xc7f2696550eb97a8ull}, {500, 0x434be17609ae1c09ull}};
  const std::vector<FrozenChunk> big1 = {
      {15332, 0x61bd7fa68bf23351ull}, {14976, 0xf0c5c54970b288f8ull},
      {14976, 0xe4129917a92080deull}, {14357, 0x71885ea65d832b34ull},
      {14071, 0x22db1f9bb689b7c8ull}, {14070, 0xf021f77512b0c8deull},
      {14070, 0xaef6e8786a131e57ull}, {14070, 0xb8396d6fb54e81a3ull},
      {14070, 0x4d03e7b32ce8270full}};

  Vocabulary vocab;
  const InputStream stream = TestStream(&vocab);
  const std::string csv = FormatStreamCsv(stream, vocab);
  auto binary = FormatStreamBinary(stream, vocab);
  ASSERT_TRUE(binary.ok());
  const std::string big = SyntheticCsv(2u << 20);
  ASSERT_EQ(big.size(), 2097164u);

  struct Case {
    const char* name;
    const std::string* bytes;
    std::size_t min_chunks;
    const std::vector<FrozenChunk>* frozen;
  };
  const Case cases[] = {{"csv/1", &csv, 1, &whole},
                        {"csv/8", &csv, 8, &csv8},
                        {"sgqb/1", &*binary, 1, &whole},
                        {"sgqb/8", &*binary, 8, &bin8},
                        {"big/1", &big, 1, &big1}};
  for (const Case& c : cases) {
    auto resident =
        MakeChunkedStream(*c.bytes, std::nullopt, &vocab, false, c.min_chunks);
    ASSERT_TRUE(resident.ok()) << resident.status().ToString();
    ExpectFrozenSplit(**resident, vocab, *c.frozen,
                      std::string("resident ") + c.name);

    const std::string path = WriteTemp("frozen_split", *c.bytes);
    FileChunkOptions fco;
    fco.min_chunks = c.min_chunks;
    fco.readahead_chunks = 2;
    auto pread = MakeFileChunkSource(path, std::nullopt, &vocab, fco);
    ASSERT_TRUE(pread.ok()) << pread.status().ToString();
    ExpectFrozenSplit(**pread, vocab, *c.frozen,
                      std::string("pread ") + c.name);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Chunk-view parity between the byte origins
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
    FileChunkOptions fco;
    fco.min_chunks = 8;
    auto source = MakeFileChunkSource(path, format, &vocab, fco);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    EXPECT_EQ((*source)->file_size(), bytes.size());
    ASSERT_EQ((*source)->NumChunks(), (*reference)->NumChunks());
    // Sequential open/drain/close respects the readahead window and
    // compares every chunk's element sequence against the same chunk of
    // the resident source.
    for (std::size_t c = 0; c < (*source)->NumChunks(); ++c) {
      auto got = (*source)->OpenChunk(c);
      auto want = (*reference)->OpenChunk(c);
      const InputStream got_elems = Drain(got.get());
      const InputStream want_elems = Drain(want.get());
      ASSERT_TRUE(got->status().ok())
          << "chunk " << c << ": " << got->status().ToString();
      ASSERT_TRUE(want->status().ok());
      ExpectSameElements(got_elems, want_elems,
                         use_binary ? "binary" : "csv");
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
  FileChunkOptions fco;
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
  // ...then reopen a retired middle chunk: its bytes are read again.
  auto again = (*source)->OpenChunk(2);
  auto want = (*reference)->OpenChunk(2);
  ExpectSameElements(Drain(again.get()), Drain(want.get()), "reopened");
  ASSERT_TRUE(again->status().ok()) << again->status().ToString();
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

  Vocabulary vocab;
  FileChunkOptions fco;
  fco.min_chunks = 8;
  auto source = MakeFileChunkSource(path, StreamFormat::kCsv, &vocab, fco);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ChunkWalkCursor got(**source, false);
  Drain(&got);
  ASSERT_FALSE(got.status().ok());
  EXPECT_EQ(got.status().message(), want.status().message());
  std::remove(path.c_str());
}

TEST(FileChunkSourceTest, BinaryHeaderErrorsMatchMaterializedPath) {
  const std::string bad = "SGQX not a real header";
  const std::string path = WriteTemp("bad_header.sgqb", bad);
  Vocabulary vocab;
  auto reference =
      MakeChunkedStream(bad, StreamFormat::kBinary, &vocab, false, 1);
  ASSERT_FALSE(reference.ok());
  auto source = MakeFileChunkSource(path, StreamFormat::kBinary, &vocab);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().message(), reference.status().message());
  std::remove(path.c_str());
}

TEST(FileChunkSourceTest, ZeroLengthFileMatchesMaterializedPath) {
  const std::string path = WriteTemp("empty_stream.csv", "");
  Vocabulary vocab;
  // CSV: zero elements, clean end.
  auto source = MakeFileChunkSource(path, StreamFormat::kCsv, &vocab);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ChunkWalkCursor cursor(**source, false);
  EXPECT_TRUE(Drain(&cursor).empty());
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  // Binary: same header error as parsing empty bytes.
  const std::string empty;
  auto ref = MakeChunkedStream(empty, StreamFormat::kBinary, &vocab, false, 1);
  ASSERT_FALSE(ref.ok());
  auto bin = MakeFileChunkSource(path, StreamFormat::kBinary, &vocab);
  ASSERT_FALSE(bin.ok());
  EXPECT_EQ(bin.status().message(), ref.status().message());
  std::remove(path.c_str());
}

TEST(FileChunkSourceTest, MissingFileAndDirectoryErrors) {
  Vocabulary vocab;
  for (const std::optional<StreamFormat> format :
       {std::optional<StreamFormat>(), std::optional(StreamFormat::kCsv)}) {
    auto missing = MakeFileChunkSource(::testing::TempDir() + "/nope.csv",
                                       format, &vocab);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    auto dir = MakeFileChunkSource(::testing::TempDir(), format, &vocab);
    ASSERT_FALSE(dir.ok());
    EXPECT_NE(dir.status().message().find("is a directory"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Format detection from the bytes the source reads
// ---------------------------------------------------------------------------

TEST(FileChunkSourceTest, DetectsFormatFromTheFirstBytesRead) {
  Vocabulary vocab;
  const InputStream stream = TestStream(&vocab);
  auto binary = FormatStreamBinary(stream, vocab);
  ASSERT_TRUE(binary.ok());
  const std::string csv_path =
      WriteTemp("detect.csv", FormatStreamCsv(stream, vocab));
  const std::string bin_path = WriteTemp("detect.sgqb", *binary);
  const std::string empty_path = WriteTemp("detect_empty", "");
  const std::string short_path = WriteTemp("detect_short", "SGQ");

  auto csv_source = MakeFileChunkSource(csv_path, std::nullopt, &vocab);
  auto bin_source = MakeFileChunkSource(bin_path, std::nullopt, &vocab);
  ASSERT_TRUE(csv_source.ok()) << csv_source.status().ToString();
  ASSERT_TRUE(bin_source.ok()) << bin_source.status().ToString();
  EXPECT_EQ((*csv_source)->format(), StreamFormat::kCsv);
  EXPECT_EQ((*bin_source)->format(), StreamFormat::kBinary);
  ChunkWalkCursor bin_walk(**bin_source, false);
  ExpectSameElements(Drain(&bin_walk), stream, "detected binary");

  // No bytes, or fewer than the magic: CSV.
  auto empty = MakeFileChunkSource(empty_path, std::nullopt, &vocab);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ((*empty)->format(), StreamFormat::kCsv);
  auto shorter = MakeFileChunkSource(short_path, std::nullopt, &vocab);
  ASSERT_TRUE(shorter.ok()) << shorter.status().ToString();
  EXPECT_EQ((*shorter)->format(), StreamFormat::kCsv);

  // An explicit format overrides detection: a CSV whose first vertex
  // name starts with the magic bytes reads as SGQB unless told otherwise.
  const std::string magic_csv = "SGQBx,a,v,1\nv,a,w,2\n";
  const std::string magic_path = WriteTemp("detect_magic.csv", magic_csv);
  EXPECT_FALSE(MakeFileChunkSource(magic_path, std::nullopt, &vocab).ok());
  auto forced = MakeFileChunkSource(magic_path, StreamFormat::kCsv, &vocab);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  ChunkWalkCursor forced_walk(**forced, false);
  EXPECT_EQ(Drain(&forced_walk).size(), 2u);
  EXPECT_TRUE(forced_walk.status().ok()) << forced_walk.status().ToString();

  for (const std::string* path :
       {&csv_path, &bin_path, &empty_path, &short_path, &magic_path}) {
    std::remove(path->c_str());
  }
}

#if !defined(_WIN32)
TEST(FileChunkSourceTest, FifoInputMatchesInMemorySource) {
  // A pipe yields its bytes once: the source must detect the format from
  // the bytes it keeps, not from a separate read.
  Vocabulary vocab;
  const InputStream stream = TestStream(&vocab);
  const std::string csv = FormatStreamCsv(stream, vocab);
  auto binary = FormatStreamBinary(stream, vocab);
  ASSERT_TRUE(binary.ok());
  const std::string fifo = ::testing::TempDir() + "/chunk_source.fifo";
  for (const bool use_binary : {false, true}) {
    const std::string& bytes = use_binary ? *binary : csv;
    std::remove(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    std::thread writer([&] {
      const int fd = ::open(fifo.c_str(), O_WRONLY);
      ASSERT_GE(fd, 0);
      std::size_t off = 0;
      while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
      }
      ::close(fd);
    });
    FileChunkOptions fco;
    fco.min_chunks = 8;
    auto source = MakeFileChunkSource(fifo, std::nullopt, &vocab, fco);
    writer.join();
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    EXPECT_EQ((*source)->format(),
              use_binary ? StreamFormat::kBinary : StreamFormat::kCsv);
    auto reference = MakeChunkedStream(bytes, std::nullopt, &vocab, false, 8);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ((*source)->NumChunks(), (*reference)->NumChunks());
    ChunkWalkCursor got(**source, false);
    ChunkWalkCursor want(**reference, false);
    ExpectSameElements(Drain(&got), Drain(&want),
                       use_binary ? "fifo binary" : "fifo csv");
    EXPECT_TRUE(got.status().ok()) << got.status().ToString();
  }
  std::remove(fifo.c_str());
}

TEST(FileChunkSourceTest, FileTruncatedMidRunEndsInPositionedReadError) {
  // The file shrinks under a running source: the next chunk read comes up
  // short, and the walk ends in a read error that names the file and the
  // offset — never a crash.
  const std::string csv = SyntheticCsv(2u << 20);
  const std::string path = WriteTemp("truncated.csv", csv);
  Vocabulary vocab;
  FileChunkOptions fco;
  fco.readahead_chunks = 2;
  auto source = MakeFileChunkSource(path, std::nullopt, &vocab, fco);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_GE((*source)->NumChunks(), 3u);
  const std::uint64_t third = csv.size() / 3;
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(third)), 0);
  ChunkWalkCursor walk(**source, false);
  const InputStream read = Drain(&walk);
  ASSERT_FALSE(walk.status().ok());
  EXPECT_NE(walk.status().message().find("read error on stream file: " +
                                         path + " at offset " +
                                         std::to_string(third) +
                                         ": unexpected end of file"),
            std::string::npos)
      << walk.status().ToString();
  EXPECT_FALSE(read.empty());
  EXPECT_LT(read.size(), csv.size() / 20);  // fewer than every line
  std::remove(path.c_str());
}
#endif

#if defined(__linux__)
TEST(FileIngestDifferentialTest, FileRunReportsMidRunTruncation) {
  // The same failure through the harness: a helper thread truncates the
  // file to a third as soon as the source first reads it (inotify), long
  // before the run's walk gets there, and Run must return the positioned
  // read error rather than a short, successful run.
  const std::string csv = SyntheticCsv(8u << 20);
  const std::string path = WriteTemp("truncated_run.csv", csv);
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const int watch = ::inotify_init1(IN_CLOEXEC);
  ASSERT_GE(watch, 0);
  ASSERT_GE(::inotify_add_watch(watch, path.c_str(), IN_ACCESS), 0);
  std::thread truncator([&] {
    // A bounded wait: a filesystem that never reports the read fails the
    // test instead of hanging the binary on join().
    pollfd ready{watch, POLLIN, 0};
    int n = 0;
    do {
      n = ::poll(&ready, 1, /*timeout ms=*/10000);
    } while (n < 0 && errno == EINTR);
    if (n != 1) {
      ADD_FAILURE() << "no IN_ACCESS event on " << path;
      return;
    }
    alignas(inotify_event) char event[sizeof(inotify_event) + 256];
    EXPECT_GT(::read(watch, event, sizeof(event)), 0);
    EXPECT_EQ(::truncate(path.c_str(), static_cast<off_t>(csv.size() / 3)),
              0);
  });
  auto run = sgq::Run(RunSource::File(path), {*query}, &vocab, RunOptions(),
                      "truncated");
  truncator.join();
  ::close(watch);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("read error on stream file: " +
                                        path + " at offset "),
            std::string::npos)
      << run.status().ToString();
  std::remove(path.c_str());
}
#endif

// ---------------------------------------------------------------------------
// Engine differential: file source vs in-memory source
// ---------------------------------------------------------------------------

std::vector<Sgt> RunShardedOver(const StreamingGraphQuery& query,
                                Vocabulary* vocab,
                                const FileChunkSource& chunks,
                                EngineOptions options) {
  Engine engine(options);
  const bool compiled =
      engine.AddQuery(query, *vocab).ok() && engine.Finalize().ok();
  EXPECT_TRUE(compiled);
  if (!compiled) return {};
  Status run = engine.RunPipelined(chunks);
  EXPECT_TRUE(run.ok()) << run.ToString();
  return engine.results(0);
}

TEST(FileIngestDifferentialTest, ResultsIdenticalToInMemorySource) {
  // The hard contract: same chunk boundaries, same merge order, so the
  // result stream through RunPipelined is *identical* (order
  // included) between a file and the same bytes in memory, for every
  // format × parsers cell. (The vocabulary is pre-populated by the
  // generator, so concurrent CSV interning resolves fixed ids.)
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
      FileChunkOptions fco;
      fco.min_chunks = min_chunks;
      fco.readahead_chunks = parsers + 1;
      auto source = MakeFileChunkSource(path, format, &vocab, fco);
      ASSERT_TRUE(source.ok()) << source.status().ToString();
      const std::vector<Sgt> actual =
          RunShardedOver(*query, &vocab, **source, options);
      ASSERT_EQ(actual.size(), expected.size())
          << "format=" << (use_binary ? "binary" : "csv")
          << " parsers=" << parsers;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_TRUE(actual[i] == expected[i])
            << "format=" << (use_binary ? "binary" : "csv")
            << " parsers=" << parsers << " position " << i;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(FileIngestDifferentialTest, FileRunMatchesBytesRun) {
  // Harness-level parity in every parse placement: sync inline parse,
  // async single producer, async sharded.
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
      RunOptions options;
      options.engine.batch_size = 16;
      options.engine.ingest_parsers = p.parsers;
      options.async_ingest = p.async;
      auto text = sgq::Run(RunSource::Bytes(use_binary ? *binary : csv),
                           {*query}, &vocab, options, "text");
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      auto file = sgq::Run(RunSource::File(use_binary ? bin_path : csv_path),
                           {*query}, &vocab, options, "file");
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      EXPECT_EQ(file->totals.results_emitted, text->totals.results_emitted)
          << "format=" << (use_binary ? "binary" : "csv")
          << " async=" << p.async << " parsers=" << p.parsers;
      EXPECT_EQ(file->totals.edges_processed, text->totals.edges_processed);
    }
  }
  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(FileIngestDifferentialTest, SlackRunsAgreeAcrossSourcesAndPlacements) {
  // ingest_slack on every chunk source: the synchronous chunk
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
        RunOptions options;
        options.engine.ingest_slack = 4;
        options.async_ingest = async;
        auto m = sgq::Run(
            from_file ? RunSource::File(path) : RunSource::Bytes(csv),
            {*query}, &vocab, options, from_file ? "file" : "text");
        ASSERT_TRUE(m.ok()) << m.status().ToString() << " file=" << from_file
                            << " async=" << async;
        runs.push_back({m->totals.results_emitted, m->totals.edges_processed});
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
  // window the source's high-water resident payload must not scale with
  // the file (the whole point of the pread window). In-memory bytes, by
  // contrast, are resident whole.
  const std::string small_csv = SyntheticCsv(2u << 20);  // ~2 MiB: 9 chunks
  const std::string large_csv = SyntheticCsv(8u << 20);  // ~8 MiB: 33 chunks
  const std::string small_path = WriteTemp("rss_small.csv", small_csv);
  const std::string large_path = WriteTemp("rss_large.csv", large_csv);

  std::uint64_t peak[2] = {0, 0};
  int idx = 0;
  for (const std::string* path : {&small_path, &large_path}) {
    Vocabulary vocab;
    FileChunkOptions fco;
    fco.readahead_chunks = 4;
    auto source = MakeFileChunkSource(*path, StreamFormat::kCsv, &vocab, fco);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ASSERT_GE((*source)->NumChunks(), 8u);
    // Walk twice, as stream_convert does: the second walk reopens every
    // retired chunk into a buffer from the pool the first walk left, so
    // the held bytes (pooled buffers included) do not grow.
    std::uint64_t first_walk = 0;
    for (int pass = 0; pass < 2; ++pass) {
      ChunkWalkCursor cursor(**source, false);
      EXPECT_FALSE(Drain(&cursor).empty());
      ASSERT_TRUE(cursor.status().ok()) << cursor.status().ToString();
      if (pass == 0) first_walk = (*source)->peak_resident_bytes();
    }
    peak[idx] = (*source)->peak_resident_bytes();
    EXPECT_EQ(peak[idx], first_walk)
        << "the second walk grew the held bytes of " << *path;
    ++idx;
  }
  // The window is 4 chunks of ~256 KiB: both peaks sit near ~1 MiB.
  // Identical boundaries modulo newline slack, so "independent of file
  // size" is a tight relation, not a loose threshold.
  EXPECT_GT(peak[0], 0u);
  EXPECT_LE(peak[1], peak[0] + peak[0] / 4)
      << "peak grew with file size (" << peak[0] << " -> " << peak[1]
      << ")";
  // And absolutely bounded far below the large file itself.
  EXPECT_LT(peak[1], large_csv.size() / 4);
  std::remove(small_path.c_str());
  std::remove(large_path.c_str());
}

TEST(FileIngestAbortTest, EarlyParseErrorTerminatesShardedRun) {
  // A malformed record in the first chunk while 4 parsers contend for a
  // tight window: the merge's abort must wake any parser blocked in
  // OpenChunk (FileChunkSource::Abort) or this test hangs.
  std::string csv = "u0,a,v0,not-a-timestamp\n";  // line 1: poison
  for (int i = 0; i < 20000; ++i) {
    csv += "u" + std::to_string(i % 50) + ",a,v" + std::to_string(i % 50) +
           "," + std::to_string(i / 100) + "\n";
  }
  const std::string path = WriteTemp("abort.csv", csv);
  Vocabulary vocab;
  auto query = MakeQuery("Answer(x,y) <- a(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  EngineOptions options;
  options.ingest_parsers = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  FileChunkOptions fco;
  fco.min_chunks = 8;
  fco.readahead_chunks = 2;
  auto source = MakeFileChunkSource(path, StreamFormat::kCsv, &vocab, fco);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  Status run = engine.RunPipelined(**source);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.message().find("line 1"), std::string::npos)
      << run.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgq
