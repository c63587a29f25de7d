// Hardened stream parsing: malformed or out-of-order lines surface a
// Status error naming the offending line instead of silently producing
// garbage. The SGQB binary format gets the same treatment with byte
// offsets in place of line numbers, plus exact round-trip guarantees and
// chunked-view coverage for the sharded parse stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "model/file_chunk_source.h"
#include "model/stream_io.h"

namespace sgq {
namespace {

/// \brief Drains a cursor into an InputStream; asserts the cursor ends ok.
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

void ExpectSameElements(const InputStream& a, const InputStream& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src) << i;
    EXPECT_EQ(a[i].trg, b[i].trg) << i;
    EXPECT_EQ(a[i].label, b[i].label) << i;
    EXPECT_EQ(a[i].t, b[i].t) << i;
    EXPECT_EQ(a[i].is_deletion, b[i].is_deletion) << i;
  }
}

TEST(ParseInt64Test, StrictFullFieldMatch) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-17", &v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(ParseInt64("+5", &v));
  EXPECT_EQ(v, 5);
  EXPECT_TRUE(ParseInt64("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);

  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("-", &v));
  EXPECT_FALSE(ParseInt64("+", &v));
  EXPECT_FALSE(ParseInt64("12abc", &v));   // trailing garbage
  EXPECT_FALSE(ParseInt64("abc12", &v));
  EXPECT_FALSE(ParseInt64("1 2", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));   // overflow
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));  // underflow
}

TEST(StreamIoTest, ParsesWellFormedStream) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("# header\nu,a,v,1\n v , b , w , 2 \nu,a,v,3,-\n",
                          &vocab);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 3u);
  EXPECT_FALSE((*r)[0].is_deletion);
  EXPECT_EQ((*r)[1].t, 2);
  EXPECT_TRUE((*r)[2].is_deletion);
}

TEST(StreamIoTest, TrailingGarbageTimestampErrorsWithLineNumber) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("u,a,v,1\nu,a,v,2x\n", &vocab);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("timestamp"), std::string::npos);
}

TEST(StreamIoTest, NegativeTimestampRejected) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("u,a,v,-4\n", &vocab);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(r.status().message().find("negative"), std::string::npos);
}

TEST(StreamIoTest, EmptyFieldRejected) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("u,,v,1\n", &vocab);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
  auto r2 = ParseStreamCsv("u,a,v,1\n,a,v,2\n", &vocab);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("line 2"), std::string::npos);
}

TEST(StreamIoTest, OutOfOrderNamesBothTimestamps) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("u,a,v,5\nu,a,v,3\n", &vocab);
  ASSERT_FALSE(r.ok());
  const std::string msg = r.status().message();
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3"), std::string::npos);
  EXPECT_NE(msg.find("5"), std::string::npos);
}

TEST(StreamIoTest, WrongFieldCountNamesLine) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("u,a,v\n", &vocab);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
  auto r2 = ParseStreamCsv("u,a,v,1,+,extra\n", &vocab);
  ASSERT_FALSE(r2.ok());
}

TEST(StreamIoTest, BadOpFieldNamesLine) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("u,a,v,1,x\n", &vocab);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(StreamIoTest, RoundTripsThroughFormat) {
  Vocabulary vocab;
  auto r = ParseStreamCsv("u,a,v,1\nv,b,w,2\nu,a,v,9,-\n", &vocab);
  ASSERT_TRUE(r.ok());
  const std::string csv = FormatStreamCsv(*r, vocab);
  Vocabulary vocab2;
  auto r2 = ParseStreamCsv(csv, &vocab2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->size(), r->size());
  for (std::size_t i = 0; i < r->size(); ++i) {
    EXPECT_EQ((*r2)[i].t, (*r)[i].t);
    EXPECT_EQ((*r2)[i].is_deletion, (*r)[i].is_deletion);
  }
}

// ---------------------------------------------------------------------------
// SGQB binary format
// ---------------------------------------------------------------------------

const char kSampleCsv[] =
    "u,follows,v,7\n"
    "v,posts,b,10\n"
    "y,follows,u,13\n"
    "u,posts,a,22,-\n"
    "u,likes,b,29\n";

TEST(BinaryStreamTest, DetectsFormatByMagic) {
  EXPECT_EQ(DetectStreamFormat("u,a,v,1\n"), StreamFormat::kCsv);
  EXPECT_EQ(DetectStreamFormat(""), StreamFormat::kCsv);
  EXPECT_EQ(DetectStreamFormat("SGQ"), StreamFormat::kCsv);  // too short
  EXPECT_EQ(DetectStreamFormat(std::string("SGQB\x01\x00\x00\x00", 8)),
            StreamFormat::kBinary);
}

TEST(BinaryStreamTest, CsvToBinaryToCsvIsByteIdentical) {
  Vocabulary vocab;
  auto parsed = ParseStreamCsv(kSampleCsv, &vocab);
  ASSERT_TRUE(parsed.ok());
  auto binary = FormatStreamBinary(*parsed, vocab);
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(DetectStreamFormat(*binary), StreamFormat::kBinary);

  // A *fresh* vocabulary decodes to the same ids: the dictionaries list
  // names in first-use order, exactly the order a CSV parse interns them.
  Vocabulary vocab2;
  auto decoded = ParseStreamBinary(*binary, &vocab2);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameElements(*decoded, *parsed);
  EXPECT_EQ(FormatStreamCsv(*decoded, vocab2), kSampleCsv);

  // And re-encoding reproduces the same bytes.
  auto binary2 = FormatStreamBinary(*decoded, vocab2);
  ASSERT_TRUE(binary2.ok());
  EXPECT_EQ(*binary2, *binary);
}

TEST(BinaryStreamTest, RejectsBadMagicAndUnknownVersion) {
  Vocabulary vocab;
  auto bad_magic = ParseStreamBinary("SGQX\x01\x00\x00\x00 payload", &vocab);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_NE(bad_magic.status().message().find("magic"), std::string::npos)
      << bad_magic.status().ToString();

  auto parsed = ParseStreamCsv(kSampleCsv, &vocab);
  ASSERT_TRUE(parsed.ok());
  auto binary = FormatStreamBinary(*parsed, vocab);
  ASSERT_TRUE(binary.ok());
  std::string future = *binary;
  future[4] = 2;  // version field
  Vocabulary vocab2;
  auto r = ParseStreamBinary(future, &vocab2);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version 2"), std::string::npos)
      << r.status().ToString();
}

TEST(BinaryStreamTest, RejectsTruncationAtEveryRegion) {
  Vocabulary vocab;
  auto parsed = ParseStreamCsv(kSampleCsv, &vocab);
  ASSERT_TRUE(parsed.ok());
  auto binary = FormatStreamBinary(*parsed, vocab);
  ASSERT_TRUE(binary.ok());

  // Fixed header cut short.
  Vocabulary v1;
  auto r1 = ParseStreamBinary(binary->substr(0, 10), &v1);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("truncated header"),
            std::string::npos);

  // Mid-dictionary cut: still a header error.
  Vocabulary v2;
  auto r2 = ParseStreamBinary(binary->substr(0, 30), &v2);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("truncated header"),
            std::string::npos);

  // Record region short of the promised count.
  Vocabulary v3;
  auto r3 = ParseStreamBinary(binary->substr(0, binary->size() - 5), &v3);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("truncated records"),
            std::string::npos)
      << r3.status().ToString();

  // Trailing garbage after the promised records.
  Vocabulary v4;
  auto r4 = ParseStreamBinary(*binary + std::string(24, '\0'), &v4);
  ASSERT_FALSE(r4.ok());
  EXPECT_NE(r4.status().message().find("trailing garbage"),
            std::string::npos)
      << r4.status().ToString();
}

TEST(BinaryStreamTest, RecordErrorsNameTheAbsoluteByteOffset) {
  Vocabulary vocab;
  auto parsed = ParseStreamCsv(kSampleCsv, &vocab);
  ASSERT_TRUE(parsed.ok());
  auto binary = FormatStreamBinary(*parsed, vocab);
  ASSERT_TRUE(binary.ok());
  Vocabulary header_vocab;
  auto header = ParseBinaryStreamHeader(*binary, &header_vocab);
  ASSERT_TRUE(header.ok());

  // Corrupt record 2's op byte (offset 20 within the record).
  const std::size_t bad_offset =
      header->records_offset + 2 * kBinaryRecordBytes;
  std::string corrupt = *binary;
  corrupt[bad_offset + 20] = 7;
  Vocabulary v1;
  auto r1 = ParseStreamBinary(corrupt, &v1);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("offset " +
                                       std::to_string(bad_offset)),
            std::string::npos)
      << r1.status().ToString();
  EXPECT_NE(r1.status().message().find("op byte"), std::string::npos);

  // Out-of-range dictionary index in record 1.
  std::string bad_index = *binary;
  const std::size_t rec1 = header->records_offset + kBinaryRecordBytes;
  bad_index[rec1 + 16] = '\xee';  // label index low byte
  Vocabulary v2;
  auto r2 = ParseStreamBinary(bad_index, &v2);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(
      r2.status().message().find("offset " + std::to_string(rec1)),
      std::string::npos)
      << r2.status().ToString();
  EXPECT_NE(r2.status().message().find("label index"), std::string::npos);
}

TEST(BinaryStreamTest, OutOfOrderRecordsRejectedUnlessDisorderAllowed) {
  // Hand-build a disordered stream (FormatStreamBinary encodes whatever
  // it is given; ordering is a read-side contract, as with CSV).
  Vocabulary vocab;
  auto ordered = ParseStreamCsv("u,a,v,5\nu,a,w,3\n", &vocab);
  // The CSV parser enforces ordering, so build the stream directly.
  ASSERT_FALSE(ordered.ok());
  auto first = ParseStreamCsv("u,a,v,5\n", &vocab);
  ASSERT_TRUE(first.ok());
  auto second = ParseStreamCsv("u,a,w,3\n", &vocab);
  ASSERT_TRUE(second.ok());
  InputStream disordered = *first;
  disordered.push_back((*second)[0]);
  auto binary = FormatStreamBinary(disordered, vocab);
  ASSERT_TRUE(binary.ok());

  Vocabulary v1;
  auto strict = ParseStreamBinary(*binary, &v1);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("non-decreasing"),
            std::string::npos)
      << strict.status().ToString();

  Vocabulary v2;
  BinaryStreamCursor lenient(*binary, &v2, /*allow_disorder=*/true);
  const InputStream drained = Drain(&lenient);
  EXPECT_TRUE(lenient.ok()) << lenient.status().ToString();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[1].t, 3);
}

TEST(BinaryStreamTest, CursorMatchesWholeParseAcrossChunkSizes) {
  Vocabulary vocab;
  auto parsed = ParseStreamCsv(kSampleCsv, &vocab);
  ASSERT_TRUE(parsed.ok());
  auto binary = FormatStreamBinary(*parsed, vocab);
  ASSERT_TRUE(binary.ok());
  for (std::size_t cap : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
    Vocabulary v;
    BinaryStreamCursor cursor(*binary, &v);
    InputStream out;
    std::vector<Sge> buffer(cap);
    for (;;) {
      const std::size_t n = cursor.Next(buffer.data(), cap);
      if (n == 0) break;
      out.insert(out.end(), buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(n));
    }
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    ExpectSameElements(out, *parsed);
  }
}

// ---------------------------------------------------------------------------
// Chunked views (sharded parse input)
// ---------------------------------------------------------------------------

/// \brief Concatenates every chunk of a ChunkedStream in order; asserts
/// each chunk cursor ends ok.
InputStream DrainChunks(const ChunkedStream& chunked) {
  InputStream out;
  for (std::size_t c = 0; c < chunked.NumChunks(); ++c) {
    auto cursor = chunked.OpenChunk(c);
    InputStream part = Drain(cursor.get());
    EXPECT_TRUE(cursor->ok()) << "chunk " << c << ": "
                              << cursor->status().ToString();
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::string RepeatedCsv(std::size_t lines) {
  std::string text;
  for (std::size_t i = 0; i < lines; ++i) {
    text += "v" + std::to_string(i % 17) + ",edge,w" +
            std::to_string(i % 13) + "," + std::to_string(i / 2) + "\n";
  }
  return text;
}

TEST(ChunkedStreamTest, CsvChunksConcatenateToTheSequentialParse) {
  const std::string text = RepeatedCsv(200);
  Vocabulary reference_vocab;
  auto reference = ParseStreamCsv(text, &reference_vocab);
  ASSERT_TRUE(reference.ok());

  Vocabulary vocab;
  auto chunked = MakeChunkedStream(text, StreamFormat::kCsv, &vocab,
                                   /*allow_disorder=*/false,
                                   /*min_chunks=*/5);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  EXPECT_GE((*chunked)->NumChunks(), 5u);
  ExpectSameElements(DrainChunks(**chunked), *reference);
}

TEST(ChunkedStreamTest, CsvChunkErrorsKeepGlobalLineNumbers) {
  std::string text = RepeatedCsv(200);
  // Break line 150 (1-based): replace its timestamp field with garbage.
  std::size_t pos = 0;
  for (int i = 0; i < 149; ++i) pos = text.find('\n', pos) + 1;
  const std::size_t eol = text.find('\n', pos);
  text.replace(pos, eol - pos, "v0,edge,w0,notatime");

  Vocabulary vocab;
  auto chunked = MakeChunkedStream(text, StreamFormat::kCsv, &vocab,
                                   /*allow_disorder=*/false,
                                   /*min_chunks=*/6);
  ASSERT_TRUE(chunked.ok());
  bool saw_error = false;
  for (std::size_t c = 0; c < (*chunked)->NumChunks(); ++c) {
    auto cursor = (*chunked)->OpenChunk(c);
    Drain(cursor.get());
    if (!cursor->ok()) {
      saw_error = true;
      EXPECT_NE(cursor->status().message().find("line 150"),
                std::string::npos)
          << cursor->status().ToString();
    }
  }
  EXPECT_TRUE(saw_error);
}

TEST(ChunkedStreamTest, BinaryChunksConcatenateToTheSequentialParse) {
  const std::string text = RepeatedCsv(200);
  Vocabulary vocab;
  auto parsed = ParseStreamCsv(text, &vocab);
  ASSERT_TRUE(parsed.ok());
  auto binary = FormatStreamBinary(*parsed, vocab);
  ASSERT_TRUE(binary.ok());

  Vocabulary fresh;
  auto chunked = MakeChunkedStream(*binary, StreamFormat::kBinary, &fresh,
                                   /*allow_disorder=*/false,
                                   /*min_chunks=*/4);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  EXPECT_GE((*chunked)->NumChunks(), 4u);
  EXPECT_EQ((*chunked)->format(), StreamFormat::kBinary);
  ExpectSameElements(DrainChunks(**chunked), *parsed);
}

TEST(ChunkedStreamTest, BinaryHeaderErrorsSurfaceAtConstruction) {
  Vocabulary vocab;
  auto chunked = MakeChunkedStream("SGQX garbage", StreamFormat::kBinary,
                                   &vocab, false, 2);
  EXPECT_FALSE(chunked.ok());
}

// ---------------------------------------------------------------------------
// Buffered file I/O
// ---------------------------------------------------------------------------

TEST(StreamFileTest, ReadWriteRoundTripsBinaryBytes) {
  const std::string path =
      ::testing::TempDir() + "/stream_io_test_bytes.bin";
  std::string payload = "SGQB";
  payload.push_back('\0');
  payload += std::string(kStreamIoBufferBytes + 17, 'x');  // spans buffers
  payload.push_back('\0');
  ASSERT_TRUE(WriteFileBytes(path, payload).ok());
  auto back = ReadFileBytes(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, payload);
  std::remove(path.c_str());

  EXPECT_FALSE(ReadFileBytes(path + ".does-not-exist").ok());
}

TEST(StreamFileTest, MissingFileErrorCarriesErrnoText) {
  const std::string path = ::testing::TempDir() + "/no_such_stream.csv";
  auto r = ReadFileBytes(path);
  ASSERT_FALSE(r.ok());
  // The message names the path and the strerror(ENOENT) text, so a user
  // staring at a failed ingest knows *which* file and *why*.
  EXPECT_NE(r.status().message().find(path), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("No such file"), std::string::npos)
      << r.status().ToString();
}

TEST(StreamFileTest, DirectoryInsteadOfFileIsInvalidArgument) {
  auto r = ReadFileBytes(::testing::TempDir());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("is a directory"), std::string::npos)
      << r.status().ToString();
}

TEST(StreamFileTest, ZeroLengthRoundTrip) {
  const std::string path = ::testing::TempDir() + "/stream_io_empty.bin";
  ASSERT_TRUE(WriteFileBytes(path, "").ok());
  auto back = ReadFileBytes(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->empty());
  std::remove(path.c_str());
}

TEST(StreamFileTest, FileByteSinkSpansBufferFlushes) {
  const std::string path = ::testing::TempDir() + "/stream_io_sink.bin";
  std::string payload;
  for (int i = 0; i < 7; ++i) {
    payload += std::string(kStreamIoBufferBytes / 2 + 11,
                           static_cast<char>('a' + i));
  }
  {
    FileByteSink sink(path);
    // Appends deliberately straddle the staging-buffer boundary.
    std::string_view rest = payload;
    while (!rest.empty()) {
      const std::size_t n = std::min<std::size_t>(rest.size(), 1000);
      ASSERT_TRUE(sink.Append(rest.substr(0, n)).ok());
      rest.remove_prefix(n);
    }
    EXPECT_EQ(sink.bytes_written(), payload.size());
    ASSERT_TRUE(sink.Close().ok()) << sink.status().ToString();
  }
  auto back = ReadFileBytes(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, payload);
  std::remove(path.c_str());
}

TEST(StreamFileTest, FileByteSinkOpenFailureSticks) {
  FileByteSink sink(::testing::TempDir() + "/no/such/dir/out.bin");
  EXPECT_FALSE(sink.Append("x").ok());
  EXPECT_FALSE(sink.Close().ok());
  EXPECT_FALSE(sink.status().ok());
}

TEST(StreamFileTest, ReadStreamFileAutoDetectsFormat) {
  Vocabulary vocab;
  auto parsed = ParseStreamCsv(kSampleCsv, &vocab);
  ASSERT_TRUE(parsed.ok());
  auto binary = FormatStreamBinary(*parsed, vocab);
  ASSERT_TRUE(binary.ok());

  const std::string csv_path = ::testing::TempDir() + "/stream_auto.csv";
  const std::string bin_path = ::testing::TempDir() + "/stream_auto.sgqb";
  ASSERT_TRUE(WriteFileBytes(csv_path, kSampleCsv).ok());
  ASSERT_TRUE(WriteFileBytes(bin_path, *binary).ok());

  Vocabulary v1, v2;
  auto from_csv = ReadStreamFile(csv_path, &v1);
  auto from_bin = ReadStreamFile(bin_path, &v2);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().ToString();
  ExpectSameElements(*from_bin, *from_csv);
  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
}

}  // namespace
}  // namespace sgq
