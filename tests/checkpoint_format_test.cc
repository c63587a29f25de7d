// SGQC checkpoint container (model/checkpoint.h, DESIGN.md §7): encoding
// round trips, and — the crash-consistency bar — fault injection. Every
// mutilation of a valid checkpoint (truncation at every byte, a flipped
// bit in any section, version skew, trailing garbage) must be rejected
// with a *positioned* error before any payload is handed out, and every
// write-side failure (ENOSPC, short write) must surface verbatim from
// the injected sink, backpatches included. The streamed image is pinned
// to a golden of the encoder that built it in memory. Also covers the
// durable-write protocol (temp file + fsync + atomic rename leaves the
// previous good file untouched) and the FileByteSink Flush/Sync/WriteAt
// hardening it rides on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "model/checkpoint.h"
#include "model/stream_io.h"
#include "test_util.h"

namespace sgq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

using Sections = std::vector<std::pair<std::string, std::string>>;

/// \brief Streams `sections` through a CheckpointWriter into `sink`, each
/// payload appended in pieces of `piece` bytes (0 = whole).
Status WriteImage(const Sections& sections, ByteSink* sink,
                  std::size_t piece = 0) {
  CheckpointWriter writer(sink);
  for (const auto& [name, payload] : sections) {
    SGQ_RETURN_NOT_OK(writer.BeginSection(name));
    const std::size_t step = piece == 0 ? payload.size() + 1 : piece;
    for (std::size_t at = 0; at < payload.size(); at += step) {
      SGQ_RETURN_NOT_OK(
          writer.Append(std::string_view(payload).substr(at, step)));
    }
    SGQ_RETURN_NOT_OK(writer.EndSection());
  }
  return writer.Finish();
}

std::string Image(const Sections& sections, std::size_t piece = 0) {
  StringByteSink sink;
  const Status st = WriteImage(sections, &sink, piece);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink.bytes();
}

/// \brief Three sections with non-trivial payloads (NULs, high bytes).
Sections SampleSections() {
  std::string clock;
  PutI64(&clock, -17);
  PutU64(&clock, 42);
  std::string ops(300, '\0');
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i] = static_cast<char>(i * 7);
  }
  return {{"clock", clock},
          {"ops", ops},
          {"engine", std::string("\xff\x00payload", 9)}};
}

/// \brief The image every fault-injection test mutates.
std::string SampleImage() { return Image(SampleSections()); }

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value: CRC32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, ChunkedMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = Crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = Crc32(data.substr(0, split));
    EXPECT_EQ(Crc32(data.substr(split), first), whole) << "split " << split;
  }
}

TEST(Crc32Test, CombineMatchesOneShot) {
  std::mt19937_64 rng(20221);
  for (int trial = 0; trial < 200; ++trial) {
    std::string data(rng() % 600, '\0');
    for (char& c : data) c = static_cast<char>(rng());
    const std::uint32_t whole = Crc32(data);
    // Random three-way splits; empty parts are drawn often on purpose.
    std::size_t a = data.empty() ? 0 : rng() % (data.size() + 1);
    std::size_t b = data.empty() ? 0 : rng() % (data.size() + 1);
    if (trial % 5 == 0) a = 0;
    if (trial % 7 == 0) b = data.size();
    if (a > b) std::swap(a, b);
    const std::string_view view(data);
    const std::string_view x = view.substr(0, a);
    const std::string_view y = view.substr(a, b - a);
    const std::string_view z = view.substr(b);
    const std::uint32_t xy = Crc32Combine(Crc32(x), Crc32(y), y.size());
    EXPECT_EQ(Crc32Combine(xy, Crc32(z), z.size()), whole)
        << "trial " << trial << " split " << a << "/" << b;
  }
  // Empty halves are identities; long tails exercise high shift bits.
  EXPECT_EQ(Crc32Combine(Crc32("abc"), Crc32(""), 0), Crc32("abc"));
  EXPECT_EQ(Crc32Combine(Crc32(""), Crc32("abc"), 3), Crc32("abc"));
  const std::string big(1 << 20, 'q');
  EXPECT_EQ(Crc32Combine(Crc32("head"), Crc32(big), big.size()),
            Crc32("head" + big));
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST(CheckpointFormatTest, EncodeParseRoundTrip) {
  const std::string image = SampleImage();
  auto reader = CheckpointReader::Parse(image, "test");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->version(), kCheckpointVersion);
  ASSERT_EQ(reader->sections().size(), 3u);
  EXPECT_EQ(reader->sections()[0].name, "clock");
  EXPECT_EQ(reader->sections()[1].name, "ops");
  EXPECT_EQ(reader->sections()[2].name, "engine");
  EXPECT_EQ(reader->payload(reader->sections()[2]),
            std::string_view("\xff\x00payload", 9));
  EXPECT_EQ(reader->Find("ops")->length, 300u);
  EXPECT_EQ(reader->Find("nope"), nullptr);

  auto clock = reader->Open("clock");
  ASSERT_TRUE(clock.ok());
  EXPECT_EQ(clock->I64(), -17);
  EXPECT_EQ(clock->U64(), 42u);
  EXPECT_TRUE(clock->ExpectEnd().ok());
  EXPECT_FALSE(reader->Open("nope").ok());
}

TEST(CheckpointFormatTest, EmptyImageParses) {
  auto reader = CheckpointReader::Parse(Image({}), "empty");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->sections().empty());
}

TEST(CheckpointFormatTest, EncodingIsDeterministic) {
  EXPECT_EQ(SampleImage(), SampleImage());
}

TEST(CheckpointFormatTest, StreamedImageMatchesPreStreamingEncoder) {
  // Golden frozen from the encoder that built the whole image in memory
  // before writing it: streaming with backpatched frames and a combined
  // file CRC must not change one byte. (Re-frozen for versions 3, 4, 5,
  // 6, 7 and 8: only the header version and the footer CRC moved.)
  const std::string image = SampleImage();
  EXPECT_EQ(image.size(), 401u);
  EXPECT_EQ(testing_util::Fingerprint(image), 0x5be36c02ef4e6e49ull);
  // How the payload is cut into Append calls is invisible in the bytes.
  for (std::size_t piece : {1, 2, 7, 64}) {
    EXPECT_EQ(Image(SampleSections(), piece), image) << "piece " << piece;
  }
  // Empty sections frame and checksum like any other.
  auto reader = CheckpointReader::Parse(
      Image({{"a", ""}, {"b", "x"}, {"c", ""}}), "empty-sections");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->sections().size(), 3u);
}

// ---------------------------------------------------------------------------
// Fault injection: every bad image rejected, always with a position
// ---------------------------------------------------------------------------

TEST(CheckpointFaultTest, TruncationAtEveryByteRejected) {
  const std::string image = SampleImage();
  for (std::size_t len = 0; len < image.size(); ++len) {
    auto reader = CheckpointReader::Parse(image.substr(0, len), "trunc");
    ASSERT_FALSE(reader.ok()) << "truncated to " << len << " bytes parsed";
    EXPECT_NE(reader.status().message().find("trunc"), std::string::npos)
        << reader.status().ToString();
  }
}

TEST(CheckpointFaultTest, SingleBitFlipAnywhereRejected) {
  const std::string image = SampleImage();
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string bad = image;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    auto reader = CheckpointReader::Parse(std::move(bad), "flip");
    EXPECT_FALSE(reader.ok()) << "bit flip at byte " << i << " parsed";
  }
}

TEST(CheckpointFaultTest, ErrorsCarryByteOffsets) {
  std::string bad = SampleImage();
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  auto reader = CheckpointReader::Parse(std::move(bad), "positioned");
  ASSERT_FALSE(reader.ok());
  // The message must localize the damage: context plus an offset.
  EXPECT_NE(reader.status().message().find("positioned"), std::string::npos)
      << reader.status().ToString();
  EXPECT_NE(reader.status().message().find("offset"), std::string::npos)
      << reader.status().ToString();
}

TEST(CheckpointFaultTest, VersionSkewRejected) {
  // Older (v7: "meta" still carried the async_ingest key) and newer
  // images alike.
  for (const std::uint32_t version :
       {kCheckpointVersion - 1, kCheckpointVersion + 1}) {
    std::string image = SampleImage();
    // Patch the version field (offset 4) and repair the whole-file CRC so
    // the *version check* does the rejecting, not the integrity check.
    image[4] = static_cast<char>(version);
    const std::uint32_t crc = Crc32(image.data(), image.size() - 4);
    for (int i = 0; i < 4; ++i) {
      image[image.size() - 4 + i] =
          static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    auto reader = CheckpointReader::Parse(std::move(image), "skew");
    ASSERT_FALSE(reader.ok()) << "version " << version;
    const std::string message = reader.status().message();
    EXPECT_NE(message.find("offset 4: unsupported checkpoint version " +
                           std::to_string(version)),
              std::string::npos)
        << reader.status().ToString();
  }
}

TEST(CheckpointFaultTest, TrailingGarbageRejected) {
  auto reader =
      CheckpointReader::Parse(SampleImage() + "extra", "trailing");
  EXPECT_FALSE(reader.ok());
}

TEST(CheckpointFaultTest, WrongMagicRejected) {
  std::string image = SampleImage();
  image[0] = 'X';
  EXPECT_FALSE(CheckpointReader::Parse(std::move(image), "magic").ok());
}

// ---------------------------------------------------------------------------
// ByteReader discipline
// ---------------------------------------------------------------------------

TEST(ByteReaderTest, StickyErrorAndPosition) {
  std::string payload;
  PutU32(&payload, 7);
  ByteReader in(payload, "sticky");
  EXPECT_EQ(in.U32(), 7u);
  EXPECT_EQ(in.U64(), 0u);  // past the end: zero, error sticks
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.U8(), 0u);  // still stuck
  EXPECT_NE(in.status().message().find("sticky"), std::string::npos);
}

TEST(ByteReaderTest, ExpectEndRejectsTrailingBytes) {
  std::string payload;
  PutU32(&payload, 1);
  PutU8(&payload, 2);
  ByteReader in(payload, "tail");
  EXPECT_EQ(in.U32(), 1u);
  EXPECT_FALSE(in.ExpectEnd().ok());
}

TEST(ByteReaderTest, VertexFieldsKeepTheU64Encoding) {
  // 32-bit ids in u64 fields: the sentinel is written as u64 max, and a
  // value past the largest id, 2^32 - 2, is refused at the field.
  std::string sentinel;
  PutVertex(&sentinel, kInvalidVertex);
  std::string u64_max;
  PutU64(&u64_max, ~std::uint64_t{0});
  EXPECT_EQ(sentinel, u64_max);

  std::string payload;
  PutVertex(&payload, 7);
  PutU64(&payload, ~std::uint64_t{0});
  PutU64(&payload, 0xFFFFFFFEull);
  ByteReader in(payload, "vertex");
  EXPECT_EQ(in.Vertex(), 7u);
  EXPECT_EQ(in.Vertex(), kInvalidVertex);
  EXPECT_EQ(in.Vertex(), 0xFFFFFFFEu);
  EXPECT_TRUE(in.ExpectEnd().ok()) << in.status().ToString();

  for (const std::uint64_t bad :
       {0xFFFFFFFFull, 0x100000000ull, 0xFFFFFFFFFFFFFFFEull}) {
    std::string image;
    PutU64(&image, 1);
    PutU64(&image, bad);
    ByteReader r(image, "vertex");
    EXPECT_EQ(r.Vertex(), 1u);
    r.Vertex();
    ASSERT_FALSE(r.ok()) << bad << " accepted";
    EXPECT_NE(r.status().message().find("vertex: offset 8: vertex id " +
                                        std::to_string(bad) +
                                        " out of range"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(ByteReaderTest, SgeSgtCodecsRoundTrip) {
  Sge e{3, 9, 2, 44, /*del=*/true};
  Sgt t(5, 6, 1, Interval(10, 70), Payload{EdgeRef{5, 7, 1},
                                           EdgeRef{7, 6, 1}},
        /*del=*/false);
  std::string payload;
  PutSge(&payload, e);
  PutSgt(&payload, t);
  ByteReader in(payload, "codec");
  const Sge e2 = GetSge(&in);
  const Sgt t2 = GetSgt(&in);
  ASSERT_TRUE(in.ExpectEnd().ok()) << in.status().ToString();
  EXPECT_EQ(e2.src, e.src);
  EXPECT_EQ(e2.trg, e.trg);
  EXPECT_EQ(e2.label, e.label);
  EXPECT_EQ(e2.t, e.t);
  EXPECT_EQ(e2.is_deletion, e.is_deletion);
  EXPECT_EQ(t2.src, t.src);
  EXPECT_EQ(t2.trg, t.trg);
  EXPECT_EQ(t2.validity.ts, t.validity.ts);
  EXPECT_EQ(t2.validity.exp, t.validity.exp);
  ASSERT_EQ(t2.payload.size(), 2u);
  EXPECT_EQ(t2.payload[1].src, 7u);
}

// ---------------------------------------------------------------------------
// Streamed blobs: CheckpointWriter::BeginBlob/EndBlob through PayloadOut
// ---------------------------------------------------------------------------

/// \brief StringByteSink that records the largest single Append.
class PieceRecordingSink final : public ByteSink {
 public:
  Status Append(std::string_view b) override {
    largest_append_ = std::max(largest_append_, b.size());
    ++appends_;
    return inner_.Append(b);
  }
  Status WriteAt(std::uint64_t offset, std::string_view b) override {
    return inner_.WriteAt(offset, b);
  }
  Status Close() override { return Status::OK(); }
  const std::string& bytes() const { return inner_.bytes(); }
  std::size_t largest_append() const { return largest_append_; }
  std::size_t appends() const { return appends_; }

 private:
  StringByteSink inner_;
  std::size_t largest_append_ = 0;
  std::size_t appends_ = 0;
};

/// \brief `n` bytes with NULs and high bytes, varied by `salt`.
std::string BlobBytes(std::size_t n, unsigned salt) {
  std::string b(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<char>((i * 31 + salt) % 256);
  }
  return b;
}

/// \brief A u32 field, then per blob the blob and a u8 field: through
/// `out` with BeginBlob/EndBlob, the blob appended in 1,000-byte slices
/// as a serializer's fields arrive.
void PutBlobs(PayloadOut* out, const std::vector<std::string>& blobs) {
  PutU32(out, 7);
  for (const std::string& blob : blobs) {
    out->BeginBlob();
    for (std::size_t at = 0; at < blob.size(); at += 1000) {
      out->append(blob.data() + at, std::min<std::size_t>(1000,
                                                          blob.size() - at));
    }
    out->EndBlob();
    PutU8(out, 0xab);
  }
}

TEST(CheckpointBlobTest, StreamedBlobsMatchOnePutStrOfEachPayload) {
  const std::vector<std::vector<std::string>> cases = {
      {""},                  // an empty blob
      {BlobBytes(100, 1)},   // one piece
      {BlobBytes(3 * kCheckpointPieceBytes + 123, 2)},  // several drains
      {BlobBytes(1000, 3),   // two blobs in one section
       BlobBytes(kCheckpointPieceBytes + 5, 4)},
  };
  for (const std::vector<std::string>& blobs : cases) {
    std::string whole;
    PutU32(&whole, 7);
    for (const std::string& blob : blobs) {
      PutStr(&whole, blob);
      PutU8(&whole, 0xab);
    }
    const std::string reference =
        Image({{"clock", "0123"}, {"ops", whole}, {"engine", "x"}});

    PieceRecordingSink sink;
    CheckpointWriter writer(&sink);
    PayloadOut out(&writer);
    ASSERT_TRUE(writer.BeginSection("clock").ok());
    PutU32(&out, 0x33323130);  // "0123"
    ASSERT_TRUE(out.Flush().ok());
    ASSERT_TRUE(writer.EndSection().ok());
    ASSERT_TRUE(writer.BeginSection("ops").ok());
    PutBlobs(&out, blobs);
    ASSERT_TRUE(out.Flush().ok());
    ASSERT_TRUE(writer.EndSection().ok());
    ASSERT_TRUE(writer.BeginSection("engine").ok());
    PutU8(&out, 'x');
    ASSERT_TRUE(out.Flush().ok());
    ASSERT_TRUE(writer.EndSection().ok());
    ASSERT_TRUE(writer.Finish().ok());

    const std::size_t blob_bytes = blobs.back().size();
    EXPECT_EQ(sink.bytes(), reference) << "last blob " << blob_bytes << " B";
    auto parsed = CheckpointReader::Parse(sink.bytes(), "streamed");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const CheckpointSection* ops = parsed->Find("ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->crc, Crc32(whole));
    // The payload reached the sink one piece at a time.
    EXPECT_LT(sink.largest_append(), kCheckpointPieceBytes + 1000);
    if (blob_bytes > kCheckpointPieceBytes) {
      EXPECT_GT(sink.appends(), blob_bytes / kCheckpointPieceBytes);
    }

    // Unbound, the same calls frame the same payload in memory.
    PayloadOut unbound;
    PutBlobs(&unbound, blobs);
    EXPECT_TRUE(unbound.Flush().ok());
    EXPECT_EQ(unbound.TakeBytes(), whole);
  }
}

// ---------------------------------------------------------------------------
// Write-side fault injection
// ---------------------------------------------------------------------------

/// \brief ByteSink that fails once it has taken `budget` bytes — appends
/// and backpatches alike — so ENOSPC / a short write lands at an
/// arbitrary byte, injected deterministically.
class FailingByteSink : public ByteSink {
 public:
  explicit FailingByteSink(std::size_t budget) : budget_(budget) {}

  Status Append(std::string_view bytes) override { return Take(bytes); }
  Status WriteAt(std::uint64_t, std::string_view bytes) override {
    const Status st = Take(bytes);
    failed_in_write_at_ = !st.ok();
    return st;
  }
  Status Close() override { return Status::OK(); }

  bool failed_in_write_at() const { return failed_in_write_at_; }

 private:
  Status Take(std::string_view bytes) {
    if (taken_ + bytes.size() > budget_) {
      return Status::Internal("injected: no space left on device");
    }
    taken_ += bytes.size();
    return Status::OK();
  }

  std::size_t budget_;
  std::size_t taken_ = 0;
  bool failed_in_write_at_ = false;
};

TEST(CheckpointWriteTest, SinkFailureAtEveryBudgetSurfaces) {
  const Sections sections = {{"clock", "0123456789"},
                             {"ops", std::string(100, 'z')}};
  const std::string image = Image(sections);
  // Every byte the writer hands the sink: the image, plus one 12-byte
  // length/CRC backpatch per section and the 4-byte section count.
  const std::size_t total = image.size() + 12 * sections.size() + 4;
  std::size_t backpatch_failures = 0;
  for (std::size_t budget = 0; budget < total; ++budget) {
    FailingByteSink sink(budget);
    const Status st = WriteImage(sections, &sink);
    ASSERT_FALSE(st.ok()) << "budget " << budget << " succeeded";
    EXPECT_NE(st.message().find("no space left"), std::string::npos);
    if (sink.failed_in_write_at()) ++backpatch_failures;
  }
  // Every budget that runs out inside a backpatch fails there: both
  // section frames and the header's section count.
  EXPECT_EQ(backpatch_failures, 12 * sections.size() + 4);
  FailingByteSink enough(total);
  EXPECT_TRUE(WriteImage(sections, &enough).ok());
}

TEST(CheckpointBlobTest, SinkFailureAtEveryBudgetSurfaces) {
  const std::string blob = BlobBytes(200, 5);
  std::string whole;
  PutU8(&whole, 1);
  PutStr(&whole, blob);
  const std::string image = Image({{"ops", whole}});
  // Every byte the writer hands the sink: the image, the blob's length
  // backpatch, the section's length/CRC backpatch and the section count.
  const std::size_t total = image.size() + 4 + 12 + 4;
  auto write = [&](ByteSink* sink) {
    CheckpointWriter writer(sink);
    SGQ_RETURN_NOT_OK(writer.BeginSection("ops"));
    SGQ_RETURN_NOT_OK(writer.Append(std::string(1, '\x01')));
    SGQ_RETURN_NOT_OK(writer.BeginBlob());
    for (std::size_t at = 0; at < blob.size(); at += 64) {
      SGQ_RETURN_NOT_OK(writer.Append(std::string_view(blob).substr(at, 64)));
    }
    SGQ_RETURN_NOT_OK(writer.EndBlob());
    SGQ_RETURN_NOT_OK(writer.EndSection());
    return writer.Finish();
  };
  std::size_t backpatch_failures = 0;
  for (std::size_t budget = 0; budget < total; ++budget) {
    FailingByteSink sink(budget);
    const Status st = write(&sink);
    ASSERT_FALSE(st.ok()) << "budget " << budget << " succeeded";
    EXPECT_NE(st.message().find("no space left"), std::string::npos);
    if (sink.failed_in_write_at()) ++backpatch_failures;
  }
  // Every budget that runs out inside a backpatch fails there: the
  // blob's length, the section frame and the header's section count.
  EXPECT_EQ(backpatch_failures, 4u + 12u + 4u);
  StringByteSink enough;
  ASSERT_TRUE(write(&enough).ok());
  EXPECT_EQ(enough.bytes(), image);
}

/// \brief Writes a one-section checkpoint through the durable protocol.
Status WriteCheckpointFile(const std::string& path, std::string_view clock) {
  CheckpointFile file(path);
  CheckpointWriter* writer = file.writer();
  SGQ_RETURN_NOT_OK(writer->BeginSection("clock"));
  SGQ_RETURN_NOT_OK(writer->Append(clock));
  SGQ_RETURN_NOT_OK(writer->EndSection());
  SGQ_RETURN_NOT_OK(writer->Finish());
  return file.Commit();
}

TEST(CheckpointWriteTest, DurableWriteIsAtomicOverPreviousFile) {
  const std::string path = TempPath("ckpt_atomic.sgqc");
  ASSERT_TRUE(WriteCheckpointFile(path, "first").ok());
  auto parsed = CheckpointReader::ParseFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Overwrite through the same protocol: the new image replaces the old
  // atomically and no ".tmp" residue survives a successful write.
  ASSERT_TRUE(
      WriteCheckpointFile(path, "second, longer than the first payload").ok());
  auto reparsed = CheckpointReader::ParseFile(path);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->payload(reparsed->sections()[0]),
            "second, longer than the first payload");
  EXPECT_FALSE(ReadFileBytes(path + ".tmp").ok());
  std::remove(path.c_str());
}

TEST(CheckpointWriteTest, AbandonedFileLeavesPreviousAndNoTemp) {
  const std::string path = TempPath("ckpt_abandoned.sgqc");
  ASSERT_TRUE(WriteCheckpointFile(path, "kept").ok());
  auto before = ReadFileBytes(path);
  ASSERT_TRUE(before.ok());
  {
    // Half a checkpoint, then the write is abandoned (an error in the
    // serializer): the temp file goes, the previous file stays.
    CheckpointFile file(path);
    ASSERT_TRUE(file.writer()->BeginSection("clock").ok());
    ASSERT_TRUE(file.writer()->Append(std::string(5000, 'x')).ok());
    EXPECT_TRUE(ReadFileBytes(path + ".tmp").ok());
  }
  EXPECT_FALSE(ReadFileBytes(path + ".tmp").ok());
  auto after = ReadFileBytes(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  std::remove(path.c_str());
}

TEST(CheckpointWriteTest, UnwritableDirectoryFailsWithErrnoText) {
  Status st = WriteCheckpointFile(TempPath("no/such/dir/ckpt.sgqc"), "x");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("No such file"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------------------------------------------
// FileByteSink hardening (satellite: Flush/Sync + injected failures)
// ---------------------------------------------------------------------------

TEST(FileByteSinkTest, FlushAndSyncMakeBytesVisible) {
  const std::string path = TempPath("sink_sync.bin");
  FileByteSink sink(path);
  ASSERT_TRUE(sink.Append("durable").ok());
  ASSERT_TRUE(sink.Flush().ok());
  ASSERT_TRUE(sink.Sync().ok()) << sink.status().ToString();
  // Sync() forces the staged tail through the stdio buffer: the bytes
  // must be readable *before* Close().
  auto visible = ReadFileBytes(path);
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(*visible, "durable");
  ASSERT_TRUE(sink.Close().ok());
  std::remove(path.c_str());
}

TEST(FileByteSinkTest, WriteAtPatchesWrittenBytesInPlace) {
  const std::string path = TempPath("sink_write_at.bin");
  FileByteSink sink(path);
  // A prefix larger than the staging buffer, so one patch lands in bytes
  // already on disk and one in bytes still staged.
  const std::string prefix(kStreamIoBufferBytes + 100, 'a');
  ASSERT_TRUE(sink.Append(prefix).ok());
  ASSERT_TRUE(sink.Append("tail").ok());
  ASSERT_TRUE(sink.WriteAt(10, "XY").ok());
  ASSERT_TRUE(sink.WriteAt(prefix.size() + 1, "A").ok());
  ASSERT_TRUE(sink.Append("!").ok());  // appends still go to the end
  EXPECT_FALSE(sink.WriteAt(prefix.size() + 4, "ZZ").ok());  // past the end
  ASSERT_TRUE(sink.Close().ok());

  std::string expected = prefix + "tail!";
  expected.replace(10, 2, "XY");
  expected[prefix.size() + 1] = 'A';
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, expected);
  std::remove(path.c_str());
}

TEST(FileByteSinkTest, SyncAfterOpenFailureSticks) {
  FileByteSink sink(TempPath("no/such/dir/out.bin"));
  EXPECT_FALSE(sink.Append("x").ok());
  EXPECT_FALSE(sink.Flush().ok());
  EXPECT_FALSE(sink.Sync().ok());
  // The sticky error carries the errno text and the path.
  EXPECT_NE(sink.status().message().find("No such file"),
            std::string::npos)
      << sink.status().ToString();
}

}  // namespace
}  // namespace sgq
