// SGQC — the versioned checkpoint/snapshot format (DESIGN.md §7): a
// little-endian container of named, length-framed, CRC-checked sections
// holding the engine's complete runtime state (vocabulary, executor
// clock, window partitions, per-operator state, sink buffers).
//
//   offset 0   magic "SGQC" (4 bytes)
//          4   u32  version        (kCheckpointVersion)
//          8   u32  section_count
//         12   section_count × {
//                u16 name_len, name bytes,
//                u64 payload_len, u32 payload crc32,
//                payload bytes }
//          …   footer: end magic "CQGS" (4 bytes),
//              u32 crc32 of every preceding byte (header + sections +
//              end magic)
//
// Every frame is validated before any payload is handed out: truncation
// at any byte, a flipped bit in any section, or an unknown version is
// rejected with a *positioned* error (byte offset + section name), never
// a partial parse. Files are streamed into a temp file and published by
// fsync + atomic rename (CheckpointFile), so a crash mid-write can never
// leave a live-but-torn checkpoint under the final name.
//
// The Put*/ByteReader helpers below are the single encode/decode
// vocabulary for section payloads — operators' Serialize/Deserialize
// methods use them so every decode path is bounds-checked and errors
// carry the offset of the offending field. Serializers write to a
// PayloadOut, which streams each payload into the writer in 64 KiB
// pieces.

#ifndef SGQ_MODEL_CHECKPOINT_H_
#define SGQ_MODEL_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "model/sgt.h"
#include "model/stream_io.h"

namespace sgq {

/// \brief SGQC magic bytes, footer magic, and current format version.
inline constexpr char kCheckpointMagic[4] = {'S', 'G', 'Q', 'C'};
inline constexpr char kCheckpointEndMagic[4] = {'C', 'Q', 'G', 'S'};
/// Version 2: per-operator liveness flags in the "ops" section and
/// (plan, live) registration history in "queries" — live query
/// deregistration (DESIGN.md §10) made both section layouts richer.
/// Version 3: the "meta" identity list lost its two dispatch keys (the
/// query-index switch and the time-advance state bar) when the executor
/// went down to one dispatch path; every other section is unchanged.
/// Version 4: "meta" lost the sink-coalescing identity key (results are
/// always coalesced) and the declared-stream-format informational key
/// (chunk sources detect the format); every other section is unchanged.
/// Version 5: PATTERN state in "ops" carries each join bucket's hinted
/// expiry with the bucket instead of the binding-expiry calendar's hint
/// list; every other section is unchanged.
/// Version 6: "ops" lost each operator instance's and each merge
/// coalescer's purge-watermark u64 and each operator's purge-dispatch
/// `touched` byte (purging is exact at every slide boundary, so no purge
/// schedule is carried). "ops" and "windows" hold no expired state at a
/// boundary any more; every other section is unchanged.
/// Version 7: a sharded engine's "windows" holds one partition per key
/// instead of one per (key, shard) — the shards of an operator share
/// their window partitions — so an image taken at num_workers > 1 lists
/// fewer partitions; every other section's layout is unchanged.
/// Version 8: "meta" lost the `async_ingest` informational key (it is a
/// run option, not engine configuration); every other section is
/// unchanged.
inline constexpr std::uint32_t kCheckpointVersion = 8;

// ---------------------------------------------------------------------------
// Little-endian payload encoding helpers
// ---------------------------------------------------------------------------
//
// Each helper appends to `out`: a std::string, or the PayloadOut every
// SerializeState writes to (anything with append(const char*, size_t)).
// Fixed-width fields build their bytes locally and append them once.

template <typename Out>
void PutU8(Out* out, std::uint8_t v) {
  const char b = static_cast<char>(v);
  out->append(&b, 1);
}

template <typename Out>
void PutU16(Out* out, std::uint16_t v) {
  const char b[2] = {static_cast<char>(v & 0xFF),
                     static_cast<char>((v >> 8) & 0xFF)};
  out->append(b, sizeof(b));
}

template <typename Out>
void PutU32(Out* out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(b, sizeof(b));
}

template <typename Out>
void PutU64(Out* out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(b, sizeof(b));
}

template <typename Out>
void PutI64(Out* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

/// \brief A vertex id as a u64 field (VertexToWire); read back with
/// ByteReader::Vertex.
template <typename Out>
void PutVertex(Out* out, VertexId v) {
  PutU64(out, VertexToWire(v));
}

/// \brief u32 length + raw bytes.
template <typename Out>
void PutStr(Out* out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

class ByteReader;

/// \brief Sge/Sgt codecs shared by the operator, sink, and executor
/// checkpoint sections (pending micro-batches, buffered results).
template <typename Out>
void PutSge(Out* out, const Sge& e) {
  PutVertex(out, e.src);
  PutVertex(out, e.trg);
  PutU32(out, e.label);
  PutI64(out, e.t);
  PutU8(out, e.is_deletion ? 1 : 0);
}
Sge GetSge(ByteReader* in);

template <typename Out>
void PutSgt(Out* out, const Sgt& t) {
  PutVertex(out, t.src);
  PutVertex(out, t.trg);
  PutU32(out, t.label);
  PutI64(out, t.validity.ts);
  PutI64(out, t.validity.exp);
  PutU8(out, t.is_deletion ? 1 : 0);
  PutU32(out, static_cast<std::uint32_t>(t.payload.size()));
  for (const EdgeRef& e : t.payload) {
    PutVertex(out, e.src);
    PutVertex(out, e.trg);
    PutU32(out, e.label);
  }
}
Sgt GetSgt(ByteReader* in);

/// \brief Positioned little-endian decoder with a sticky error: after the
/// first out-of-bounds read every further read returns 0/empty and
/// status() carries "context: offset N: …". Callers check status() once
/// at the end (and ExpectEnd() to reject trailing garbage) instead of
/// bounds-checking every field.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64();
  /// \brief A u64 vertex field (inverse of PutVertex): u64 max reads as
  /// kInvalidVertex; any other value above the largest id, 2^32 - 2, is
  /// an error positioned at the field.
  VertexId Vertex();
  /// \brief `n` raw bytes (a view into the input; valid while it lives).
  std::string_view Raw(std::size_t n);
  /// \brief u32 length + bytes (inverse of PutStr).
  std::string Str();
  /// \brief Str without the copy: a view into the input (valid while it
  /// lives), with the same positioned errors.
  std::string_view StrView();

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return bytes_.size() - offset_; }

  /// \brief `count`, capped at how many entries of `min_entry_bytes`
  /// encoded bytes each the unread input can hold: what a decoder may
  /// reserve for a decoded count, so a corrupt count cannot allocate
  /// more than the payload could fill (it still fails at its offset
  /// when the entries run out).
  std::size_t ReserveBound(std::uint64_t count,
                           std::size_t min_entry_bytes) const {
    const std::uint64_t fit = remaining() / min_entry_bytes;
    return static_cast<std::size_t>(count < fit ? count : fit);
  }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// \brief The error-prefix context (for positioning sub-readers).
  const std::string& context() const { return context_; }

  /// \brief Error (with position) unless the input is fully consumed.
  Status ExpectEnd();

  /// \brief Flags a semantic error at the current offset (bad flag value,
  /// mismatched count, …); sticks like a bounds error.
  Status Fail(const std::string& what);

 private:
  std::string_view bytes_;
  std::string context_;
  std::size_t offset_ = 0;
  Status status_ = Status::OK();
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// \brief ByteSink into a growing string (tests).
class StringByteSink final : public ByteSink {
 public:
  Status Append(std::string_view b) override {
    bytes_.append(b.data(), b.size());
    return Status::OK();
  }
  Status WriteAt(std::uint64_t offset, std::string_view b) override {
    if (offset > bytes_.size() || b.size() > bytes_.size() - offset) {
      return Status::Internal("WriteAt past the end of the written bytes");
    }
    bytes_.replace(offset, b.size(), b.data(), b.size());
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

/// \brief Streams an SGQC image into a ByteSink one section at a time, so
/// the only copy of a section's payload is whatever piece the caller is
/// appending. BeginSection writes the frame header with placeholder
/// length and CRC; payload bytes go straight to the sink, their CRC taken
/// as they pass; EndSection backpatches length and CRC at the frame's
/// offset (ByteSink::WriteAt). Finish appends the footer, whose whole-
/// file CRC is combined from the per-frame CRCs (Crc32Combine), and
/// backpatches the header's section count. No byte is checksummed twice
/// and nothing is read back.
///
/// Errors stick: after the first sink failure every call returns it.
/// Sections are written in call order (restore is order-independent, but
/// a stable order keeps checkpoint bytes deterministic).
class CheckpointWriter {
 public:
  /// \brief Writes the file header to `sink` (borrowed; must outlive the
  /// writer).
  explicit CheckpointWriter(ByteSink* sink);

  /// \brief Opens a section; names must be unique and < 64 KiB.
  Status BeginSection(std::string_view name);

  /// \brief Appends payload bytes to the open section.
  Status Append(std::string_view bytes);

  /// \brief Closes the open section, backpatching its frame.
  Status EndSection();

  /// \brief Opens a blob in the open section: appends a u32 length
  /// placeholder; the bytes appended until EndBlob are the blob. The
  /// blob's bytes are checksummed apart from the section's.
  Status BeginBlob();

  /// \brief Closes the blob: backpatches its length at the placeholder
  /// (ByteSink::WriteAt) and folds length and blob into the section's
  /// CRC (Crc32Combine), so the section reads as if the blob had been
  /// PutStr'd whole. Blobs do not nest; a blob must end before its
  /// section does.
  Status EndBlob();

  /// \brief Appends the footer and backpatches the section count. The
  /// sink is left open (its owner syncs and closes it).
  Status Finish();

  /// \brief Image bytes written so far (the file size after Finish).
  std::uint64_t bytes_written() const { return offset_; }
  const Status& status() const { return status_; }

 private:
  /// Appends to the sink, advancing offset_; records a failure.
  Status Put(std::string_view bytes);

  ByteSink* sink_;
  Status status_ = Status::OK();
  std::uint64_t offset_ = 0;
  std::uint32_t num_sections_ = 0;
  /// CRC and length of every finished byte after the 12-byte header.
  std::uint32_t body_crc_ = 0;
  std::uint64_t body_len_ = 0;
  // The open section: its frame header bytes (name prefix + placeholder
  // length/CRC, kept to checksum once the real values are patched in),
  // the frame's offset, and the payload's running length and CRC.
  bool in_section_ = false;
  std::string frame_;
  std::uint64_t frame_at_ = 0;
  std::uint64_t payload_len_ = 0;
  std::uint32_t payload_crc_ = 0;
  // The open blob: its length field's offset, the section CRC before the
  // field, and the section length where the blob's bytes start. While a
  // blob is open payload_crc_ runs over the blob's bytes alone.
  bool in_blob_ = false;
  std::uint64_t blob_at_ = 0;
  std::uint32_t crc_before_blob_ = 0;
  std::uint64_t blob_start_ = 0;
};

/// \brief Section payloads reach a CheckpointWriter in pieces of this
/// many bytes.
inline constexpr std::size_t kCheckpointPieceBytes = 64 * 1024;

/// \brief The output every SerializeState writes to. The Put* helpers
/// append to a buffer; bound to a CheckpointWriter, the buffer drains
/// into the writer's open section whenever it holds a full piece
/// (kCheckpointPieceBytes), so a payload of any size costs one piece of
/// memory. Unbound, it keeps every byte (TakeBytes()): for a payload that
/// travels inside another (the CLI's reorder-buffer section) and for
/// tests.
///
/// BeginBlob/EndBlob frame a length-prefixed blob (PutStr's framing: u32
/// length, then the bytes) without knowing its length up front. A blob
/// that ends inside the buffer has its length patched there; one that
/// outgrows a piece goes to the writer from its length field on, and
/// the writer backpatches the length in the sink
/// (CheckpointWriter::BeginBlob) — one positioned write per large blob,
/// none per small one. Blobs do not nest. Sink errors stick in the
/// writer and surface from Flush() and every later writer call.
class PayloadOut {
 public:
  PayloadOut() = default;
  /// \brief Drains into `writer`'s open section (borrowed).
  explicit PayloadOut(CheckpointWriter* writer) : writer_(writer) {}

  PayloadOut(const PayloadOut&) = delete;
  PayloadOut& operator=(const PayloadOut&) = delete;

  void append(const char* bytes, std::size_t n) {
    buf_.append(bytes, n);
    if (writer_ != nullptr && buf_.size() >= kCheckpointPieceBytes) Drain();
  }

  void BeginBlob();
  void EndBlob();

  /// \brief Bound: hands the buffered bytes to the writer and returns its
  /// status. Unbound: OK, bytes stay.
  Status Flush();

  /// \brief Unbound: the bytes appended so far, leaving it empty.
  std::string TakeBytes() { return std::exchange(buf_, std::string()); }

 private:
  void Drain();

  CheckpointWriter* writer_ = nullptr;
  std::string buf_;
  /// The open blob, if any: its length field still in buf_ (at blob_at_),
  /// or already handed to the writer.
  enum class Blob { kNone, kBuffered, kInWriter };
  Blob blob_ = Blob::kNone;
  std::size_t blob_at_ = 0;
};

/// \brief A checkpoint being written under `path + ".tmp"`: writer()
/// streams the image into the temp file; Commit() makes it durable and
/// visible — fsync, close, atomic rename over `path`, fsync of the parent
/// directory — so a crash at any instant leaves either the previous file
/// (or nothing) or the complete new checkpoint, never a torn one. A file
/// destroyed without a successful Commit() removes its temp file.
class CheckpointFile {
 public:
  explicit CheckpointFile(std::string path);
  ~CheckpointFile();

  CheckpointFile(const CheckpointFile&) = delete;
  CheckpointFile& operator=(const CheckpointFile&) = delete;

  CheckpointWriter* writer() { return &writer_; }

  /// \brief Requires a finished writer. On failure any previous file at
  /// `path` is untouched (the destructor removes the temp file).
  Status Commit();

 private:
  std::string path_;
  std::string tmp_;
  FileByteSink sink_;
  CheckpointWriter writer_;
  bool committed_ = false;
};

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// \brief One parsed section frame: `offset` is the absolute byte offset
/// of the payload (error positioning); payload bytes are viewed through
/// CheckpointReader::payload().
struct CheckpointSection {
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

/// \brief Parses and fully validates an SGQC image before exposing any
/// payload: magic, version, every section frame + CRC, footer magic +
/// whole-file CRC. Owns the bytes, so sections stay valid for the
/// reader's lifetime.
class CheckpointReader {
 public:
  /// \brief `context` prefixes every error (typically the file path).
  static Result<CheckpointReader> Parse(std::string bytes,
                                        std::string context);

  /// \brief ReadFileBytes + Parse with the path as context.
  static Result<CheckpointReader> ParseFile(const std::string& path);

  std::uint32_t version() const { return version_; }
  const std::vector<CheckpointSection>& sections() const { return sections_; }

  /// \brief The section named `name`, or nullptr.
  const CheckpointSection* Find(std::string_view name) const;

  /// \brief Payload bytes of `section` (view into the reader's buffer).
  std::string_view payload(const CheckpointSection& section) const {
    return std::string_view(bytes_).substr(section.offset, section.length);
  }

  /// \brief ByteReader over the named section's payload, with errors
  /// positioned as "context: section 'name': …"; NotFound when absent.
  Result<ByteReader> Open(std::string_view name) const;

  const std::string& context() const { return context_; }

 private:
  CheckpointReader() = default;

  std::string bytes_;
  std::string context_;
  std::uint32_t version_ = 0;
  std::vector<CheckpointSection> sections_;
};

}  // namespace sgq

#endif  // SGQ_MODEL_CHECKPOINT_H_
