// SGQC — the versioned checkpoint/snapshot format (DESIGN.md §7): a
// little-endian container of named, length-framed, CRC-checked sections
// holding the engine's complete runtime state (vocabulary, executor
// clock, window partitions, per-operator state, sink buffers).
//
//   offset 0   magic "SGQC" (4 bytes)
//          4   u32  version        (currently 3)
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
// carry the offset of the offending field.

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
inline constexpr std::uint32_t kCheckpointVersion = 4;

// ---------------------------------------------------------------------------
// Little-endian payload encoding helpers
// ---------------------------------------------------------------------------

void PutU8(std::string* out, std::uint8_t v);
void PutU16(std::string* out, std::uint16_t v);
void PutU32(std::string* out, std::uint32_t v);
void PutU64(std::string* out, std::uint64_t v);
void PutI64(std::string* out, std::int64_t v);
/// \brief u32 length + raw bytes.
void PutStr(std::string* out, std::string_view s);
/// \brief PutStr built in place: PutLengthPlaceholder appends a u32 slot
/// and returns its offset; after the value's bytes are appended behind
/// it, PatchLength writes their count into the slot. Saves serializing a
/// large value into a temporary only to copy it.
std::size_t PutLengthPlaceholder(std::string* out);
void PatchLength(std::string* out, std::size_t at);

class ByteReader;

/// \brief Sge/Sgt codecs shared by the operator, sink, and executor
/// checkpoint sections (pending micro-batches, buffered results).
void PutSge(std::string* out, const Sge& e);
Sge GetSge(ByteReader* in);
void PutSgt(std::string* out, const Sgt& t);
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
  /// \brief `n` raw bytes (a view into the input; valid while it lives).
  std::string_view Raw(std::size_t n);
  /// \brief u32 length + bytes (inverse of PutStr).
  std::string Str();

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return bytes_.size() - offset_; }
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
