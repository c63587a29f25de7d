#include "model/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/crc32.h"
#include "common/logging.h"

namespace sgq {
namespace {

std::string ErrnoText(int err) {
  return err != 0 ? std::strerror(err) : "unknown error";
}

std::string Hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

/// Directory part of `path` ("" when none) — for the post-rename fsync.
std::string DirName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "";
  return path.substr(0, slash == 0 ? 1 : slash);
}

}  // namespace

// ---------------------------------------------------------------------------
// Sge/Sgt decoders
// ---------------------------------------------------------------------------

Sge GetSge(ByteReader* in) {
  Sge e;
  e.src = in->Vertex();
  e.trg = in->Vertex();
  e.label = in->U32();
  e.t = in->I64();
  e.is_deletion = in->U8() != 0;
  return e;
}

Sgt GetSgt(ByteReader* in) {
  Sgt t;
  t.src = in->Vertex();
  t.trg = in->Vertex();
  t.label = in->U32();
  t.validity.ts = in->I64();
  t.validity.exp = in->I64();
  t.is_deletion = in->U8() != 0;
  const std::uint32_t n = in->U32();
  if (in->ok()) t.payload.reserve(n);
  for (std::uint32_t i = 0; i < n && in->ok(); ++i) {
    EdgeRef e;
    e.src = in->Vertex();
    e.trg = in->Vertex();
    e.label = in->U32();
    t.payload.push_back(e);
  }
  return t;
}

// ---------------------------------------------------------------------------
// ByteReader
// ---------------------------------------------------------------------------

Status ByteReader::Fail(const std::string& what) {
  if (status_.ok()) {
    status_ = Status::ParseError(context_ + ": offset " +
                                 std::to_string(offset_) + ": " + what);
    offset_ = bytes_.size();  // poison further reads
  }
  return status_;
}

std::string_view ByteReader::Raw(std::size_t n) {
  if (!status_.ok()) return {};
  if (bytes_.size() - offset_ < n) {
    Fail("truncated: need " + std::to_string(n) + " bytes, have " +
         std::to_string(bytes_.size() - offset_));
    return {};
  }
  const std::string_view out = bytes_.substr(offset_, n);
  offset_ += n;
  return out;
}

std::uint8_t ByteReader::U8() {
  const std::string_view b = Raw(1);
  return b.empty() ? 0 : static_cast<std::uint8_t>(b[0]);
}

std::uint16_t ByteReader::U16() {
  const std::string_view b = Raw(2);
  if (b.empty()) return 0;
  return static_cast<std::uint16_t>(static_cast<unsigned char>(b[0])) |
         static_cast<std::uint16_t>(
             static_cast<std::uint16_t>(static_cast<unsigned char>(b[1]))
             << 8);
}

std::uint32_t ByteReader::U32() {
  const std::string_view b = Raw(4);
  if (b.empty()) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[i]);
  }
  return v;
}

std::uint64_t ByteReader::U64() {
  const std::string_view b = Raw(8);
  if (b.empty()) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(b[i]);
  }
  return v;
}

std::int64_t ByteReader::I64() { return static_cast<std::int64_t>(U64()); }

VertexId ByteReader::Vertex() {
  const std::size_t at = offset_;
  const std::uint64_t v = U64();
  if (v == VertexToWire(kInvalidVertex)) return kInvalidVertex;
  if (v >= kInvalidVertex) {
    offset_ = at;
    Fail("vertex id " + std::to_string(v) + " out of range (largest id " +
         std::to_string(kInvalidVertex - 1) + ")");
    return kInvalidVertex;
  }
  return static_cast<VertexId>(v);
}

std::string ByteReader::Str() { return std::string(StrView()); }

std::string_view ByteReader::StrView() {
  const std::uint32_t len = U32();
  if (!status_.ok()) return {};
  if (bytes_.size() - offset_ < len) {
    Fail("truncated string: length " + std::to_string(len) + ", have " +
         std::to_string(bytes_.size() - offset_));
    return {};
  }
  return Raw(len);
}

Status ByteReader::ExpectEnd() {
  SGQ_RETURN_NOT_OK(status_);
  if (offset_ != bytes_.size()) {
    return Fail(std::to_string(bytes_.size() - offset_) +
                " trailing bytes after the last expected field");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------------

namespace {

/// Magic, version and section count: the 12 bytes every image opens with.
std::string Header(std::uint32_t num_sections) {
  std::string header(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutU32(&header, kCheckpointVersion);
  PutU32(&header, num_sections);
  return header;
}

constexpr std::size_t kHeaderBytes = 12;
/// u64 payload length + u32 payload CRC closing every frame header.
constexpr std::size_t kFrameFixedBytes = 12;

}  // namespace

CheckpointWriter::CheckpointWriter(ByteSink* sink) : sink_(sink) {
  // The section count is a placeholder until Finish() backpatches it.
  Put(Header(0));
}

Status CheckpointWriter::Put(std::string_view bytes) {
  if (!status_.ok()) return status_;
  status_ = sink_->Append(bytes);
  if (status_.ok()) offset_ += bytes.size();
  return status_;
}

Status CheckpointWriter::BeginSection(std::string_view name) {
  SGQ_CHECK(!in_section_) << "BeginSection inside section";
  SGQ_CHECK_LT(name.size(), std::size_t{1} << 16);
  in_section_ = true;
  payload_len_ = 0;
  payload_crc_ = 0;
  frame_.clear();
  PutU16(&frame_, static_cast<std::uint16_t>(name.size()));
  frame_.append(name.data(), name.size());
  frame_at_ = offset_;
  frame_.append(kFrameFixedBytes, '\0');
  return Put(frame_);
}

Status CheckpointWriter::Append(std::string_view bytes) {
  SGQ_CHECK(in_section_) << "Append outside a section";
  SGQ_RETURN_NOT_OK(status_);
  payload_crc_ = Crc32(bytes, payload_crc_);
  payload_len_ += bytes.size();
  return Put(bytes);
}

Status CheckpointWriter::EndSection() {
  SGQ_CHECK(in_section_) << "EndSection without BeginSection";
  SGQ_CHECK(!in_blob_) << "EndSection inside a blob";
  in_section_ = false;
  SGQ_RETURN_NOT_OK(status_);
  const std::size_t fixed_at = frame_.size() - kFrameFixedBytes;
  frame_.resize(fixed_at);
  PutU64(&frame_, payload_len_);
  PutU32(&frame_, payload_crc_);
  status_ = sink_->WriteAt(frame_at_ + fixed_at,
                           std::string_view(frame_).substr(fixed_at));
  SGQ_RETURN_NOT_OK(status_);
  // The frame header is checksummed once, with its final bytes; the
  // payload's CRC is folded in without touching its bytes again.
  body_crc_ = Crc32Combine(Crc32(frame_, body_crc_), payload_crc_,
                           payload_len_);
  body_len_ += frame_.size() + payload_len_;
  ++num_sections_;
  return status_;
}

Status CheckpointWriter::BeginBlob() {
  SGQ_CHECK(in_section_) << "BeginBlob outside a section";
  SGQ_CHECK(!in_blob_) << "nested blob";
  in_blob_ = true;
  blob_at_ = offset_;
  crc_before_blob_ = payload_crc_;
  // The placeholder is counted in the section's length now and enters
  // its CRC at EndBlob, with the real length.
  static constexpr char kPlaceholder[4] = {};
  payload_len_ += sizeof(kPlaceholder);
  blob_start_ = payload_len_;
  payload_crc_ = 0;
  return Put(std::string_view(kPlaceholder, sizeof(kPlaceholder)));
}

Status CheckpointWriter::EndBlob() {
  SGQ_CHECK(in_blob_) << "EndBlob without BeginBlob";
  in_blob_ = false;
  SGQ_RETURN_NOT_OK(status_);
  const std::uint64_t blob_len = payload_len_ - blob_start_;
  if (blob_len > UINT32_MAX) {
    status_ = Status::Internal("checkpoint blob of " +
                               std::to_string(blob_len) +
                               " bytes overflows its u32 length");
    return status_;
  }
  std::string length;
  PutU32(&length, static_cast<std::uint32_t>(blob_len));
  status_ = sink_->WriteAt(blob_at_, length);
  SGQ_RETURN_NOT_OK(status_);
  payload_crc_ = Crc32Combine(Crc32(length, crc_before_blob_), payload_crc_,
                              blob_len);
  return status_;
}

Status CheckpointWriter::Finish() {
  SGQ_CHECK(!in_section_) << "Finish inside section";
  const std::string_view end_magic(kCheckpointEndMagic,
                                   sizeof(kCheckpointEndMagic));
  SGQ_RETURN_NOT_OK(Put(end_magic));
  body_crc_ = Crc32(end_magic, body_crc_);
  body_len_ += end_magic.size();
  const std::string header = Header(num_sections_);
  std::string footer;
  PutU32(&footer, Crc32Combine(Crc32(header), body_crc_, body_len_));
  SGQ_RETURN_NOT_OK(Put(footer));
  constexpr std::size_t kCountAt = kHeaderBytes - 4;
  status_ = sink_->WriteAt(kCountAt, std::string_view(header).substr(kCountAt));
  return status_;
}

// ---------------------------------------------------------------------------
// PayloadOut
// ---------------------------------------------------------------------------

void PayloadOut::Drain() {
  // A failed writer keeps its error; the bytes are dropped either way so
  // the buffer stays one piece.
  if (blob_ == Blob::kBuffered) {
    // The open blob outgrew the piece: the writer takes it from its
    // length field on and backpatches the length at EndBlob.
    const std::string_view bytes(buf_);
    (void)writer_->Append(bytes.substr(0, blob_at_));
    (void)writer_->BeginBlob();
    (void)writer_->Append(bytes.substr(blob_at_ + 4));
    blob_ = Blob::kInWriter;
  } else if (!buf_.empty()) {
    (void)writer_->Append(buf_);
  }
  buf_.clear();
}

Status PayloadOut::Flush() {
  if (writer_ == nullptr) return Status::OK();
  Drain();
  return writer_->status();
}

void PayloadOut::BeginBlob() {
  SGQ_CHECK(blob_ == Blob::kNone) << "nested blob";
  blob_ = Blob::kBuffered;
  blob_at_ = buf_.size();
  PutU32(&buf_, 0);
}

void PayloadOut::EndBlob() {
  SGQ_CHECK(blob_ != Blob::kNone) << "EndBlob without BeginBlob";
  if (blob_ == Blob::kInWriter) {
    blob_ = Blob::kNone;
    Drain();
    (void)writer_->EndBlob();
    return;
  }
  blob_ = Blob::kNone;
  const auto length = static_cast<std::uint32_t>(buf_.size() - blob_at_ - 4);
  for (int i = 0; i < 4; ++i) {
    buf_[blob_at_ + i] = static_cast<char>((length >> (8 * i)) & 0xFF);
  }
}

CheckpointFile::CheckpointFile(std::string path)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp"),
      sink_(tmp_),
      writer_(&sink_) {}

CheckpointFile::~CheckpointFile() {
  if (committed_) return;
  sink_.Close();
  std::remove(tmp_.c_str());
}

Status CheckpointFile::Commit() {
  // Never expose a partially written file under the final name: force the
  // temp file to stable storage, then rename — POSIX rename(2) atomically
  // replaces any previous checkpoint. Any failure leaves the temp file to
  // the destructor.
  SGQ_RETURN_NOT_OK(writer_.status());
  SGQ_RETURN_NOT_OK(sink_.Sync());
  SGQ_RETURN_NOT_OK(sink_.Close());
  errno = 0;
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    return Status::Internal("cannot rename " + tmp_ + " to " + path_ + ": " +
                            ErrnoText(errno));
  }
  committed_ = true;
#if !defined(_WIN32)
  // The rename is only durable once the directory entry is flushed.
  const std::string dir = DirName(path_);
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointReader
// ---------------------------------------------------------------------------

Result<CheckpointReader> CheckpointReader::Parse(std::string bytes,
                                                 std::string context) {
  CheckpointReader reader;
  reader.bytes_ = std::move(bytes);
  reader.context_ = std::move(context);
  const std::string& buf = reader.bytes_;

  // Footer first: the whole-file CRC proves the image is complete and
  // uncorrupted before any frame is trusted (a truncated file could
  // otherwise still parse if it happened to end on a frame boundary).
  constexpr std::size_t kFooterBytes = sizeof(kCheckpointEndMagic) + 4;
  ByteReader in(buf, reader.context_);
  if (buf.size() < 12 + kFooterBytes) {
    return Status::ParseError(reader.context_ + ": offset 0: file too small "
                              "for an SGQC checkpoint (" +
                              std::to_string(buf.size()) + " bytes)");
  }
  const std::size_t footer_at = buf.size() - kFooterBytes;
  if (std::memcmp(buf.data() + footer_at, kCheckpointEndMagic,
                  sizeof(kCheckpointEndMagic)) != 0) {
    return Status::ParseError(
        reader.context_ + ": offset " + std::to_string(footer_at) +
        ": footer magic missing (truncated or torn checkpoint)");
  }
  ByteReader footer(std::string_view(buf).substr(footer_at + 4),
                    reader.context_);
  const std::uint32_t stored_file_crc = footer.U32();
  const std::uint32_t file_crc = Crc32(buf.data(), footer_at + 4);
  if (stored_file_crc != file_crc) {
    return Status::ParseError(reader.context_ + ": offset " +
                              std::to_string(footer_at + 4) +
                              ": file CRC mismatch (stored " +
                              Hex32(stored_file_crc) + ", computed " +
                              Hex32(file_crc) + ")");
  }

  const std::string_view magic = in.Raw(sizeof(kCheckpointMagic));
  if (std::memcmp(magic.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return Status::ParseError(reader.context_ +
                              ": offset 0: bad magic (not an SGQC file)");
  }
  reader.version_ = in.U32();
  if (reader.version_ != kCheckpointVersion) {
    return Status::ParseError(
        reader.context_ + ": offset 4: unsupported checkpoint version " +
        std::to_string(reader.version_) + " (this build reads version " +
        std::to_string(kCheckpointVersion) + ")");
  }
  const std::uint32_t count = in.U32();
  reader.sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CheckpointSection section;
    const std::uint16_t name_len = in.U16();
    section.name = std::string(in.Raw(name_len));
    section.length = in.U64();
    section.crc = in.U32();
    if (!in.ok()) return in.status();
    const std::uint64_t avail =
        in.offset() <= footer_at ? footer_at - in.offset() : 0;
    if (section.length > avail) {
      return in.Fail("section '" + section.name + "' truncated: payload of " +
                     std::to_string(section.length) + " bytes, have " +
                     std::to_string(avail));
    }
    section.offset = in.offset();
    const std::string_view payload = in.Raw(section.length);
    const std::uint32_t crc = Crc32(payload);
    if (crc != section.crc) {
      return Status::ParseError(
          reader.context_ + ": offset " + std::to_string(section.offset) +
          ": section '" + section.name + "': payload CRC mismatch (stored " +
          Hex32(section.crc) + ", computed " + Hex32(crc) + ")");
    }
    for (const CheckpointSection& prev : reader.sections_) {
      if (prev.name == section.name) {
        return in.Fail("duplicate section '" + section.name + "'");
      }
    }
    reader.sections_.push_back(std::move(section));
  }
  if (in.offset() != footer_at) {
    return in.Fail("unframed bytes between the last section and the footer");
  }
  return reader;
}

Result<CheckpointReader> CheckpointReader::ParseFile(const std::string& path) {
  SGQ_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return Parse(std::move(bytes), path);
}

const CheckpointSection* CheckpointReader::Find(std::string_view name) const {
  for (const CheckpointSection& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Result<ByteReader> CheckpointReader::Open(std::string_view name) const {
  const CheckpointSection* section = Find(name);
  if (section == nullptr) {
    return Status::NotFound(context_ + ": checkpoint has no section '" +
                            std::string(name) + "'");
  }
  return ByteReader(payload(*section),
                    context_ + ": section '" + std::string(name) + "'");
}

}  // namespace sgq
