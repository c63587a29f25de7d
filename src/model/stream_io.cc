#include "model/stream_io.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#if !defined(_WIN32)
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/string_util.h"
#include "model/checkpoint.h"

namespace sgq {

namespace {

/// \brief Parses one trimmed, non-empty CSV line into `*sge`. `last_t` is
/// the previous element's timestamp (ordering check, skipped when
/// `allow_disorder`). Error messages carry the 1-based `line_no`.
Status ParseStreamLine(std::string_view line, std::size_t line_no,
                       Vocabulary* vocab, bool allow_disorder,
                       Timestamp last_t, Sge* sge) {
  std::vector<std::string> fields = SplitString(line, ',');
  if (fields.size() != 4 && fields.size() != 5) {
    return Status::ParseError("line " + std::to_string(line_no) +
                              ": expected 4 or 5 fields, got " +
                              std::to_string(fields.size()));
  }
  const std::string_view src = TrimString(fields[0]);
  const std::string_view label = TrimString(fields[1]);
  const std::string_view trg = TrimString(fields[2]);
  if (src.empty() || label.empty() || trg.empty()) {
    return Status::ParseError("line " + std::to_string(line_no) +
                              ": empty src/label/trg field");
  }
  sge->src = vocab->InternVertex(src);
  {
    auto interned = vocab->InternInputLabel(label);
    if (!interned.ok()) {
      return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                interned.status().message());
    }
    sge->label = *interned;
  }
  sge->trg = vocab->InternVertex(trg);
  // Strict integer parse: "12abc" and the like must error, not silently
  // truncate.
  if (!ParseInt64(TrimString(fields[3]), &sge->t)) {
    return Status::ParseError("line " + std::to_string(line_no) +
                              ": bad timestamp '" + fields[3] + "'");
  }
  if (sge->t < kMinTimestamp) {
    return Status::ParseError("line " + std::to_string(line_no) +
                              ": negative timestamp " +
                              std::to_string(sge->t) +
                              " (time domain is non-negative)");
  }
  if (!allow_disorder && sge->t < last_t) {
    return Status::ParseError(
        "line " + std::to_string(line_no) +
        ": timestamps must be non-decreasing (got " +
        std::to_string(sge->t) + " after " + std::to_string(last_t) + ")");
  }
  sge->is_deletion = false;
  if (fields.size() == 5) {
    std::string_view op = TrimString(fields[4]);
    if (op == "-") {
      sge->is_deletion = true;
    } else if (op != "+") {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": op must be '+' or '-'");
    }
  }
  return Status::OK();
}

// --- little-endian scalar decode (portable, no aliasing); encoding uses
// the PutU* helpers of model/checkpoint.h ---

std::uint16_t GetU16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

Status TruncatedHeader(std::size_t need, std::size_t have) {
  return Status::ParseError("binary stream: truncated header (need " +
                            std::to_string(need) + " bytes, have " +
                            std::to_string(have) + ")");
}

/// \brief Decodes one 24-byte record at absolute byte offset `abs` into
/// `*sge`, resolving dictionary indexes through `header`.
Status DecodeRecord(const char* p, std::size_t abs,
                    const BinaryStreamHeader& header, bool allow_disorder,
                    Timestamp last_t, Sge* sge) {
  const std::uint64_t raw_t = GetU64(p);
  sge->t = static_cast<Timestamp>(raw_t);
  const std::uint32_t src = GetU32(p + 8);
  const std::uint32_t trg = GetU32(p + 12);
  const std::uint32_t label = GetU32(p + 16);
  const unsigned char op = static_cast<unsigned char>(p[20]);
  if (sge->t < kMinTimestamp) {
    return Status::ParseError("binary stream offset " + std::to_string(abs) +
                              ": negative timestamp " +
                              std::to_string(sge->t) +
                              " (time domain is non-negative)");
  }
  if (!allow_disorder && sge->t < last_t) {
    return Status::ParseError(
        "binary stream offset " + std::to_string(abs) +
        ": timestamps must be non-decreasing (got " + std::to_string(sge->t) +
        " after " + std::to_string(last_t) + ")");
  }
  if (src >= header.vertices.size() || trg >= header.vertices.size()) {
    return Status::ParseError("binary stream offset " + std::to_string(abs) +
                              ": vertex index out of range (" +
                              std::to_string(src >= header.vertices.size()
                                                 ? src
                                                 : trg) +
                              " >= " + std::to_string(header.vertices.size()) +
                              ")");
  }
  if (label >= header.labels.size()) {
    return Status::ParseError("binary stream offset " + std::to_string(abs) +
                              ": label index out of range (" +
                              std::to_string(label) + " >= " +
                              std::to_string(header.labels.size()) + ")");
  }
  if (op > 1) {
    return Status::ParseError("binary stream offset " + std::to_string(abs) +
                              ": bad op byte " + std::to_string(op) +
                              " (expected 0=insert or 1=delete)");
  }
  sge->src = header.vertices[src];
  sge->trg = header.vertices[trg];
  sge->label = header.labels[label];
  sge->is_deletion = (op == 1);
  return Status::OK();
}

}  // namespace

StreamFormat DetectStreamFormat(std::string_view bytes) {
  if (bytes.size() >= sizeof(kBinaryStreamMagic) &&
      std::memcmp(bytes.data(), kBinaryStreamMagic,
                  sizeof(kBinaryStreamMagic)) == 0) {
    return StreamFormat::kBinary;
  }
  return StreamFormat::kCsv;
}

std::size_t StreamCsvCursor::Next(Sge* out, std::size_t cap) {
  if (!status_.ok()) return 0;
  std::size_t produced = 0;
  const std::string_view text = text_;
  while (produced < cap && offset_ < text.size()) {
    std::size_t end = text.find('\n', offset_);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view raw_line(text.data() + offset_, end - offset_);
    offset_ = end + (end < text.size() ? 1 : 0);
    ++line_no_;
    const std::string_view line = TrimString(raw_line);
    if (line.empty() || line.front() == '#') continue;
    Sge sge;
    status_ = ParseStreamLine(line, line_no_, vocab_, allow_disorder_,
                              last_t_, &sge);
    if (!status_.ok()) return produced;
    last_t_ = sge.t;
    out[produced++] = sge;
  }
  return produced;
}

Result<InputStream> ParseStreamCsv(const std::string& text,
                                   Vocabulary* vocab) {
  InputStream stream;
  StreamCsvCursor cursor(text, vocab);
  Sge buffer[256];
  for (;;) {
    const std::size_t n = cursor.Next(buffer, 256);
    if (n == 0) break;
    stream.insert(stream.end(), buffer, buffer + n);
  }
  if (!cursor.ok()) return cursor.status();
  return stream;
}

void AppendCsvLine(const Sge& sge, const Vocabulary& vocab,
                   std::string* out) {
  out->append(vocab.VertexName(sge.src));
  out->push_back(',');
  out->append(vocab.LabelName(sge.label));
  out->push_back(',');
  out->append(vocab.VertexName(sge.trg));
  out->push_back(',');
  out->append(std::to_string(sge.t));
  if (sge.is_deletion) out->append(",-");
  out->push_back('\n');
}

std::string FormatStreamCsv(const InputStream& stream,
                            const Vocabulary& vocab) {
  std::string out;
  for (const Sge& sge : stream) AppendCsvLine(sge, vocab, &out);
  return out;
}

Result<BinaryStreamHeader> ParseBinaryStreamHeader(std::string_view bytes,
                                                   Vocabulary* vocab) {
  return ParseBinaryStreamHeaderPrefix(bytes, bytes.size(), vocab);
}

Result<BinaryStreamHeader> ParseBinaryStreamHeaderPrefix(
    std::string_view bytes, std::uint64_t total_bytes, Vocabulary* vocab) {
  constexpr std::size_t kFixedHeader = 24;  // magic + version + counts
  if (bytes.size() < sizeof(kBinaryStreamMagic) ||
      std::memcmp(bytes.data(), kBinaryStreamMagic,
                  sizeof(kBinaryStreamMagic)) != 0) {
    return Status::ParseError(
        "binary stream: bad magic (expected \"SGQB\")");
  }
  if (bytes.size() < kFixedHeader) {
    return TruncatedHeader(kFixedHeader, bytes.size());
  }
  const std::uint32_t version = GetU32(bytes.data() + 4);
  if (version != kBinaryStreamVersion) {
    return Status::ParseError("binary stream: unsupported version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kBinaryStreamVersion) + ")");
  }
  BinaryStreamHeader header;
  const std::uint32_t label_count = GetU32(bytes.data() + 8);
  const std::uint32_t vertex_count = GetU32(bytes.data() + 12);
  header.num_records = GetU64(bytes.data() + 16);

  std::size_t off = kFixedHeader;
  header.labels.reserve(label_count);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    if (off + 2 > bytes.size()) return TruncatedHeader(off + 2, bytes.size());
    const std::uint16_t len = GetU16(bytes.data() + off);
    off += 2;
    if (off + len > bytes.size()) {
      return TruncatedHeader(off + len, bytes.size());
    }
    const std::string_view name(bytes.data() + off, len);
    off += len;
    if (name.empty()) {
      return Status::ParseError("binary stream: empty label name in "
                                "dictionary entry " + std::to_string(i));
    }
    auto interned = vocab->InternInputLabel(name);
    if (!interned.ok()) {
      return Status::ParseError("binary stream: label dictionary entry " +
                                std::to_string(i) + ": " +
                                interned.status().message());
    }
    header.labels.push_back(*interned);
  }
  header.vertices.reserve(vertex_count);
  for (std::uint32_t i = 0; i < vertex_count; ++i) {
    if (off + 2 > bytes.size()) return TruncatedHeader(off + 2, bytes.size());
    const std::uint16_t len = GetU16(bytes.data() + off);
    off += 2;
    if (off + len > bytes.size()) {
      return TruncatedHeader(off + len, bytes.size());
    }
    const std::string_view name(bytes.data() + off, len);
    off += len;
    if (name.empty()) {
      return Status::ParseError("binary stream: empty vertex name in "
                                "dictionary entry " + std::to_string(i));
    }
    header.vertices.push_back(vocab->InternVertex(name));
  }
  header.records_offset = off;

  const std::uint64_t record_bytes = total_bytes - off;
  if (header.num_records > record_bytes / kBinaryRecordBytes) {
    return Status::ParseError(
        "binary stream: truncated records (header promises " +
        std::to_string(header.num_records) + " records, region holds " +
        std::to_string(record_bytes / kBinaryRecordBytes) + ")");
  }
  if (record_bytes != header.num_records * kBinaryRecordBytes) {
    return Status::ParseError(
        "binary stream: trailing garbage after records (region is " +
        std::to_string(record_bytes) + " bytes, expected " +
        std::to_string(header.num_records * kBinaryRecordBytes) + ")");
  }
  return header;
}

BinaryStreamCursor::BinaryStreamCursor(const std::string& bytes,
                                       Vocabulary* vocab,
                                       bool allow_disorder)
    : allow_disorder_(allow_disorder) {
  auto header = ParseBinaryStreamHeader(bytes, vocab);
  if (!header.ok()) {
    status_ = header.status();
    return;
  }
  base_offset_ = header->records_offset;
  records_ = std::string_view(bytes).substr(header->records_offset);
  header_ = std::make_shared<const BinaryStreamHeader>(*std::move(header));
}

BinaryStreamCursor::BinaryStreamCursor(
    std::shared_ptr<const BinaryStreamHeader> header,
    std::string_view records, std::size_t base_offset, bool allow_disorder)
    : header_(std::move(header)),
      records_(records),
      base_offset_(base_offset),
      allow_disorder_(allow_disorder) {
  if (records_.size() % kBinaryRecordBytes != 0) {
    status_ = Status::InvalidArgument(
        "binary stream chunk is not record-aligned");
  }
}

std::size_t BinaryStreamCursor::Next(Sge* out, std::size_t cap) {
  if (!status_.ok()) return 0;
  std::size_t produced = 0;
  while (produced < cap && pos_ + kBinaryRecordBytes <= records_.size()) {
    Sge sge;
    status_ = DecodeRecord(records_.data() + pos_, base_offset_ + pos_,
                           *header_, allow_disorder_, last_t_, &sge);
    if (!status_.ok()) return produced;
    pos_ += kBinaryRecordBytes;
    last_t_ = sge.t;
    out[produced++] = sge;
  }
  return produced;
}

Result<InputStream> ParseStreamBinary(const std::string& bytes,
                                      Vocabulary* vocab) {
  InputStream stream;
  BinaryStreamCursor cursor(bytes, vocab);
  Sge buffer[256];
  for (;;) {
    const std::size_t n = cursor.Next(buffer, 256);
    if (n == 0) break;
    stream.insert(stream.end(), buffer, buffer + n);
  }
  if (!cursor.ok()) return cursor.status();
  return stream;
}

Result<std::string> FormatStreamBinary(const InputStream& stream,
                                       const Vocabulary& vocab) {
  // First-use-order dictionaries: walk the stream once assigning dense
  // indexes, so a fresh CSV parse and a binary decode intern identically.
  std::unordered_map<LabelId, std::uint32_t> label_index;
  std::unordered_map<VertexId, std::uint32_t> vertex_index;
  std::vector<LabelId> labels;
  std::vector<VertexId> vertices;
  const auto vertex_idx = [&](VertexId v) {
    auto [it, inserted] =
        vertex_index.emplace(v, static_cast<std::uint32_t>(vertices.size()));
    if (inserted) vertices.push_back(v);
    return it->second;
  };
  const auto label_idx = [&](LabelId l) {
    auto [it, inserted] =
        label_index.emplace(l, static_cast<std::uint32_t>(labels.size()));
    if (inserted) labels.push_back(l);
    return it->second;
  };
  struct Encoded {
    std::uint32_t src, trg, label;
  };
  std::vector<Encoded> encoded;
  encoded.reserve(stream.size());
  for (const Sge& sge : stream) {
    Encoded e;
    // CSV intern order is src, label, trg per line; match it exactly.
    e.src = vertex_idx(sge.src);
    e.label = label_idx(sge.label);
    e.trg = vertex_idx(sge.trg);
    encoded.push_back(e);
    if (labels.size() > UINT32_MAX || vertices.size() > UINT32_MAX) {
      return Status::Unsupported(
          "binary stream: more than 2^32 - 1 distinct labels/vertices");
    }
  }

  std::string out;
  out.reserve(64 + stream.size() * kBinaryRecordBytes);
  SGQ_RETURN_NOT_OK(AppendBinaryStreamHeader(
      labels, vertices, static_cast<std::uint64_t>(stream.size()), vocab,
      &out));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    AppendBinaryStreamRecord(stream[i], encoded[i].src, encoded[i].trg,
                             encoded[i].label, &out);
  }
  return out;
}

Status AppendBinaryStreamHeader(const std::vector<LabelId>& labels,
                                const std::vector<VertexId>& vertices,
                                std::uint64_t num_records,
                                const Vocabulary& vocab, std::string* out) {
  out->append(kBinaryStreamMagic, sizeof(kBinaryStreamMagic));
  PutU32(out, kBinaryStreamVersion);
  PutU32(out, static_cast<std::uint32_t>(labels.size()));
  PutU32(out, static_cast<std::uint32_t>(vertices.size()));
  PutU64(out, num_records);
  const auto put_name = [out](const std::string& name) -> Status {
    if (name.size() > UINT16_MAX) {
      return Status::Unsupported("binary stream: name longer than 64 KiB: " +
                                 name.substr(0, 32) + "…");
    }
    PutU16(out, static_cast<std::uint16_t>(name.size()));
    out->append(name);
    return Status::OK();
  };
  for (LabelId l : labels) SGQ_RETURN_NOT_OK(put_name(vocab.LabelName(l)));
  for (VertexId v : vertices) {
    SGQ_RETURN_NOT_OK(put_name(vocab.VertexName(v)));
  }
  return Status::OK();
}

void AppendBinaryStreamRecord(const Sge& sge, std::uint32_t src,
                              std::uint32_t trg, std::uint32_t label,
                              std::string* out) {
  PutU64(out, static_cast<std::uint64_t>(sge.t));
  PutU32(out, src);
  PutU32(out, trg);
  PutU32(out, label);
  out->push_back(sge.is_deletion ? 1 : 0);
  out->append(3, '\0');
}

Status ChunkBoundaryError(std::size_t chunk, Timestamp got, Timestamp prev) {
  return Status::ParseError(
      "chunk " + std::to_string(chunk) +
      ": timestamps must be non-decreasing across chunk boundaries (got " +
      std::to_string(got) + " after " + std::to_string(prev) + ")");
}

std::size_t ChunkWalkCursor::Next(Sge* buf, std::size_t cap) {
  if (!status_.ok()) return 0;
  for (;;) {
    if (cursor_ == nullptr) {
      if (next_chunk_ >= stream_.NumChunks()) return 0;
      chunk_ = next_chunk_++;
      cursor_ = stream_.OpenChunk(chunk_);
      fresh_chunk_ = true;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = cursor_->Next(buf, cap);
    busy_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (n > 0) {
      if (fresh_chunk_ && check_order_ && buf[0].t < last_t_) {
        status_ = ChunkBoundaryError(chunk_, buf[0].t, last_t_);
        return 0;
      }
      fresh_chunk_ = false;
      last_t_ = buf[n - 1].t;
      return n;
    }
    if (!cursor_->ok()) {
      status_ = cursor_->status();
      return 0;
    }
    // Dropping the cursor before opening the successor retires the chunk
    // on windowed file sources — exactly one chunk stays resident.
    cursor_.reset();
  }
}

namespace {

/// \brief errno rendered for error messages, with a fallback for the
/// cases (logical stream-state failures) where the C library left errno
/// untouched.
std::string ErrnoText(int err) {
  if (err == 0) return "unknown error";
  return std::strerror(err);
}

}  // namespace

Result<std::string> ReadFileBytes(const std::string& path) {
  // ifstream happily opens a directory on POSIX and only fails at the
  // first read (EISDIR) — catch it up front with a clear message. The
  // same stat sizes the result up front, so a large file (a restored
  // checkpoint) costs one allocation of its size, not a doubling series.
  std::size_t size_hint = 0;
#if !defined(_WIN32)
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) {
      return Status::InvalidArgument("cannot open stream file: " + path +
                                     ": is a directory");
    }
    if (S_ISREG(st.st_mode)) size_hint = static_cast<std::size_t>(st.st_size);
  }
#endif
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open stream file: " + path + ": " +
                            ErrnoText(errno));
  }
  std::string out;
  out.reserve(size_hint);
  char buffer[kStreamIoBufferBytes];
  errno = 0;
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    out.append(buffer, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    return Status::Internal("read error on stream file: " + path + ": " +
                            ErrnoText(errno));
  }
  return out;
}

FileByteSink::FileByteSink(const std::string& path) : path_(path) {
  errno = 0;
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = Status::NotFound("cannot create file: " + path + ": " +
                               ErrnoText(errno));
    return;
  }
  buffer_.reserve(kStreamIoBufferBytes);
}

FileByteSink::~FileByteSink() { Close(); }

Status FileByteSink::Flush() {
  if (!status_.ok() || buffer_.empty()) return status_;
  errno = 0;
  const std::size_t wrote =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  if (wrote != buffer_.size()) {
    status_ = Status::Internal(
        "short write on file: " + path_ + ": wrote " + std::to_string(wrote) +
        " of " + std::to_string(buffer_.size()) + " bytes: " +
        ErrnoText(errno));
  }
  buffer_.clear();
  return status_;
}

Status FileByteSink::Sync() {
  SGQ_RETURN_NOT_OK(Flush());
  errno = 0;
  if (std::fflush(file_) != 0) {
    status_ = Status::Internal("flush error on file: " + path_ + ": " +
                               ErrnoText(errno));
    return status_;
  }
#if !defined(_WIN32)
  errno = 0;
  if (::fsync(::fileno(file_)) != 0) {
    status_ = Status::Internal("fsync error on file: " + path_ + ": " +
                               ErrnoText(errno));
  }
#endif
  return status_;
}

Status FileByteSink::Append(std::string_view bytes) {
  if (!status_.ok()) return status_;
  bytes_written_ += bytes.size();
  while (!bytes.empty()) {
    const std::size_t room = kStreamIoBufferBytes - buffer_.size();
    const std::size_t n = std::min(room, bytes.size());
    buffer_.append(bytes.data(), n);
    bytes.remove_prefix(n);
    if (buffer_.size() == kStreamIoBufferBytes) {
      SGQ_RETURN_NOT_OK(Flush());
    }
  }
  return status_;
}

Status FileByteSink::WriteAt(std::uint64_t offset, std::string_view bytes) {
  SGQ_RETURN_NOT_OK(Flush());
  if (offset > bytes_written_ || bytes.size() > bytes_written_ - offset) {
    return Status::Internal("positioned write past the end of file: " +
                            path_);
  }
  // Seek, overwrite, seek back to the end, where appends continue.
  errno = 0;
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size() ||
      std::fseek(file_, 0, SEEK_END) != 0) {
    status_ = Status::Internal("positioned write error on file: " + path_ +
                               " at offset " + std::to_string(offset) + ": " +
                               ErrnoText(errno));
  }
  return status_;
}

Status FileByteSink::Close() {
  if (file_ == nullptr) return status_;
  Flush();
  errno = 0;
  if (std::fclose(file_) != 0 && status_.ok()) {
    status_ = Status::Internal("write error on file: " + path_ + ": " +
                               ErrnoText(errno));
  }
  file_ = nullptr;
  return status_;
}

Status WriteFileBytes(const std::string& path, std::string_view bytes) {
  FileByteSink sink(path);
  SGQ_RETURN_NOT_OK(sink.Append(bytes));
  return sink.Close();
}

Result<InputStream> ReadStreamFile(const std::string& path,
                                   Vocabulary* vocab) {
  SGQ_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  if (DetectStreamFormat(bytes) == StreamFormat::kBinary) {
    return ParseStreamBinary(bytes, vocab);
  }
  return ParseStreamCsv(bytes, vocab);
}

}  // namespace sgq
