#include "model/file_chunk_source.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/logging.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define SGQ_FILE_SOURCE_POSIX 1
#endif

namespace sgq {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

std::string ErrnoText(int err) {
  if (err == 0) return "unknown error";
  return std::strerror(err);
}

/// \brief Chunk sizing: at least `min_chunks` chunks so every parser
/// thread has work even on small inputs, but no smaller than ~256 KB per
/// chunk on large inputs (finer slicing only adds merge overhead).
std::size_t PickNumChunks(std::uint64_t payload_bytes,
                          std::size_t min_chunks) {
  constexpr std::uint64_t kChunkTargetBytes = 256 * 1024;
  min_chunks = std::max<std::size_t>(min_chunks, 1);
  const std::size_t by_size = static_cast<std::size_t>(
      (payload_bytes + kChunkTargetBytes - 1) / kChunkTargetBytes);
  return std::max(min_chunks, by_size);
}

/// \brief A cursor that is already dead: Next yields nothing and status()
/// carries why (load failures, post-abort opens).
class ErrorCursor : public StreamCursor {
 public:
  explicit ErrorCursor(Status status) : status_(std::move(status)) {}
  std::size_t Next(Sge*, std::size_t) override { return 0; }
  const Status& status() const override { return status_; }

 private:
  Status status_;
};

/// \brief Wraps a chunk cursor so dropping it returns the chunk to the
/// readahead window. The inner cursor is destroyed first — its views die
/// before the bytes can be recycled.
class RetiringCursor : public StreamCursor {
 public:
  RetiringCursor(const FileChunkSource* source, std::size_t chunk,
                 std::unique_ptr<StreamCursor> inner,
                 void (FileChunkSource::*retire)(std::size_t) const)
      : source_(source), chunk_(chunk), retire_(retire),
        inner_(std::move(inner)) {}
  ~RetiringCursor() override {
    inner_.reset();
    (source_->*retire_)(chunk_);
  }

  std::size_t Next(Sge* out, std::size_t cap) override {
    return inner_->Next(out, cap);
  }
  const Status& status() const override { return inner_->status(); }

 private:
  const FileChunkSource* source_;
  std::size_t chunk_;
  void (FileChunkSource::*retire_)(std::size_t) const;
  std::unique_ptr<StreamCursor> inner_;
};

/// \brief pread() exactly `len` bytes at `off`, surviving short reads.
/// Errors name the file and the offset where the read came up short.
Status PreadExact(int fd, char* dst, std::size_t len, std::uint64_t off,
                  const std::string& path) {
#if defined(SGQ_FILE_SOURCE_POSIX)
  while (len > 0) {
    const ssize_t n = ::pread(fd, dst, len, static_cast<off_t>(off));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Internal(
          "read error on stream file: " + path + " at offset " +
          std::to_string(off) + ": " +
          (n == 0 ? std::string("unexpected end of file") : ErrnoText(errno)));
    }
    dst += n;
    len -= static_cast<std::size_t>(n);
    off += static_cast<std::uint64_t>(n);
  }
  return Status::OK();
#else
  (void)fd, (void)dst, (void)len, (void)off, (void)path;
  return Status::Internal("file chunk source: no pread on this platform");
#endif
}

#if defined(SGQ_FILE_SOURCE_POSIX)
/// \brief Reads `fd` to end of input — the resident origin of files that
/// cannot be windowed (pipes: the chunk count needs the size up front).
Status ReadToEnd(int fd, const std::string& path, std::string* out) {
  char block[kStreamIoBufferBytes];
  for (;;) {
    const ssize_t n = ::read(fd, block, sizeof(block));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::Internal("read error on stream file: " + path + ": " +
                              ErrnoText(errno));
    }
    if (n == 0) return Status::OK();
    out->append(block, static_cast<std::size_t>(n));
  }
}
#endif

}  // namespace

FileChunkSource::FileChunkSource(Vocabulary* vocab,
                                 const FileChunkOptions& options)
    : vocab_(vocab),
      allow_disorder_(options.allow_disorder),
      window_(std::max<std::size_t>(options.readahead_chunks, 2)) {}

FileChunkSource::~FileChunkSource() {
#if defined(SGQ_FILE_SOURCE_POSIX)
  if (fd_ >= 0) ::close(fd_);
#endif
}

std::uint64_t FileChunkSource::peak_resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_resident_bytes_;
}

void FileChunkSource::Abort() const {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

Status FileChunkSource::Fill(std::uint64_t begin, std::uint64_t upto,
                             std::string* buffer,
                             std::string_view* view) const {
  const std::size_t len = static_cast<std::size_t>(upto - begin);
  if (fd_ < 0) {
    *view = resident_.substr(static_cast<std::size_t>(begin), len);
    return Status::OK();
  }
  const std::size_t have = buffer->size();
  buffer->resize(len);
  *view = *buffer;
  if (len <= have) return Status::OK();
  return PreadExact(fd_, buffer->data() + have, len - have, begin + have,
                    path_);
}

FileChunkSource::LoadResult FileChunkSource::LoadChunk(
    std::size_t k, std::uint64_t begin, std::string buffer) const {
  LoadResult r;
  r.buffer = std::move(buffer);
  std::string_view view;
  if (format_ == StreamFormat::kBinary) {
    // Record-aligned boundaries were fixed arithmetically at
    // construction; loading is pure byte transfer.
    r.end = chunks_[k].end;
    r.status = Fill(begin, r.end, &r.buffer, &view);
    return r;
  }

  // CSV: the ideal boundary size*(k+1)/n, extended to the first newline
  // at or after it, scanned one I/O block at a time. A chunk whose ideal
  // boundary fell behind its begin collapses to empty (the newline ending
  // the previous chunk is also the first at/after this ideal boundary —
  // boundaries are monotone).
  const std::size_t n = chunks_.size();
  std::uint64_t end = size_;
  if (k + 1 < n) {
    const std::uint64_t ideal =
        (size_ * static_cast<std::uint64_t>(k + 1)) / n;
    if (ideal < begin) {
      r.end = begin;
      return r;
    }
    for (std::uint64_t at = ideal; at < size_;) {
      const std::uint64_t upto = std::min<std::uint64_t>(
          at + kStreamIoBufferBytes, size_);
      r.status = Fill(begin, upto, &r.buffer, &view);
      if (!r.status.ok()) return r;
      const char* from = view.data() + (at - begin);
      const void* nl =
          std::memchr(from, '\n', static_cast<std::size_t>(upto - at));
      if (nl != nullptr) {
        end = at + static_cast<std::uint64_t>(
                       static_cast<const char*>(nl) - from) + 1;
        break;
      }
      at = upto;
    }
  }
  r.status = Fill(begin, end, &r.buffer, &view);
  if (!r.status.ok()) return r;
  r.end = end;
  r.newlines =
      static_cast<std::size_t>(std::count(view.begin(), view.end(), '\n'));
  return r;
}

void FileChunkSource::AdmitChunk(std::size_t k, std::uint64_t begin,
                                 LoadResult r) const {
  ChunkState& c = chunks_[k];
  if (format_ == StreamFormat::kCsv) {
    c.begin = begin;
    c.end = r.end;
    c.base_line = lines_so_far_;
    next_begin_ = r.end;
    lines_so_far_ += r.newlines;
  }
  c.buffer = std::move(r.buffer);
  c.phase = ChunkPhase::kLoaded;
  next_unresolved_ = k + 1;
  ++loaded_;
  HoldChunkBytes(c);
}

void FileChunkSource::HoldChunkBytes(const ChunkState& c) const {
  resident_bytes_ += fd_ < 0 ? c.end - c.begin : c.buffer.capacity();
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
}

std::string FileChunkSource::TakePooledBuffer() const {
  std::string buffer;
  if (!free_buffers_.empty()) {
    buffer = std::move(free_buffers_.back());
    free_buffers_.pop_back();
    resident_bytes_ -= buffer.capacity();
    buffer.clear();  // Fill reads its size as bytes already held
  }
  return buffer;
}

std::unique_ptr<StreamCursor> FileChunkSource::MakeChunkCursor(
    const ChunkState& c) const {
  const std::string_view view =
      fd_ < 0 ? resident_.substr(static_cast<std::size_t>(c.begin),
                                 static_cast<std::size_t>(c.end - c.begin))
              : std::string_view(c.buffer);
  if (format_ == StreamFormat::kBinary) {
    return std::make_unique<BinaryStreamCursor>(
        header_, view, static_cast<std::size_t>(c.begin), allow_disorder_);
  }
  return std::make_unique<StreamCsvCursor>(view, vocab_, allow_disorder_,
                                           c.base_line);
}

std::unique_ptr<StreamCursor> FileChunkSource::OpenChunk(
    std::size_t i) const {
  SGQ_CHECK(i < chunks_.size()) << "chunk index out of range";
  // Resident chunks were all resolved at construction and are never
  // released: nothing to load, wait for or retire.
  if (fd_ < 0) return MakeChunkCursor(chunks_[i]);

  const auto t0 = Clock::now();
  std::unique_ptr<StreamCursor> out;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (aborted_) {
        out = std::make_unique<ErrorCursor>(
            Status::Internal("file chunk feeder aborted"));
        break;
      }
      if (!feeder_error_.ok() && i >= failed_chunk_) {
        out = std::make_unique<ErrorCursor>(feeder_error_);
        break;
      }
      ChunkState& c = chunks_[i];
      if (c.phase == ChunkPhase::kLoaded) {
        ++c.opens;
        out = std::make_unique<RetiringCursor>(
            this, i, MakeChunkCursor(c), &FileChunkSource::RetireChunk);
        break;
      }
      if (c.phase == ChunkPhase::kRetired) {
        // Reopening a retired chunk (a second walk, never the pipeline):
        // the boundary is known, only the bytes need re-reading, into a
        // pooled buffer like any load. Counts against the window
        // high-water mark but does not wait for a slot — a reopened chunk
        // must not deadlock a full window.
        c.phase = ChunkPhase::kLoading;
        std::string buffer = TakePooledBuffer();
        lock.unlock();
        std::string_view view;
        Status reloaded = Fill(c.begin, c.end, &buffer, &view);
        lock.lock();
        if (!reloaded.ok()) {
          c.phase = ChunkPhase::kRetired;
          cv_.notify_all();
          out = std::make_unique<ErrorCursor>(std::move(reloaded));
          break;
        }
        c.buffer = std::move(buffer);
        c.phase = ChunkPhase::kLoaded;
        ++loaded_;
        HoldChunkBytes(c);
        cv_.notify_all();
        continue;
      }
      if (c.phase == ChunkPhase::kLoading) {
        cv_.wait(lock);
        continue;
      }
      // Unresolved: resolution is strictly sequential and windowed.
      if (resolving_ || loaded_ >= window_ || next_unresolved_ > i) {
        cv_.wait(lock);
        continue;
      }
      const std::size_t k = next_unresolved_;
      const std::uint64_t begin =
          format_ == StreamFormat::kBinary ? chunks_[k].begin : next_begin_;
      std::string recycled = TakePooledBuffer();
      resolving_ = true;
      lock.unlock();
      LoadResult r = LoadChunk(k, begin, std::move(recycled));
      lock.lock();
      resolving_ = false;
      if (!r.status.ok()) {
        if (feeder_error_.ok()) {
          feeder_error_ = std::move(r.status);
          failed_chunk_ = k;
        }
      } else {
        AdmitChunk(k, begin, std::move(r));
      }
      cv_.notify_all();
    }
  }
  stall_ns_.fetch_add(ElapsedNs(t0), std::memory_order_relaxed);
  return out;
}

void FileChunkSource::RetireChunk(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  ChunkState& c = chunks_[i];
  if (c.opens > 0) --c.opens;
  if (c.opens > 0 || c.phase != ChunkPhase::kLoaded) return;
  c.phase = ChunkPhase::kRetired;
  --loaded_;
  // The buffer's bytes stay held, in the pool, until a load takes it.
  free_buffers_.push_back(std::move(c.buffer));
  c.buffer = std::string();
  cv_.notify_all();
}

Status FileChunkSource::Split(std::optional<StreamFormat> format,
                              std::size_t min_chunks) {
  // The stream's first bytes, read once: the resident buffer, or a pread
  // prefix that also serves as the first binary-header attempt.
  std::string prefix_buffer;
  std::string_view prefix = resident_;
  if (fd_ >= 0 && format != StreamFormat::kCsv) {
    SGQ_RETURN_NOT_OK(Fill(0, std::min<std::uint64_t>(
                                  size_, 2 * kStreamIoBufferBytes),
                           &prefix_buffer, &prefix));
  }
  format_ = format.value_or(DetectStreamFormat(prefix));

  if (format_ == StreamFormat::kCsv) {
    chunks_.resize(PickNumChunks(size_, min_chunks));
  } else {
    // Parse the header once, up front (deterministic interning), growing
    // a pread prefix only while the dictionaries extend past it. Any
    // other failure (bad magic, bad version, bad counts) is final and
    // matches the whole-buffer parse's text.
    Result<BinaryStreamHeader> parsed =
        ParseBinaryStreamHeaderPrefix(prefix, size_, vocab_);
    while (!parsed.ok() && prefix.size() < size_ &&
           parsed.status().message().find("truncated header") !=
               std::string::npos) {
      SGQ_RETURN_NOT_OK(
          Fill(0, std::min<std::uint64_t>(size_, 4 * prefix.size()),
               &prefix_buffer, &prefix));
      parsed = ParseBinaryStreamHeaderPrefix(prefix, size_, vocab_);
    }
    SGQ_RETURN_NOT_OK(parsed.status());
    const std::uint64_t records = parsed->num_records;
    const std::uint64_t records_offset = parsed->records_offset;
    header_ = std::make_shared<const BinaryStreamHeader>(
        std::move(parsed).ValueOrDie());
    const std::size_t n = PickNumChunks(records * kBinaryRecordBytes,
                                        min_chunks);
    chunks_.resize(n);
    std::uint64_t begin = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t end =
          std::max(begin, (i + 1 == n) ? records
                                       : (records * (i + 1)) / n);
      chunks_[i].begin = records_offset + begin * kBinaryRecordBytes;
      chunks_[i].end = records_offset + end * kBinaryRecordBytes;
      begin = end;
    }
  }

  if (fd_ < 0) {
    // Resident: resolve every chunk now, so OpenChunk never waits.
    window_ = chunks_.size();
    for (std::size_t k = 0; k < chunks_.size(); ++k) {
      const std::uint64_t begin =
          format_ == StreamFormat::kBinary ? chunks_[k].begin : next_begin_;
      AdmitChunk(k, begin, LoadChunk(k, begin, std::string()));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<ChunkedStream>> MakeChunkedStream(
    const std::string& bytes, std::optional<StreamFormat> format,
    Vocabulary* vocab, bool allow_disorder, std::size_t min_chunks) {
  FileChunkOptions options;
  options.allow_disorder = allow_disorder;
  auto source =
      std::unique_ptr<FileChunkSource>(new FileChunkSource(vocab, options));
  source->resident_ = bytes;
  source->size_ = bytes.size();
  SGQ_RETURN_NOT_OK(source->Split(format, min_chunks));
  return std::unique_ptr<ChunkedStream>(std::move(source));
}

Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
    const std::string& path, std::optional<StreamFormat> format,
    Vocabulary* vocab, const FileChunkOptions& options) {
  auto source =
      std::unique_ptr<FileChunkSource>(new FileChunkSource(vocab, options));
  source->path_ = path;
#if defined(SGQ_FILE_SOURCE_POSIX)
  errno = 0;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open stream file: " + path + ": " +
                            ErrnoText(errno));
  }
  source->fd_ = fd;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::Internal("read error on stream file: " + path + ": " +
                            ErrnoText(errno));
  }
  if (S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("cannot open stream file: " + path +
                                   ": is a directory");
  }
  if (S_ISREG(st.st_mode) && st.st_size > 0) {
    source->size_ = static_cast<std::uint64_t>(st.st_size);
  } else {
    // Pipes cannot be windowed (the chunk count needs the size up
    // front), and an empty file has nothing to window: read the input
    // once, from this descriptor — a pipe yields its bytes only once.
    SGQ_RETURN_NOT_OK(ReadToEnd(fd, path, &source->owned_));
    ::close(fd);
    source->fd_ = -1;
  }
#else
  SGQ_ASSIGN_OR_RETURN(source->owned_, ReadFileBytes(path));
#endif
  if (source->fd_ < 0) {
    source->resident_ = source->owned_;
    source->size_ = source->owned_.size();
  }
  SGQ_RETURN_NOT_OK(source->Split(format, options.min_chunks));
  return source;
}

}  // namespace sgq
