// The chunk source (DESIGN.md §6.3): the stream every reader consumes (a
// ChunkWalkCursor on the calling thread, or the ingest pipeline's parse
// threads), pre-split into record-aligned byte-range chunks. CSV chunks
// break at newline boundaries (with global line numbers preserved for
// errors); binary chunks slice the fixed-width record region after one
// shared header parse. Chunk order is stream order: concatenating the
// chunks' elements 0..NumChunks()-1 reproduces the sequential parse
// exactly. Its bytes come from one of two origins:
//  - resident: the whole stream is in memory — borrowed from the caller
//    (MakeChunkedStream), or read once into an owned buffer for pipes,
//    empty files and platforms without pread. Chunks are split at
//    construction and served as views; nothing ever waits or retires.
//  - pread: a regular file is read chunk by chunk into a recycled buffer
//    pool through a sliding readahead window of W chunks, so peak
//    ingest-buffer memory is O(W · chunk_size) regardless of file size.
//
// Both origins split with one rule (LoadChunk): PickNumChunks chunks, CSV
// boundaries at the first newline at or after each ideal boundary
// size·(k+1)/n with global line numbers, binary boundaries by record
// arithmetic after one header parse. So chunk count, chunk contents,
// error text (global line numbers / absolute byte offsets) and merge
// order do not depend on where the bytes come from. The format is either
// given or detected from the first bytes the source reads anyway (the
// resident buffer or the first pread), and reported through format().
//
// Pread chunk boundaries are resolved lazily but *sequentially* (CSV
// newline alignment and global line numbers depend on every preceding
// byte), by whichever thread's OpenChunk needs the next unresolved chunk;
// the window bounds how far resolution may run ahead of retirement.
// Retirement is cursor destruction: OpenChunk wraps each cursor so the
// chunk returns to the window when its parser drops it (the pipeline's
// parse threads and ChunkWalkCursor all drop a chunk's cursor before
// opening the next). Elements carry interned ids only, so retired bytes
// are never referenced again. Abort() (called by the pipeline's merge on
// an aborting run) wakes any parser blocked on the window so teardown
// cannot hang.
//
// Deadlock-freedom: resolved-but-unretired chunks always form a prefix of
// the chunk order. If the window is full, some resident chunk is either
// held open by a parser that can make progress (the merge drains chunks
// in index order, and gutter backpressure always drains eventually
// because execution drains batches), or not yet opened by its owner —
// who is never blocked on the window for a *resolved* chunk. The merge is
// itself parser 0: when it opens its own chunk c, either c is already
// resolved (and, opened by nobody else, still resident), or every
// resident chunk lies below c and is already drained, so its owner
// retires it without waiting on the merge. Every blocked OpenChunk
// therefore eventually unblocks.

#ifndef SGQ_MODEL_FILE_CHUNK_SOURCE_H_
#define SGQ_MODEL_FILE_CHUNK_SOURCE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "model/stream_io.h"
#include "model/vocabulary.h"

namespace sgq {

/// \brief Knobs of a chunk source.
struct FileChunkOptions {
  /// Lift the per-chunk non-decreasing-timestamp check (reorder-slack
  /// consumers re-validate downstream).
  bool allow_disorder = false;
  /// Lower bound on the chunk count (parser fan-out).
  /// workload/harness.h IngestChunking derives it, and the window below,
  /// from the run's parser count.
  std::size_t min_chunks = 1;
  /// Readahead window W of the pread origin: chunks resolved but not yet
  /// retired at once. Clamped to >= 2 so resolution can overlap one
  /// parse. Peak ingest-buffer memory is O(W · ~256 KB).
  std::size_t readahead_chunks = 8;
};

/// \brief A stream split into record-aligned chunks; construct through
/// MakeChunkedStream (resident bytes) or MakeFileChunkSource (a file).
/// Thread-safe, with the blocking/abort semantics of the pread origin
/// described in the file comment.
class FileChunkSource {
 public:
  ~FileChunkSource();

  FileChunkSource(const FileChunkSource&) = delete;
  FileChunkSource& operator=(const FileChunkSource&) = delete;

  std::size_t NumChunks() const { return chunks_.size(); }

  /// \brief Opens a fresh cursor over chunk `i`. Thread-safe: parser
  /// threads call this concurrently for distinct (or even equal) chunks.
  /// May block on a file read through the bounded readahead window until
  /// earlier chunks retire; header errors already surfaced at
  /// construction, so a returned cursor's status() carries any per-chunk
  /// load or parse error.
  std::unique_ptr<StreamCursor> OpenChunk(std::size_t i) const;

  StreamFormat format() const { return format_; }

  /// \brief Wakes any thread blocked inside OpenChunk and makes further
  /// opens fail fast — called by the pipeline's merge when it aborts a
  /// run, so parser threads waiting on the readahead window cannot hang.
  /// No-op for resident sources (nothing ever blocks).
  void Abort() const;

  /// \brief Cumulative nanoseconds callers spent inside the chunk feeder —
  /// pread time plus readahead-window backpressure. 0 for resident
  /// sources.
  std::uint64_t ReadaheadStallNs() const {
    return stall_ns_.load(std::memory_order_relaxed);
  }

  /// \brief Total stream bytes.
  std::uint64_t file_size() const { return size_; }

  /// \brief The resolved readahead window W (every chunk for resident
  /// sources).
  std::size_t window_chunks() const { return window_; }

  /// \brief High-water mark of the bytes the source holds — the number
  /// the RSS-bound test asserts is O(window), independent of file size.
  /// Pread origin: the capacity of every chunk buffer, loaded or pooled
  /// for reuse. Resident sources: every chunk's bytes.
  std::uint64_t peak_resident_bytes() const;

 private:
  friend Result<std::unique_ptr<FileChunkSource>> MakeChunkedStream(
      const std::string& bytes, std::optional<StreamFormat> format,
      Vocabulary* vocab, bool allow_disorder, std::size_t min_chunks);
  friend Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
      const std::string& path, std::optional<StreamFormat> format,
      Vocabulary* vocab, const FileChunkOptions& options);

  enum class ChunkPhase : std::uint8_t {
    kUnresolved,  ///< boundary/bytes not produced yet
    kLoading,     ///< a thread is reloading a retired chunk
    kLoaded,      ///< resident: cursor views are valid
    kRetired,     ///< was resident, window slot released
  };

  struct ChunkState {
    std::uint64_t begin = 0;       ///< absolute byte offset (inclusive)
    std::uint64_t end = 0;         ///< absolute byte offset (exclusive)
    std::size_t base_line = 0;     ///< CSV: lines preceding `begin`
    ChunkPhase phase = ChunkPhase::kUnresolved;
    int opens = 0;                 ///< live cursors over this chunk
    std::string buffer;            ///< pread origin: the chunk's bytes
  };

  /// \brief What LoadChunk produced.
  struct LoadResult {
    Status status = Status::OK();
    std::uint64_t end = 0;         ///< resolved end (CSV boundary scan)
    std::size_t newlines = 0;      ///< CSV: '\n' count in [begin, end)
    std::string buffer;            ///< pread origin: the chunk's bytes
  };

  FileChunkSource(Vocabulary* vocab, const FileChunkOptions& options);

  /// \brief Settles the format (detecting it when not given), parses a
  /// binary header and splits the stream; resident chunks all resolve
  /// here.
  Status Split(std::optional<StreamFormat> format, std::size_t min_chunks);

  /// \brief Stream bytes [begin, upto) as `*view`: a slice of the
  /// resident bytes, or `*buffer` (holding bytes from `begin` on) grown
  /// or shrunk to exactly that range by pread.
  Status Fill(std::uint64_t begin, std::uint64_t upto, std::string* buffer,
              std::string_view* view) const;

  /// \brief Resolves chunk `k`'s boundary from its `begin` — the split
  /// rule — and, for the pread origin, reads its bytes into `buffer`
  /// (recycled). Runs without the lock (`mu_` protects only the
  /// application of results).
  LoadResult LoadChunk(std::size_t k, std::uint64_t begin,
                       std::string buffer) const;

  /// \brief Records a loaded chunk `k` that starts at `begin` (under
  /// `mu_` once other threads can see the source).
  void AdmitChunk(std::size_t k, std::uint64_t begin, LoadResult r) const;

  /// \brief Cursor-destruction callback: releases the chunk's window
  /// slot once every cursor over it is gone; its buffer joins the pool.
  void RetireChunk(std::size_t i) const;

  /// \brief Under `mu_`: adds loaded chunk `c` to the held bytes.
  void HoldChunkBytes(const ChunkState& c) const;

  /// \brief Under `mu_`: an empty buffer for the next load — a pooled
  /// one when there is any, so pread loads allocate at most one buffer
  /// per chunk loaded at once.
  std::string TakePooledBuffer() const;

  std::unique_ptr<StreamCursor> MakeChunkCursor(const ChunkState& c) const;

  std::string path_;                  ///< error context (pread origin)
  StreamFormat format_ = StreamFormat::kCsv;
  Vocabulary* vocab_ = nullptr;
  bool allow_disorder_ = false;
  std::size_t window_ = 2;
  std::uint64_t size_ = 0;

  int fd_ = -1;                       ///< pread origin: open read handle
  std::string owned_;                 ///< resident bytes read from a file
  std::string_view resident_;         ///< resident origin: the stream

  std::shared_ptr<const BinaryStreamHeader> header_;  ///< binary only

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<ChunkState> chunks_;
  mutable std::size_t next_unresolved_ = 0;
  mutable std::uint64_t next_begin_ = 0;   ///< CSV: next chunk's begin
  mutable std::size_t lines_so_far_ = 0;   ///< CSV: '\n' before next_begin_
  mutable std::size_t loaded_ = 0;         ///< loaded (unretired) chunks
  mutable bool resolving_ = false;         ///< a thread is off-lock in I/O
  mutable bool aborted_ = false;
  mutable Status feeder_error_ = Status::OK();  ///< sticky load failure
  mutable std::size_t failed_chunk_ = 0;   ///< first chunk the error hit
  mutable std::vector<std::string> free_buffers_;  ///< pread recycle pool
  mutable std::uint64_t resident_bytes_ = 0;  ///< see peak_resident_bytes
  mutable std::uint64_t peak_resident_bytes_ = 0;
  mutable std::atomic<std::uint64_t> stall_ns_{0};
};

/// \brief Splits `bytes` (borrowed; must outlive the result) into at least
/// `min_chunks` chunks of roughly equal size where the input allows,
/// capped so large inputs get ~256 KB chunks for load balancing — a
/// resident FileChunkSource. `format` std::nullopt detects it from the
/// magic bytes. Binary inputs parse and validate the header here
/// (interning into `*vocab` deterministically); CSV inputs only scan for
/// newline boundaries, so header errors surface here but per-record
/// errors surface from the chunk cursors.
Result<std::unique_ptr<FileChunkSource>> MakeChunkedStream(
    const std::string& bytes, std::optional<StreamFormat> format,
    Vocabulary* vocab, bool allow_disorder, std::size_t min_chunks);

/// \brief Opens `path` as a chunk source: pread through the readahead
/// window for a regular file, resident for anything else (pipes, empty
/// files). `format` std::nullopt detects it from the first bytes read.
/// Binary headers parse here, once, deterministically (a growing pread
/// prefix until the dictionaries fit); CSV defers boundary work to the
/// lazy window. Errors: missing file / directory / unreadable input, and
/// binary header errors — identical text to MakeChunkedStream over the
/// file's bytes.
Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
    const std::string& path, std::optional<StreamFormat> format,
    Vocabulary* vocab, const FileChunkOptions& options = {});

}  // namespace sgq

#endif  // SGQ_MODEL_FILE_CHUNK_SOURCE_H_
