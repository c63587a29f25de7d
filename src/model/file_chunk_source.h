// Bounded-memory file-backed ChunkedStream (DESIGN.md §6.3): serves the
// chunk contract every stream reader consumes (a ChunkWalkCursor on the
// calling thread, or the ingest pipeline's parse threads) straight from
// a stream file through a sliding readahead window of W chunks, instead
// of materializing the whole file first (ReadFileBytes +
// MakeChunkedStream).
//
// Two serving modes behind one contract (FileIngestMode):
//  - mmap: the file is mapped read-only with MADV_SEQUENTIAL and chunk
//    cursors decode zero-copy views into the mapping; retiring a chunk
//    MADV_DONTNEEDs its pages, so the resident set slides with the
//    window;
//  - buffered: chunks are pread() into a recycled buffer pool (the
//    portable fallback — also what non-mmap platforms get), at most W
//    buffers live at once.
//
// Chunk boundaries are resolved lazily but *sequentially* (CSV newline
// alignment and global line numbers depend on every preceding byte), by
// whichever thread's OpenChunk needs the next unresolved chunk; the
// window bounds how far resolution may run ahead of retirement, so peak
// ingest-buffer memory is O(W · chunk_size) regardless of file size.
// Boundary math is PickNumChunks plus the exact splitting rules of the
// in-memory chunkers, so chunk count, chunk contents, error text (global
// line numbers / absolute byte offsets) and merge order are byte-identical
// to the materialized path — the hard contract the differential tests in
// tests/file_ingest_test.cc pin down.
//
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
#include <string>
#include <vector>

#include "common/result.h"
#include "model/stream_io.h"
#include "model/vocabulary.h"

namespace sgq {

/// \brief Knobs of a file-backed chunk source.
struct FileChunkOptions {
  /// Serving mode; kAuto picks mmap where available.
  FileIngestMode mode = FileIngestMode::kAuto;
  /// Lift the per-chunk non-decreasing-timestamp check (reorder-slack
  /// consumers re-validate downstream), like MakeChunkedStream.
  bool allow_disorder = false;
  /// Lower bound on the chunk count (parser fan-out), like
  /// MakeChunkedStream. workload/harness.h IngestChunking derives it,
  /// and the window below, from the run's parser count.
  std::size_t min_chunks = 1;
  /// Readahead window W: chunks resolved but not yet retired at once.
  /// Clamped to >= 2 so resolution can overlap one parse. Peak
  /// ingest-buffer memory is O(W · ~256 KB).
  std::size_t readahead_chunks = 8;
};

/// \brief Sniffs a stream file's format from its first bytes (SGQB magic
/// vs CSV) without materializing the file.
Result<StreamFormat> DetectStreamFileFormat(const std::string& path);

/// \brief Windowed file-backed ChunkedStream; construct through
/// MakeFileChunkSource. Thread-safe like every ChunkedStream, plus the
/// blocking/abort semantics described in the file comment.
class FileChunkSource : public ChunkedStream {
 public:
  ~FileChunkSource() override;

  FileChunkSource(const FileChunkSource&) = delete;
  FileChunkSource& operator=(const FileChunkSource&) = delete;

  std::size_t NumChunks() const override { return chunks_.size(); }
  std::unique_ptr<StreamCursor> OpenChunk(std::size_t i) const override;
  StreamFormat format() const override { return format_; }
  void Abort() const override;
  std::uint64_t ReadaheadStallNs() const override {
    return stall_ns_.load(std::memory_order_relaxed);
  }

  /// \brief The serving mode actually in effect (kAuto resolved; pipes
  /// and empty files degrade to a resident buffer reported as kBuffered).
  FileIngestMode mode() const { return mode_; }

  /// \brief Total stream bytes on disk.
  std::uint64_t file_size() const { return file_size_; }

  /// \brief The resolved readahead window W.
  std::size_t window_chunks() const { return window_; }

  /// \brief High-water mark of resident chunk payload bytes — the number
  /// the RSS-bound test asserts is O(window), independent of file size.
  /// (For the materialize fallback — pipes — this is the whole stream.)
  std::uint64_t peak_resident_bytes() const;

 private:
  friend Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
      const std::string& path, StreamFormat format, Vocabulary* vocab,
      const FileChunkOptions& options);

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
    std::string buffer;            ///< buffered mode: resident bytes
  };

  /// \brief What LoadChunk produced off-lock.
  struct LoadResult {
    Status status = Status::OK();
    std::uint64_t end = 0;         ///< resolved end (CSV boundary scan)
    std::size_t newlines = 0;      ///< CSV: '\n' count in [begin, end)
    std::string buffer;            ///< buffered mode: the chunk's bytes
  };

  FileChunkSource() = default;

  /// \brief Resolves chunk `k`'s boundary and loads its bytes. Runs
  /// without the lock (`mu_` protects only the application of results).
  LoadResult LoadChunk(std::size_t k, std::uint64_t begin,
                       std::string recycled) const;

  /// \brief Re-loads a retired chunk's bytes (buffered mode) — rare,
  /// test-only reopening; boundary already known.
  Status ReloadChunk(ChunkState* c) const;

  /// \brief Cursor-destruction callback: releases the chunk's window
  /// slot once every cursor over it is gone.
  void RetireChunk(std::size_t i) const;

  std::unique_ptr<StreamCursor> MakeChunkCursor(const ChunkState& c) const;

  std::string path_;
  StreamFormat format_ = StreamFormat::kCsv;
  FileIngestMode mode_ = FileIngestMode::kBuffered;
  Vocabulary* vocab_ = nullptr;
  bool allow_disorder_ = false;
  std::size_t window_ = 2;
  std::uint64_t file_size_ = 0;

  int fd_ = -1;                       ///< POSIX read handle (buffered/mmap)
  const char* map_ = nullptr;         ///< mmap base (mmap mode)
  std::size_t map_size_ = 0;
  std::string owned_;                 ///< materialize fallback (pipes/empty)
  bool materialized_ = false;

  std::shared_ptr<const BinaryStreamHeader> header_;  ///< binary only

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<ChunkState> chunks_;
  mutable std::size_t next_unresolved_ = 0;
  mutable std::uint64_t next_begin_ = 0;   ///< CSV: next chunk's begin
  mutable std::size_t lines_so_far_ = 0;   ///< CSV: '\n' before next_begin_
  mutable std::size_t resident_ = 0;       ///< loaded (unretired) chunks
  mutable bool resolving_ = false;         ///< a thread is off-lock in I/O
  mutable bool aborted_ = false;
  mutable Status feeder_error_ = Status::OK();  ///< sticky load failure
  mutable std::size_t failed_chunk_ = 0;   ///< first chunk the error hit
  mutable std::vector<std::string> free_buffers_;  ///< buffered recycle pool
  mutable std::uint64_t resident_bytes_ = 0;
  mutable std::uint64_t peak_resident_bytes_ = 0;
  mutable std::atomic<std::uint64_t> stall_ns_{0};
};

/// \brief Opens `path` as a windowed chunk source for `format` (no
/// sniffing — pair with DetectStreamFileFormat). Binary headers parse
/// here, once, deterministically (buffered mode reads a growing prefix
/// until the dictionaries fit; mmap parses in place); CSV defers all
/// boundary work to the lazy window. Errors: missing file / directory /
/// unreadable input, and binary header errors — identical text to the
/// materialized MakeChunkedStream path.
Result<std::unique_ptr<FileChunkSource>> MakeFileChunkSource(
    const std::string& path, StreamFormat format, Vocabulary* vocab,
    const FileChunkOptions& options = {});

}  // namespace sgq

#endif  // SGQ_MODEL_FILE_CHUNK_SOURCE_H_
