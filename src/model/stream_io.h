// Reading and writing input graph streams, as CSV quads
// (src,label,trg,timestamp[,op]) or as the compact SGQB binary format
// (DESIGN.md §6): a versioned little-endian header carrying the name
// dictionaries followed by fixed-width 24-byte records. Both formats have
// an incremental pull cursor for the async ingest pipeline and a chunked
// view for the sharded multi-parser stage.

#ifndef SGQ_MODEL_STREAM_IO_H_
#define SGQ_MODEL_STREAM_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "model/sgt.h"
#include "model/vocabulary.h"

namespace sgq {

/// \brief On-disk encodings of an input stream.
enum class StreamFormat {
  kCsv,     ///< text quads, one element per line
  kBinary,  ///< SGQB: dictionary header + fixed-width records
};

/// \brief Sniffs the format of a stream buffer: SGQB if it starts with the
/// binary magic, CSV otherwise (CSV lines can never start with the magic
/// because 'S','G','Q','B' would be a 4-field line, but the magic is
/// checked byte-for-byte so there is no ambiguity in practice).
StreamFormat DetectStreamFormat(std::string_view bytes);

/// \brief Pull-based stream parser interface: repeatedly call Next() until
/// it returns 0, then check status() to distinguish end-of-input from a
/// parse error. Implementations intern names through the (internally
/// synchronized) Vocabulary, so Next() is safe to call from an ingest or
/// parser thread while the execution thread resolves names.
class StreamCursor {
 public:
  virtual ~StreamCursor() = default;

  /// \brief Parses up to `cap` elements into `out`; returns how many were
  /// produced. 0 means end of input *or* error — check status(). After an
  /// error the cursor stays at 0 (no resynchronization).
  virtual std::size_t Next(Sge* out, std::size_t cap) = 0;

  virtual const Status& status() const = 0;
  bool ok() const { return status().ok(); }
};

/// \brief Parses a stream from CSV text. Each non-empty line is
/// `src,label,trg,timestamp` with an optional fifth field `+` (insert,
/// default) or `-` (explicit deletion). Lines starting with `#` are skipped.
/// Labels are interned as input labels; vertices are interned on first use.
/// Fails if timestamps are decreasing (Def. 4 requires ordered streams).
Result<InputStream> ParseStreamCsv(const std::string& text,
                                   Vocabulary* vocab);

/// \brief Incremental CSV stream parser: the pull-based counterpart of
/// ParseStreamCsv, built for the async ingest pipeline (DESIGN.md §6) —
/// the ingest thread parses the next micro-batch while the previous one
/// executes, so the cursor must hand out elements a chunk at a time
/// instead of materializing the whole stream up front.
/// `text` is borrowed and must outlive the cursor.
class StreamCsvCursor : public StreamCursor {
 public:
  /// \brief `allow_disorder` lifts the non-decreasing-timestamp check for
  /// sources drained through a reorder-slack stage (ExecutorOptions::
  /// ingest_slack); ParseStreamCsv semantics keep it strict.
  StreamCsvCursor(const std::string& text, Vocabulary* vocab,
                  bool allow_disorder = false)
      : text_(text), vocab_(vocab), allow_disorder_(allow_disorder) {}

  /// \brief Chunk-mode cursor over a slice of a larger CSV stream
  /// (model/file_chunk_source.h): `base_line` is the number of lines
  /// preceding the slice, so errors keep reporting global 1-based line
  /// numbers. The ordering check is chunk-local (starts from
  /// kMinTimestamp); the consumer re-validates across chunk boundaries.
  StreamCsvCursor(std::string_view text, Vocabulary* vocab,
                  bool allow_disorder, std::size_t base_line)
      : text_(text),
        vocab_(vocab),
        allow_disorder_(allow_disorder),
        line_no_(base_line) {}

  std::size_t Next(Sge* out, std::size_t cap) override;

  const Status& status() const override { return status_; }

  /// \brief 1-based line of the last parse attempt (error reporting).
  std::size_t line_number() const { return line_no_; }

 private:
  std::string_view text_;
  Vocabulary* vocab_;
  bool allow_disorder_;
  std::size_t offset_ = 0;
  std::size_t line_no_ = 0;
  Timestamp last_t_ = kMinTimestamp;
  Status status_ = Status::OK();
};

/// \brief Renders a stream back to CSV (inverse of ParseStreamCsv).
std::string FormatStreamCsv(const InputStream& stream,
                            const Vocabulary& vocab);

/// \brief Appends one element's CSV line (trailing newline included) to
/// `*out` — the single definition of the CSV rendering, shared by
/// FormatStreamCsv and the streaming stream_convert path so both emit
/// byte-identical text.
void AppendCsvLine(const Sge& sge, const Vocabulary& vocab,
                   std::string* out);

// ---------------------------------------------------------------------------
// SGQB binary stream format (little-endian throughout):
//
//   offset 0   magic "SGQB" (4 bytes)
//          4   u32  version        (currently 1)
//          8   u32  label_count
//         12   u32  vertex_count
//         16   u64  record_count
//         24   label dictionary:  label_count  × { u16 len, len bytes }
//          …   vertex dictionary: vertex_count × { u16 len, len bytes }
//          …   records:           record_count × 24 bytes
//
// Each record:  i64 timestamp | u32 src | u32 trg | u32 label | u8 op |
// 3 pad bytes (zero). src/trg/label are *dictionary indexes* (not
// Vocabulary ids), so the file is self-contained and readers intern the
// dictionary once, deterministically, regardless of how many parser
// threads later decode records. Dictionaries list names in first-use
// order of the encoded stream — the same order a fresh CSV parse interns
// them — so CSV → binary → CSV round-trips byte- and id-identically.
// Readers reject unknown versions; future revisions bump the version and
// may append header fields after record_count.
// ---------------------------------------------------------------------------

/// \brief SGQB magic bytes and current version.
inline constexpr char kBinaryStreamMagic[4] = {'S', 'G', 'Q', 'B'};
inline constexpr std::uint32_t kBinaryStreamVersion = 1;
/// \brief Bytes per fixed-width SGQB record.
inline constexpr std::size_t kBinaryRecordBytes = 24;
/// \brief Buffer size for stream file I/O (32 KB, the GraphStreamingCC
/// sweet spot for sequential binary reads).
inline constexpr std::size_t kStreamIoBufferBytes = 32 * 1024;

/// \brief Decoded SGQB header: dictionary index → Vocabulary id mappings
/// plus the location of the fixed-width record region. Immutable after
/// parse, so parser threads share one instance.
struct BinaryStreamHeader {
  std::vector<LabelId> labels;     ///< dict index -> interned label id
  std::vector<VertexId> vertices;  ///< dict index -> interned vertex id
  std::size_t records_offset = 0;  ///< absolute byte offset of record 0
  std::uint64_t num_records = 0;
};

/// \brief Parses and validates an SGQB header, interning every dictionary
/// name into `*vocab` (single-threaded — binary streams keep Vocabulary id
/// assignment deterministic even under multi-parser decode). Validates
/// that the record region is exactly record_count × 24 bytes.
Result<BinaryStreamHeader> ParseBinaryStreamHeader(std::string_view bytes,
                                                   Vocabulary* vocab);

/// \brief ParseBinaryStreamHeader over a *prefix* of a larger stream:
/// `total_bytes` is the full stream length, so the record-region check
/// validates against the real file size instead of the prefix. Returns the
/// TruncatedHeader parse error while the dictionaries extend past the
/// prefix — callers grow the prefix and retry until it succeeds or covers
/// the whole stream (at which point the errors match the whole-buffer
/// parse exactly). Powers the buffered file ingest path, which cannot
/// materialize the record region just to find where the header ends.
Result<BinaryStreamHeader> ParseBinaryStreamHeaderPrefix(
    std::string_view prefix, std::uint64_t total_bytes, Vocabulary* vocab);

/// \brief Appends the SGQB header (magic through dictionaries) for the
/// given first-use-order dictionaries to `*out`. Fails on names longer
/// than 64 KiB. Shared by FormatStreamBinary and the streaming
/// stream_convert encoder.
Status AppendBinaryStreamHeader(const std::vector<LabelId>& labels,
                                const std::vector<VertexId>& vertices,
                                std::uint64_t num_records,
                                const Vocabulary& vocab, std::string* out);

/// \brief Appends one fixed-width 24-byte SGQB record. `src`/`trg`/`label`
/// are dictionary indexes (first-use order), not Vocabulary ids.
void AppendBinaryStreamRecord(const Sge& sge, std::uint32_t src,
                              std::uint32_t trg, std::uint32_t label,
                              std::string* out);

/// \brief Incremental SGQB record decoder mirroring StreamCsvCursor. The
/// whole-buffer constructor parses the header eagerly (errors surface via
/// status()); the chunk-mode constructor shares a pre-parsed header and
/// decodes a record-aligned slice. Error messages are tagged with the
/// absolute byte offset of the offending record.
class BinaryStreamCursor : public StreamCursor {
 public:
  /// \brief Whole-buffer cursor: header + all records. `bytes` is borrowed
  /// and must outlive the cursor.
  BinaryStreamCursor(const std::string& bytes, Vocabulary* vocab,
                     bool allow_disorder = false);

  /// \brief Chunk-mode cursor over `records` (a 24-byte-aligned slice of
  /// the record region, borrowed) at absolute byte offset `base_offset`.
  /// Ordering is chunk-local; the consumer re-validates across chunks.
  BinaryStreamCursor(std::shared_ptr<const BinaryStreamHeader> header,
                     std::string_view records, std::size_t base_offset,
                     bool allow_disorder = false);

  std::size_t Next(Sge* out, std::size_t cap) override;

  const Status& status() const override { return status_; }

 private:
  std::shared_ptr<const BinaryStreamHeader> header_;
  std::string_view records_;
  std::size_t base_offset_ = 0;  ///< absolute offset of records_[0]
  std::size_t pos_ = 0;          ///< cursor within records_
  bool allow_disorder_ = false;
  Timestamp last_t_ = kMinTimestamp;
  Status status_ = Status::OK();
};

/// \brief Parses a whole SGQB buffer (binary counterpart of
/// ParseStreamCsv).
Result<InputStream> ParseStreamBinary(const std::string& bytes,
                                      Vocabulary* vocab);

/// \brief Encodes a stream as SGQB (inverse of ParseStreamBinary).
/// Dictionaries are emitted in first-use order of `stream`. Fails only on
/// pathological inputs (a name longer than 64 KiB, or more than 2^32 - 1
/// distinct labels/vertices — the dictionary index width).
Result<std::string> FormatStreamBinary(const InputStream& stream,
                                       const Vocabulary& vocab);

// ---------------------------------------------------------------------------
// Chunked views — the only form in which stream bytes reach the engine:
// a ChunkWalkCursor reads the chunks in order on the calling thread, or
// the ingest pipeline's parse threads (runtime/ingest_pipeline.h) open
// disjoint chunks concurrently and an order-restoring merge reassembles
// elements in chunk order. model/file_chunk_source.h implements it, over
// in-memory bytes or a file.
// ---------------------------------------------------------------------------

/// \brief A stream pre-split into record-aligned byte-range chunks.
/// CSV chunks break at newline boundaries (with global line numbers
/// preserved for errors); binary chunks slice the fixed-width record
/// region after one shared header parse. Chunk order is stream order:
/// concatenating the chunks' elements 0..NumChunks()-1 reproduces the
/// sequential parse exactly.
class ChunkedStream {
 public:
  virtual ~ChunkedStream() = default;

  virtual std::size_t NumChunks() const = 0;

  /// \brief Opens a fresh cursor over chunk `i`. Thread-safe: parser
  /// threads call this concurrently for distinct (or even equal) chunks.
  /// May block on a file read through a bounded readahead window
  /// (model/file_chunk_source.h) until earlier chunks retire; header
  /// errors already surfaced at construction, so a returned cursor's
  /// status() carries any per-chunk load or parse error.
  virtual std::unique_ptr<StreamCursor> OpenChunk(std::size_t i) const = 0;

  virtual StreamFormat format() const = 0;

  /// \brief Wakes any thread blocked inside OpenChunk and makes further
  /// opens fail fast — called by the pipeline's merge when it aborts a
  /// run, so parser threads waiting on the readahead window cannot hang.
  /// No-op for in-memory streams (nothing ever blocks).
  virtual void Abort() const = 0;

  /// \brief Cumulative nanoseconds callers spent inside the chunk feeder —
  /// pread time plus readahead-window backpressure. 0 for in-memory
  /// streams.
  virtual std::uint64_t ReadaheadStallNs() const = 0;
};

/// \brief Sequential walk over a ChunkedStream's cursors — the reader of
/// every synchronous run (workload/harness.h RunSgaText/RunSgaFile, the
/// CLI), feeding Engine::Push on the calling thread: identical element
/// sequence to one cursor over the whole buffer, plus the cross-chunk
/// ordering check the chunk-local cursors cannot perform — the same
/// sequence, and the same first error, the pipelined reader
/// (runtime/ingest_pipeline.h) merges at any parser count. Accounts pure
/// parse time (busy_ns) for parse_tuples_per_sec parity with the
/// pipeline. Retires each chunk (drops its cursor) before opening the
/// next, so windowed file sources keep only one chunk resident.
class ChunkWalkCursor : public StreamCursor {
 public:
  ChunkWalkCursor(const ChunkedStream& stream, bool allow_disorder)
      : stream_(stream), check_order_(!allow_disorder) {}

  std::size_t Next(Sge* buf, std::size_t cap) override;

  const Status& status() const override { return status_; }

  /// \brief Nanoseconds inside the chunk cursors' Next — the pure
  /// tokenize/decode cost.
  std::uint64_t busy_ns() const { return busy_ns_; }

 private:
  const ChunkedStream& stream_;
  const bool check_order_;
  std::unique_ptr<StreamCursor> cursor_;
  std::size_t next_chunk_ = 0;
  std::size_t chunk_ = 0;
  bool fresh_chunk_ = false;
  Timestamp last_t_ = kMinTimestamp;
  std::uint64_t busy_ns_ = 0;
  Status status_ = Status::OK();
};

/// \brief The cross-chunk ordering violation both the pipeline's merge and
/// ChunkWalkCursor report (chunk-local cursors cannot see across a
/// boundary, so the consumer re-validates there).
Status ChunkBoundaryError(std::size_t chunk, Timestamp got, Timestamp prev);

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// \brief Reads a whole file in binary mode with kStreamIoBufferBytes
/// buffered reads. Errors carry the errno text (missing file, directory
/// instead of a file, read failures).
Result<std::string> ReadFileBytes(const std::string& path);

/// \brief Destination of an incrementally written byte image. The
/// checkpoint writer (model/checkpoint.h) streams through it; tests
/// inject failing sinks to simulate ENOSPC / short writes at any byte.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual Status Append(std::string_view bytes) = 0;
  /// \brief Overwrites bytes already appended, starting at `offset` (the
  /// range must lie inside what was appended). Later appends still go
  /// to the end.
  virtual Status WriteAt(std::uint64_t offset, std::string_view bytes) = 0;
  virtual Status Close() = 0;
};

/// \brief Incremental buffered file writer: Append() accumulates into a
/// kStreamIoBufferBytes staging buffer and flushes full buffers to disk,
/// so writers of arbitrarily large outputs (streaming stream_convert,
/// checkpoints) never materialize more than one buffer. Errors (open,
/// short write) carry the errno text, stick, and re-surface from every
/// later call.
class FileByteSink final : public ByteSink {
 public:
  /// \brief Opens `path` for truncating binary write.
  explicit FileByteSink(const std::string& path);
  ~FileByteSink() override;

  FileByteSink(const FileByteSink&) = delete;
  FileByteSink& operator=(const FileByteSink&) = delete;

  /// \brief Buffers `bytes`, flushing in kStreamIoBufferBytes units.
  Status Append(std::string_view bytes) override;

  /// \brief Flushes the staged tail, then overwrites `bytes` in place.
  Status WriteAt(std::uint64_t offset, std::string_view bytes) override;

  /// \brief Pushes the staged tail into the stdio stream. Short writes
  /// surface the errno text and how many bytes were lost, and stick.
  Status Flush();

  /// \brief Flush + fflush + fsync: forces everything appended so far to
  /// stable storage. The durability half of the checkpoint write protocol
  /// (model/checkpoint.h): Sync() before the atomic rename guarantees a
  /// crash after the rename still finds complete checkpoint bytes.
  Status Sync();

  /// \brief Flushes the tail and closes the file. Idempotent; the
  /// destructor calls it, but callers should Close() explicitly to see
  /// the final flush's status.
  Status Close() override;

  /// \brief Bytes accepted so far (buffered bytes included).
  std::uint64_t bytes_written() const { return bytes_written_; }

  const Status& status() const { return status_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::uint64_t bytes_written_ = 0;
  Status status_ = Status::OK();
};

/// \brief Writes `bytes` to `path` in binary mode with
/// kStreamIoBufferBytes buffered writes (FileByteSink one-shot). Errors
/// carry the errno text.
Status WriteFileBytes(const std::string& path, std::string_view bytes);

/// \brief Reads a stream file from disk, auto-detecting CSV vs SGQB by the
/// magic bytes.
Result<InputStream> ReadStreamFile(const std::string& path,
                                   Vocabulary* vocab);

}  // namespace sgq

#endif  // SGQ_MODEL_STREAM_IO_H_
