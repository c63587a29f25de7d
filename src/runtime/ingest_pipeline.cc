#include "runtime/ingest_pipeline.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "core/reorder_buffer.h"
#include "model/stream_io.h"
#include "runtime/executor.h"
#include "runtime/worker_pool.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sgq {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// \brief RAII pin of the calling (execution) thread to `cpu` that
/// restores the previous affinity mask on destruction, so a pinned
/// pipelined run does not leak core affinity into later unpinned runs of
/// the same process (bench binaries interleave both).
class ScopedThreadPin {
 public:
  ScopedThreadPin(bool enable, std::size_t cpu) {
#if defined(__linux__)
    if (!enable) return;
    saved_valid_ = pthread_getaffinity_np(pthread_self(), sizeof(saved_),
                                          &saved_) == 0;
    pinned_ = saved_valid_ && WorkerPool::PinThisThread(cpu);
#else
    (void)enable;
    (void)cpu;
#endif
  }
  ~ScopedThreadPin() {
#if defined(__linux__)
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
#endif
  }

  bool pinned() const { return pinned_; }

 private:
#if defined(__linux__)
  cpu_set_t saved_;
  bool saved_valid_ = false;
#endif
  bool pinned_ = false;
};

/// \brief The slack / batch staging stage of the merge thread: elements
/// pass through the ReorderBuffer when slack is configured, accumulate
/// into batch buffers, and ship on the `full` queue, acquiring
/// replacements from `free` (blocking = the pipeline's backpressure,
/// accounted to `*stall_ns`).
class BatchStager {
 public:
  using Batch = std::vector<Sge>;

  BatchStager(const ExecutorOptions& options, SpscQueue<Batch>* full,
              SpscQueue<Batch>* free_buffers, uint64_t* stall_ns)
      : batch_size_(options.batch_size),
        use_slack_(options.ingest_slack > 0),
        reorder_(options.ingest_slack),
        full_(full),
        free_(free_buffers),
        stall_(stall_ns) {}

  /// \brief Acquires the first staging buffer.
  bool Start() {
    const bool ok = free_->Pop(&current_, stall_);
    SGQ_CHECK(ok) << "free-buffer pool starts prefilled";
    return ok;
  }

  /// \brief Stages one element (through the slack stage when configured);
  /// false when the downstream queue closed mid-run.
  bool Emit(const Sge& sge) {
    if (!use_slack_) return Stage(sge);
    // Slack stage: out-of-order slack is absorbed here, on the producer
    // side, releasing a timestamp-ordered stream into the batches.
    for (const Sge& released : reorder_.Offer(sge)) {
      if (!Stage(released)) return false;
    }
    return true;
  }

  /// \brief Flushes the slack stage and ships any partial batch (skipped
  /// when `ok` is false — the run is aborting). Returns the slack stage's
  /// late-drop count. Call exactly once.
  std::size_t Finish(bool ok) {
    if (ok && use_slack_) {
      for (const Sge& released : reorder_.Flush()) {
        if (!Stage(released)) {
          ok = false;
          break;
        }
      }
    }
    if (ok && !current_.empty()) full_->Push(std::move(current_), stall_);
    return reorder_.LateCount();
  }

 private:
  /// \brief Appends to the staged batch; ships when it reaches batch size.
  /// Blocking on the free queue is the backpressure: every buffer is
  /// queued or executing.
  bool Stage(const Sge& sge) {
    current_.push_back(sge);
    if (current_.size() < batch_size_) return true;
    if (!full_->Push(std::move(current_), stall_)) return false;
    return free_->Pop(&current_, stall_);
  }

  const std::size_t batch_size_;
  const bool use_slack_;
  ReorderBuffer reorder_;
  SpscQueue<Batch>* full_;
  SpscQueue<Batch>* free_;
  uint64_t* stall_;
  Batch current_;
};

/// \brief Unit of the gutter hand-off: one run of consecutive elements of
/// one chunk, or the chunk's end marker (publishes its parse status).
struct Segment {
  std::vector<Sge> elems;
  std::size_t chunk = 0;
  bool end_of_chunk = false;
};

/// \brief Segments a parser may have in flight toward the merge; the free
/// pool holds kGutterDepth + 2 (one staging at the parser, one draining at
/// the merge), so steady state allocates nothing.
constexpr std::size_t kGutterDepth = 4;

/// \brief Ready batches that may wait for execution (the backpressure
/// bound); the buffer pool holds kQueueDepth + 2 (one staging at the
/// merge, one executing).
constexpr std::size_t kQueueDepth = 4;

/// \brief Pins the calling parse thread `p` (the merge is 0) to slot
/// num_workers + p, so parsing never competes with a pinned execution
/// core. Best-effort, and never onto a slot that does not exist: a
/// wrapped slot would land on a worker's core and force exactly the
/// timesharing pinning exists to avoid, so the thread floats instead.
bool PinParser(const ExecutorOptions& options, std::size_t p) {
  const std::size_t slot = options.num_workers + p;
  return options.pin_workers && slot < std::thread::hardware_concurrency() &&
         WorkerPool::PinThisThread(slot);
}

}  // namespace

void IngestPipeline::ExecuteLoop(SpscQueue<Batch>* full,
                                 SpscQueue<Batch>* free_buffers) {
  Batch batch;
  while (full->Pop(&batch, &stats_.exec_stall_ns)) {
    executor_->ExecutePipelinedBatch(batch.data(), batch.size());
    ++stats_.batches;
    batch.clear();
    // Never blocks: the pool holds at most depth + 2 buffers.
    SGQ_CHECK(free_buffers->TryPush(std::move(batch)));
  }
}

Status IngestPipeline::Run(const ChunkedStream& stream, std::size_t parsers) {
  // Drain anything the synchronous Ingest path queued before the pipeline
  // takes over, so batch boundaries stay exactly the synchronous ones.
  executor_->Flush();

  const ExecutorOptions& options = executor_->options();
  parsers = std::max<std::size_t>(parsers, 1);
  const std::size_t chunks = stream.NumChunks();
  // Windowed file sources accumulate feeder time across every OpenChunk;
  // the per-run delta is this run's share.
  const uint64_t readahead_before = stream.ReadaheadStallNs();
  stats_.parsers = parsers;
  stats_.parser_stall_ns.assign(parsers, 0);
  stats_.parser_busy_ns.assign(parsers, 0);

  SpscQueue<Batch> full(kQueueDepth);
  SpscQueue<Batch> free_buffers(kQueueDepth + 2);
  for (std::size_t i = 0; i < kQueueDepth + 2; ++i) {
    Batch buffer;
    buffer.reserve(options.batch_size);
    SGQ_CHECK(free_buffers.TryPush(std::move(buffer)));
  }

  // Gutter stage: per-parser SPSC segment queues (parser -> merge) with a
  // free-list back-channel (merge -> parser) for parsers 1..N-1; parser 0
  // is the merge itself and needs none. Chunk c is owned by parser
  // c mod parsers, and a parser walks its chunks in ascending order, so
  // per-queue FIFO delivery hands the merge whole chunks in index order.
  const std::size_t seg_cap =
      std::clamp<std::size_t>(options.batch_size, 1, 1024);
  std::vector<std::unique_ptr<SpscQueue<Segment>>> gutter(parsers);
  std::vector<std::unique_ptr<SpscQueue<Segment>>> gutter_free(parsers);
  for (std::size_t p = 1; p < parsers; ++p) {
    gutter[p] = std::make_unique<SpscQueue<Segment>>(kGutterDepth);
    gutter_free[p] = std::make_unique<SpscQueue<Segment>>(kGutterDepth + 2);
    for (std::size_t i = 0; i < kGutterDepth + 2; ++i) {
      Segment seg;
      seg.elems.reserve(seg_cap);
      SGQ_CHECK(gutter_free[p]->TryPush(std::move(seg)));
    }
  }
  // Per-chunk parse status, written by the owning parser before its
  // end-of-chunk marker (the queue's release publish orders it); the
  // merge reads it when the marker arrives, so the first error in chunk
  // order wins — exactly the sequential chunk walk's error.
  std::vector<Status> chunk_status(chunks);

  std::vector<std::thread> parser_threads;
  parser_threads.reserve(parsers - 1);
  for (std::size_t p = 1; p < parsers; ++p) {
    parser_threads.emplace_back([&, p] {
      PinParser(options, p);
      uint64_t stall = 0;
      uint64_t busy = 0;
      Segment seg;
      bool ok = gutter_free[p]->Pop(&seg, &stall);
      for (std::size_t c = p; ok && c < chunks; c += parsers) {
        std::unique_ptr<StreamCursor> cursor = stream.OpenChunk(c);
        for (;;) {
          seg.elems.resize(seg_cap);
          const auto t0 = Clock::now();
          const std::size_t n = cursor->Next(seg.elems.data(), seg_cap);
          busy += ElapsedNs(t0);
          if (n == 0) break;
          seg.elems.resize(n);
          seg.chunk = c;
          seg.end_of_chunk = false;
          // A failed push/pop means the merge aborted and closed the
          // gutters — stop parsing, the error is already decided.
          if (!gutter[p]->Push(std::move(seg), &stall) ||
              !gutter_free[p]->Pop(&seg, &stall)) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
        chunk_status[c] = cursor->status();
        seg.elems.clear();
        seg.chunk = c;
        seg.end_of_chunk = true;
        if (!gutter[p]->Push(std::move(seg), &stall)) break;
        if (c + parsers < chunks &&
            !gutter_free[p]->Pop(&seg, &stall)) {
          break;
        }
      }
      gutter[p]->Close();
      stats_.parser_stall_ns[p] = stall;
      stats_.parser_busy_ns[p] = busy;
    });
  }

  Status merge_error;
  std::thread merge([&] {
    stats_.ingest_pinned = PinParser(options, 0);
    BatchStager stager(options, &full, &free_buffers,
                       &stats_.ingest_stall_ns);
    bool ok = stager.Start();
    const bool check_order = options.ingest_slack == 0;
    Timestamp last_t = kMinTimestamp;
    // Stages a run of consecutive elements of chunk `c`. Chunk-local
    // cursors validate ordering internally; the merge closes the gap
    // across chunk boundaries. (Within a chunk the check never fires:
    // front >= previous back already.)
    auto stage = [&](const Sge* elems, std::size_t n, std::size_t c) {
      if (n == 0) return true;
      if (check_order && elems[0].t < last_t) {
        merge_error = ChunkBoundaryError(c, elems[0].t, last_t);
        return false;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (!stager.Emit(elems[i])) return false;
      }
      last_t = elems[n - 1].t;
      return true;
    };
    std::vector<Sge> own(seg_cap);
    for (std::size_t c = 0; ok && c < chunks; ++c) {
      const std::size_t owner = c % parsers;
      if (owner == 0) {
        // Parser 0's chunk: decode it here. The cursor dies at the end of
        // this iteration, retiring the chunk before the next one opens.
        std::unique_ptr<StreamCursor> cursor = stream.OpenChunk(c);
        for (;;) {
          const auto t0 = Clock::now();
          const std::size_t n = cursor->Next(own.data(), seg_cap);
          stats_.parser_busy_ns[0] += ElapsedNs(t0);
          if (n == 0 || !(ok = stage(own.data(), n, c))) break;
        }
        if (ok && !cursor->ok()) {
          merge_error = cursor->status();
          ok = false;
        }
        continue;
      }
      SpscQueue<Segment>& q = *gutter[owner];
      for (;;) {
        Segment seg;
        if (!q.Pop(&seg, &stats_.merge_stall_ns)) {
          // Parser vanished without an end-of-chunk marker: only happens
          // when the run is already aborting.
          if (merge_error.ok()) {
            merge_error =
                Status::Internal("sharded parse stage ended unexpectedly");
          }
          ok = false;
          break;
        }
        if (seg.end_of_chunk) {
          SGQ_CHECK_EQ(seg.chunk, c) << "gutters deliver chunks in order";
          if (!chunk_status[c].ok()) {
            merge_error = chunk_status[c];
            ok = false;
          }
        } else {
          ok = stage(seg.elems.data(), seg.elems.size(), c);
        }
        const bool chunk_done = seg.end_of_chunk;
        seg.elems.clear();
        gutter_free[owner]->TryPush(std::move(seg));
        if (!ok || chunk_done) break;
      }
    }
    if (!ok) {
      // Abort: wake every parser blocked on a gutter so the threads exit
      // (Close is safe from either side of an SPSC queue), and every
      // parser blocked inside a windowed file source's OpenChunk — a
      // chunk that will never retire once the merge stops draining.
      stream.Abort();
      for (std::size_t p = 1; p < parsers; ++p) {
        gutter[p]->Close();
        gutter_free[p]->Close();
      }
    }
    stats_.late_dropped += stager.Finish(ok);
    full.Close();
  });

  {
    ScopedThreadPin pin_exec_thread(options.pin_workers, 0);
    (void)pin_exec_thread;
    ExecuteLoop(&full, &free_buffers);
  }
  merge.join();
  for (std::thread& t : parser_threads) t.join();
  stats_.readahead_stall_ns = stream.ReadaheadStallNs() - readahead_before;
  return merge_error;
}

}  // namespace sgq
