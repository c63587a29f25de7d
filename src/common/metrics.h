// Measurement helpers shared by the benchmark harness and tests:
// wall-clock timers, latency percentile tracking, throughput accounting.
//
// Counter and LatencyRecorder are thread-safe: sharded execution
// (runtime/executor.h, num_workers > 1) lets per-shard operators bump
// shared counters concurrently, so Counter is a relaxed atomic and
// LatencyRecorder serializes its sample vector behind a mutex.

#ifndef SGQ_COMMON_METRICS_H_
#define SGQ_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sgq {

/// \brief Monotonically increasing event counter, safe to bump from any
/// worker thread. Relaxed ordering: counts are diagnostics, not
/// synchronization — readers that need a consistent view read after a
/// pool barrier.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Monotonic stopwatch with microsecond resolution.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// \brief Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// \brief Elapsed time in seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// \brief Elapsed time in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Collects per-event latencies and reports percentiles.
///
/// The paper reports the 99th-percentile ("tail") latency of each window
/// slide; LatencyRecorder::Percentile(0.99) computes exactly that with the
/// nearest-rank method. Thread-safe: samples may be recorded from any
/// worker thread.
class LatencyRecorder {
 public:
  LatencyRecorder() = default;
  LatencyRecorder(const LatencyRecorder& other) : samples_(other.Samples()) {}
  LatencyRecorder& operator=(const LatencyRecorder& other) {
    std::vector<double> copy = other.Samples();
    std::lock_guard<std::mutex> lock(mu_);
    samples_ = std::move(copy);
    return *this;
  }

  /// \brief Records one latency sample, in seconds.
  void Record(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(seconds);
  }

  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.size();
  }

  /// \brief Nearest-rank percentile, q in [0, 1]; 0 when no samples.
  double Percentile(double q) const;

  /// \brief Arithmetic mean; 0 when no samples.
  double Mean() const;

  double Max() const;

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.clear();
  }

 private:
  /// \brief Snapshot of the samples under the lock.
  std::vector<double> Samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

  mutable std::mutex mu_;
  std::vector<double> samples_;
};

/// \brief Aggregate result of one benchmark run.
struct RunMetrics {
  std::string name;              ///< configuration label (query, plan, ...)
  std::size_t edges_processed = 0;
  double elapsed_seconds = 0;
  double tail_latency_seconds = 0;  ///< p99 of per-slide processing time
  std::size_t results_emitted = 0;
  std::size_t state_entries = 0;  ///< operator state entries at end of run
  std::size_t state_bytes = 0;    ///< resident operator-state bytes at end
  /// Pipelined-ingest stalls (runtime/ingest_pipeline.h); both 0 on
  /// synchronous runs. ingest_stall_ns: the merge thread blocked on
  /// backpressure (execution-bound run); exec_stall_ns: the execution
  /// thread starved for parsed input (ingest-bound run).
  uint64_t ingest_stall_ns = 0;
  uint64_t exec_stall_ns = 0;
  /// Parse stage (runtime/ingest_pipeline.h), filled by every pipelined
  /// run, one parser included. parsers: parse threads used, the merge
  /// among them (0 on synchronous runs); merge_stall_ns: the
  /// order-restoring merge blocked on empty gutters (0 at one parser);
  /// parser_stall_ns: per parser, blocked on gutter backpressure (parser
  /// 0, the merge, has no gutter); parse_busy_ns: the slowest parser's
  /// time inside the cursor — the parse-stage critical path (synchronous
  /// ChunkedStream runs report the chunk walk's time here).
  std::size_t parsers = 0;
  uint64_t merge_stall_ns = 0;
  std::vector<uint64_t> parser_stall_ns;
  uint64_t parse_busy_ns = 0;
  /// File-backed ingest only (workload/harness.h RunSgaFile): summed
  /// nanoseconds the parse threads (or the synchronous chunk walk) spent
  /// inside the chunk feeder — pread / boundary-scan time plus
  /// readahead-window backpressure. 0 for in-memory streams.
  uint64_t readahead_stall_ns = 0;
  /// Query-index dispatch accounting (runtime/executor.h). ops_touched:
  /// operator activations the run actually paid (OnSge deliveries,
  /// per-(operator, port) batch executions, time-advance / purge phases).
  /// index_skipped_dispatches: operator visits the query index skipped
  /// relative to visiting every live operator.
  std::size_t ops_touched = 0;
  std::size_t index_skipped_dispatches = 0;
  /// Checkpointing (core/engine.h Engine::Checkpoint): serialization time
  /// of the most recent snapshot (the foreground stall — the durable file
  /// write happens on a background thread) and its encoded size. Both 0
  /// when the run never checkpointed.
  uint64_t checkpoint_write_ns = 0;
  uint64_t checkpoint_bytes = 0;

  /// \brief Dispatch fanout actually paid per processed edge — stays
  /// O(matching operators), not O(registered queries), under the query
  /// index; 0 when nothing was processed.
  double OpsTouchedPerEdge() const {
    return edges_processed > 0 ? static_cast<double>(ops_touched) /
                                     static_cast<double>(edges_processed)
                               : 0;
  }

  /// \brief Sustained input rate in edges per second.
  double Throughput() const {
    return elapsed_seconds > 0 ? static_cast<double>(edges_processed) /
                                     elapsed_seconds
                               : 0;
  }

  /// \brief Parse-stage throughput: elements decoded per second of the
  /// slowest parser's busy time (what the sharded parse scales); 0 when
  /// parse time was not measured.
  double ParseTuplesPerSec() const {
    return parse_busy_ns > 0 ? static_cast<double>(edges_processed) /
                                   (static_cast<double>(parse_busy_ns) * 1e-9)
                             : 0;
  }
};

}  // namespace sgq

#endif  // SGQ_COMMON_METRICS_H_
