// bench_sgq — the end-to-end benchmark of the sgq engine (see README.md).
//
// One process runs one workload. It generates the workload's stream from
// --seed, encodes it to bytes (the engine sees only those bytes), sets the
// engine up, and drives it in a closed loop from a single feeder thread:
// decode a chunk of stream bytes with the public cursors, Push every edge,
// drain results once per slide, checkpoint and churn subscriptions where
// the workload says so. Every public call into a layer is timed from the
// outside; nothing in the engine is patched, and only
// EngineOptions::batch_size and num_workers are set.
//
// A run has five phases: setup (timed several times, median reported),
// warm-up (the first full window, excluded from samples), run (a fixed
// edge count: what the reference box processes in --seconds), ops
// (snapshot, restore-and-replay, live attach) and check (Def. 14 against
// the one-time oracle, untimed). A workload whose stream would drift if it
// grew far past its intended size runs several independent streams
// (episodes) of that size and pools their measurements.
//
// Usage:
//   bench_sgq --workload NAME [--seed N] [--seconds S] [--trace PATH]
//             [--smoke] [--ckpt-dir DIR]
//
// The last stdout line is one JSON row: workload, seed, cpus, the
// attempted/failed operation counts and the metrics, each with its unit
// and the sample count behind it. Without --trace the metrics are the
// end-to-end set; with --trace PATH the run is repeated with spans
// recorded (written to PATH as JSON lines) plus the attribution runs, and
// the metrics are the per-layer set. Exit code 1 when any check failed.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sgq/sgq.h"

namespace {

using namespace sgq;  // NOLINT(build/namespaces)

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (the LatencyRecorder convention); 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<std::size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// CPUs this process may run on (what `nproc` prints).
std::size_t Cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Generator seed of one stream (family: SO, SNB or Zipf; episode: which
/// of a run's independent streams), derived from --seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t family,
                         std::uint64_t episode) {
  return SplitMix64(seed ^ SplitMix64(family ^ SplitMix64(episode)));
}

/// Operations the benchmark attempted and how many failed: oracle
/// snapshot checks, the restore-replay comparison, and every Checkpoint /
/// Restore / AddQuery / RemoveQuery call.
struct OpCounts {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  bool Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  bool Record(const Status& status, const char* what) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    }
    return Record(status.ok());
  }
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as JSON lines when the run ends.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(NowNs()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when tracing is off).
  int Open(std::string name, int parent, std::int64_t start) {
    return Add(std::move(name), parent, start, start, 1, 0);
  }

  void Close(int id, std::int64_t end) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = end;
    span.sum_ns = end - span.start;
  }

  /// Records a finished span. Calls made per edge are folded into one
  /// span per slide and layer: `count` calls whose durations sum to
  /// `sum_ns`, the first starting at `start` and the last ending at `end`.
  int Add(std::string name, int parent, std::int64_t start, std::int64_t end,
          std::uint64_t count, std::int64_t sum_ns) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, start, end, count, sum_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%llu,"
                   "\"sum_ns\":%lld}\n",
                   i, s.parent, s.name.c_str(),
                   static_cast<long long>(s.start - origin_),
                   static_cast<long long>(s.end - origin_),
                   static_cast<unsigned long long>(s.count),
                   static_cast<long long>(s.sum_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t start;
    std::int64_t end;
    std::uint64_t count;
    std::int64_t sum_ns;
  };
  bool enabled_;
  std::int64_t origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class StreamKind { kSo, kSnb, kZipf };

/// All queries use the paper's window: |W| = 30 days, slide 1 day.
WindowSpec PaperWindow() { return WindowSpec(30 * kDay, kDay); }
constexpr Timestamp kSlide = kDay;
/// Slides of stream pushed after the last snapshot and replayed after
/// restore.
constexpr int kTailSlides = 2;
/// Instants per episode at which the oracle checks every checked query.
constexpr int kCheckInstants = 5;

struct Workload {
  std::string name;
  StreamKind kind;
  StreamFormat format;
  std::size_t batch;
  std::size_t workers;
  double deletion_probability;  ///< SO streams only
  /// Run length: the run phase measures a fixed number of edges, the ones
  /// this workload's loop processes in --seconds on the reference box
  /// (README.md), so both sides of a comparison measure the same work.
  double edges_per_second;
  /// Measured edges per stream. A stream that would drift far past its
  /// intended size is replaced by several independent ones (episodes) of
  /// this size, pooled; 0 keeps one stream.
  std::size_t episode_edges;
  double edges_per_slide;  ///< sizing the warm-up, the tail and the stream
  std::vector<BenchQuery> queries;
  std::vector<std::size_t> checked;  ///< query indexes the oracle checks
  /// Attribution runs of the traced invocation: each group alone.
  std::vector<std::pair<std::string, std::vector<std::size_t>>> solo_groups;
  /// Queries attached live: the in-loop churn pool when `churn`, otherwise
  /// the attach burst of the ops phase.
  std::vector<std::string> attach_pool;
  int checkpoint_every_slides;  ///< 0: snapshots only in the ops phase
  bool churn;
};

std::vector<std::pair<std::string, std::vector<std::size_t>>> EachAlone(
    const std::vector<BenchQuery>& queries) {
  std::vector<std::pair<std::string, std::vector<std::size_t>>> groups;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    groups.push_back({queries[i].name, {i}});
  }
  return groups;
}

std::vector<std::size_t> AllIndexes(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

/// Two-atom cycle queries `a(x,y), b(y,x)` over the workload's labels:
/// each compiles a private PATTERN over WSCANs the static queries share.
std::vector<std::string> CyclePool(const std::vector<std::string>& labels) {
  std::vector<std::string> pool;
  for (const std::string& a : labels) {
    for (const std::string& b : labels) {
      pool.push_back("Answer(x,y) <- " + a + "(x,y), " + b + "(y,x)");
    }
  }
  return pool;
}

std::vector<BenchQuery> Subset(const std::vector<BenchQuery>& all,
                               const std::vector<std::string>& names) {
  std::vector<BenchQuery> out;
  for (const std::string& name : names) {
    for (const BenchQuery& q : all) {
      if (q.name == name) out.push_back(q);
    }
  }
  return out;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  const std::vector<std::string> so_labels = {"a2q", "c2q", "c2a"};
  const std::vector<std::string> snb_labels = {"knows", "likes",
                                               "hasCreator", "replyOf"};

  // The paper's own configuration: PATH closures and the PATH ⋈ PATTERN
  // joins of Q6/Q7 do nearly all the work; decode and dispatch almost none.
  Workload so_paper{"so-paper", StreamKind::kSo, StreamFormat::kBinary,
                    /*batch=*/1, /*workers=*/1, 0.0, 260, 0, 60,
                    SoQuerySet(), {}, {}, CyclePool(so_labels), 0, false};
  so_paper.checked = AllIndexes(so_paper.queries.size());
  so_paper.solo_groups = EachAlone(so_paper.queries);
  out.push_back(so_paper);

  // The same operators fed negative tuples, plus the snapshot path:
  // retraction and re-derivation instead of inserts. Q6 is left out — under
  // deletions it alone manages ~40 edges/s. Q2 runs as Q2+ (c2q+ for
  // c2q*): with the star, Q2's answer is a union of the a2q edge and the
  // join, and a deletion on one branch retracts a value the other branch
  // still derives, so Q2 itself fails the oracle check under deletions.
  // Episodes keep each stream near 5,500 edges: preferential attachment
  // draws from every past edge, so a longer SO stream drifts into ever more
  // concentrated hubs and a cheaper cost regime, and one stream's hubs set
  // its memory footprint; several short streams average both out.
  std::vector<BenchQuery> deleting = {
      {"Q2+", "Answer(x,y) <- a2q(x,z), c2q+(z,y)"}};
  for (const BenchQuery& q : Subset(SoQuerySet(), {"Q4", "Q5"})) {
    deleting.push_back(q);
  }
  Workload so_deletes{"so-deletes", StreamKind::kSo, StreamFormat::kBinary,
                      /*batch=*/64, /*workers=*/1, 0.15, 1600, 3200, 60,
                      deleting, {}, {}, CyclePool(so_labels), 15, false};
  so_deletes.checked = AllIndexes(so_deletes.queries.size());
  so_deletes.solo_groups = EachAlone(so_deletes.queries);
  out.push_back(so_deletes);

  // The sharded runtime: replyOf is forest-shaped, so operator work per edge
  // is light and exchange routing, shard waves, barriers and merge dominate.
  Workload snb{"snb-sharded", StreamKind::kSnb, StreamFormat::kBinary,
               /*batch=*/512, /*workers=*/4, 0.0, 11000, 0, 96,
               SnbQuerySet(), {}, {}, CyclePool(snb_labels), 0, false};
  snb.checked = AllIndexes(snb.queries.size());
  snb.solo_groups = EachAlone(snb.queries);
  out.push_back(snb);

  // A standing-query population with churn: per-edge operator work is near
  // zero, so CSV decode, query-index dispatch over K = 1,024, sink drain
  // and live registration carry the run.
  Workload zipf{"zipf-subscribe", StreamKind::kZipf, StreamFormat::kCsv,
                /*batch=*/256, /*workers=*/1, 0.0, 550000, 0, 1200,
                {}, {}, {}, {}, 0, true};
  for (int i = 0; i < 1024; ++i) {
    const std::string l = "l" + std::to_string(i);
    zipf.queries.push_back({l, "Answer(x,y) <- " + l + "(x,y)"});
  }
  for (int j = 0; j < 256; ++j) {
    const std::string l = "l" + std::to_string(j);
    zipf.attach_pool.push_back("Answer(x,y) <- " + l + "(x,y), " + l +
                               "(y,x)");
  }
  // Hot to cold ranks; the four below 256 share their WSCAN with churn.
  zipf.checked = {9, 33, 99, 199, 333, 555, 777, 1023};
  for (std::size_t g = 0; g < 8; ++g) {
    std::vector<std::size_t> members;
    for (std::size_t i = g; i < zipf.queries.size(); i += 8) {
      members.push_back(i);
    }
    zipf.solo_groups.push_back({"mod8=" + std::to_string(g), members});
  }
  out.push_back(zipf);
  return out;
}

// ---------------------------------------------------------------------------
// Settings, run plans and stream generation
// ---------------------------------------------------------------------------

struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_path;  ///< empty: untraced
  bool smoke = false;
  std::string ckpt_dir = ".";

  int warmup_slides() const { return smoke ? 2 : 30; }
  std::size_t setup_min_reps() const { return smoke ? 2 : 5; }
  double setup_budget_s() const { return smoke ? 0.02 : 0.3; }
  /// Snapshots, restores and attaches of a whole run, spread over its
  /// episodes.
  std::size_t checkpoints() const { return smoke ? 2 : 3; }
  std::size_t restores() const { return smoke ? 1 : 3; }
  std::size_t attach_burst() const { return smoke ? 16 : 1024; }
  std::size_t churn_live() const { return smoke ? 4 : 32; }
  int checkpoint_every(const Workload& w) const {
    return smoke && w.checkpoint_every_slides > 0 ? 3
                                                   : w.checkpoint_every_slides;
  }

  /// Edges the run phase measures. The smoke run keeps about 2% of a
  /// 10-second run, but at least six slides.
  std::size_t run_edges(const Workload& w) const {
    if (smoke) {
      return static_cast<std::size_t>(
          std::max(6 * w.edges_per_slide, 0.2 * w.edges_per_second));
    }
    return static_cast<std::size_t>(w.edges_per_second * seconds);
  }
};

/// What one run measures, besides the workload itself.
struct RunPlan {
  std::vector<std::size_t> queries;  ///< static query indexes to register
  std::size_t workers = 1;
  std::size_t episodes = 1;
  std::size_t run_edges = 0;  ///< edges each episode's run phase measures
  /// An episode also stops after this long, so a pathologically slow build
  /// still finishes; the measured edge count then falls short.
  double max_seconds = 0;
  /// Run-phase edge count at which each episode records its elapsed run
  /// time: the attribution runs compare times over this common prefix.
  std::size_t mark_edges = 0;
  /// Full runs repeat the setup, take snapshots, restore, attach and check
  /// against the oracle; attribution runs only set up once and measure.
  bool full = true;
};

RunPlan MainPlan(const Workload& w, const Settings& s, std::size_t cpus) {
  RunPlan plan;
  plan.queries = AllIndexes(w.queries.size());
  plan.workers = std::min(w.workers, cpus);
  const std::size_t total = s.run_edges(w);
  if (w.episode_edges > 0) {
    plan.episodes = (total + w.episode_edges - 1) / w.episode_edges;
  }
  plan.run_edges = total / plan.episodes;
  plan.max_seconds = 4 * s.seconds / static_cast<double>(plan.episodes);
  plan.mark_edges = std::max<std::size_t>(1, plan.run_edges / 4);
  return plan;
}

/// Generates one episode's stream with its own vocabulary and encodes it;
/// the engine side only ever sees these bytes. The stream holds warm-up,
/// run and tail, with room for slides that carry more edges than average.
Result<std::string> GenerateStreamBytes(const Workload& w, const Settings& s,
                                        const RunPlan& plan,
                                        std::size_t episode) {
  const double slides = s.warmup_slides() + kTailSlides + 2;
  const std::size_t edges =
      plan.run_edges +
      static_cast<std::size_t>(1.25 * slides * w.edges_per_slide);
  Vocabulary gen_vocab;
  Result<InputStream> stream = Status::Internal("unknown stream kind");
  switch (w.kind) {
    case StreamKind::kSo: {
      SoOptions opt;
      opt.seed = DeriveSeed(s.seed, 1, episode);
      opt.num_vertices = 2500;
      opt.num_edges = edges;
      opt.edges_per_hour = 2.5;
      opt.deletion_probability = w.deletion_probability;
      opt.deletion_horizon = 2048;
      stream = GenerateSoStream(opt, &gen_vocab);
      break;
    }
    case StreamKind::kSnb: {
      SnbOptions opt;
      opt.seed = DeriveSeed(s.seed, 2, episode);
      opt.num_persons = 900;
      opt.num_communities = 45;
      // 100,000 events make ~123,600 edges at these probabilities.
      opt.num_events = edges * 100000 / 123600 + 1;
      opt.edges_per_hour = 4.0;
      stream = GenerateSnbStream(opt, &gen_vocab);
      break;
    }
    case StreamKind::kZipf: {
      ZipfStreamOptions opt;
      opt.seed = DeriveSeed(s.seed, 3, episode);
      opt.num_vertices = 2000;
      opt.num_labels = 1024;
      opt.num_edges = edges;
      opt.skew = 1.0;
      opt.edges_per_hour = 50.0;
      stream = GenerateZipfLabelStream(opt, &gen_vocab);
      break;
    }
  }
  if (!stream.ok()) return stream.status();
  if (w.format == StreamFormat::kCsv) {
    return FormatStreamCsv(*stream, gen_vocab);
  }
  return FormatStreamBinary(*stream, gen_vocab);
}

std::unique_ptr<StreamCursor> OpenCursor(const std::string& bytes,
                                         StreamFormat format,
                                         Vocabulary* vocab) {
  if (format == StreamFormat::kBinary) {
    return std::make_unique<BinaryStreamCursor>(bytes, vocab);
  }
  return std::make_unique<StreamCsvCursor>(bytes, vocab);
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

/// Per-edge layer calls, folded into one span per slide and layer.
enum Fold { kDecode, kPushPlain, kPushBoundary, kPushFlush, kNumFolds };
const char* const kFoldNames[kNumFolds] = {"decode", "push.plain",
                                           "push.boundary", "push.flush"};

/// Everything a run measures, pooled over its episodes.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> parse_ms;
  std::vector<double> compile_ms;
  std::vector<double> finalize_ms;
  std::size_t engine_ops = 0;
  std::size_t shared_subtrees = 0;

  // run phase
  std::int64_t run_ns = 0;
  std::int64_t mark_ns = 0;  ///< run time up to RunPlan::mark_edges
  std::size_t run_edges = 0;
  std::size_t decoded = 0;
  std::size_t results = 0;
  std::int64_t decode_ns = 0;
  std::int64_t push_ns = 0;
  std::int64_t drain_ns = 0;
  std::int64_t ckpt_ns = 0;
  std::int64_t churn_ns = 0;
  std::int64_t state_ns = 0;
  std::vector<double> latency_ms;
  std::vector<double> push_us[kNumFolds];
  std::vector<double> drain_ms;
  std::size_t ops_touched = 0;
  std::size_t index_skipped = 0;
  std::vector<double> slide_p50_ms;  ///< one per episode
  std::vector<double> slide_p99_ms;
  std::size_t slide_samples = 0;
  std::size_t state_bytes_peak = 0;
  std::size_t state_entries_peak = 0;
  std::size_t state_samples = 0;

  // snapshots, restore, live registration (run and ops phases)
  std::vector<double> ckpt_pause_ms;
  std::vector<double> ckpt_serialize_ms;
  std::vector<double> ckpt_wait_ms;
  std::vector<double> ckpt_mb;
  std::vector<double> restore_s;
  std::vector<double> restore_call_ms;
  std::vector<double> attach_ms;
  std::vector<double> engine_attach_ms;
  std::vector<double> detach_ms;

  std::size_t pairs_compared = 0;
  std::size_t stream_bytes = 0;
  bool stream_ended = false;

  double run_seconds() const { return run_ns * 1e-9; }
  double mark_seconds() const { return mark_ns * 1e-9; }
  double tuples_per_sec() const { return Ratio(run_edges, run_seconds()); }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

/// The timings a user of the engine sees. BENCHMARK.json lists them with
/// the per-layer metrics: on the reference box their run-to-run spread is
/// too wide to gate on (README.md).
std::vector<Metric> UserTimings(const Samples& m) {
  return {
      {"tuples_per_sec", m.tuples_per_sec(), "edges/s", m.run_edges},
      {"latency_p50_ms", Quantile(m.latency_ms, 0.5), "ms",
       m.latency_ms.size()},
      {"latency_p99_ms", Quantile(m.latency_ms, 0.99), "ms",
       m.latency_ms.size()},
      {"ckpt_pause_ms", Median(m.ckpt_pause_ms), "ms", m.ckpt_pause_ms.size()},
      {"restore_s", Median(m.restore_s), "s", m.restore_s.size()},
      {"attach_p50_ms", Quantile(m.attach_ms, 0.5), "ms", m.attach_ms.size()},
      {"attach_p99_ms", Quantile(m.attach_ms, 0.99), "ms", m.attach_ms.size()},
  };
}

/// The metrics of an untraced run: the bounded end-to-end pair, the user
/// timings, and the error rate behind `correct`.
std::vector<Metric> EndToEnd(const Samples& m, const OpCounts& counts,
                             double peak_rss_mb) {
  std::vector<Metric> out = {
      {"setup_s", Median(m.setup_s), "s", m.setup_s.size()},
      {"peak_rss_mb", peak_rss_mb, "MB", 1},
  };
  for (Metric& t : UserTimings(m)) out.push_back(std::move(t));
  out.push_back({"error_rate", Ratio(counts.failed, counts.attempted),
                 "ratio", counts.attempted});
  return out;
}

/// Per-layer metrics of a traced run, after its user timings; the
/// attribution ratios and trace.overhead come from other runs and are
/// appended by the caller.
std::vector<Metric> PerLayer(const Samples& m) {
  const double run_ns = static_cast<double>(m.run_ns);
  const std::int64_t covered = m.decode_ns + m.push_ns + m.drain_ns +
                               m.ckpt_ns + m.churn_ns + m.state_ns;
  const auto ms = [](const std::vector<double>& us) {
    std::vector<double> out;
    out.reserve(us.size());
    for (double v : us) out.push_back(v * 1e-3);
    return out;
  };
  const std::vector<double> boundary_ms = ms(m.push_us[kPushBoundary]);
  const std::vector<double> flush_ms = ms(m.push_us[kPushFlush]);
  const std::vector<double>& plain = m.push_us[kPushPlain];
  std::vector<Metric> out = UserTimings(m);
  std::vector<Metric> layers = {
      {"model.decode_ns_per_edge", Ratio(m.decode_ns, m.decoded), "ns",
       m.decoded},
      {"model.decode_share", Ratio(m.decode_ns, run_ns), "ratio", 1},
      {"model.ckpt_serialize_ms_p50", Median(m.ckpt_serialize_ms), "ms",
       m.ckpt_serialize_ms.size()},
      {"model.ckpt_wait_ms_p50", Median(m.ckpt_wait_ms), "ms",
       m.ckpt_wait_ms.size()},
      {"model.ckpt_mb", Median(m.ckpt_mb), "MB", m.ckpt_mb.size()},
      {"model.restore_ms", Median(m.restore_call_ms), "ms",
       m.restore_call_ms.size()},
      {"query.parse_ms_p50", Median(m.parse_ms), "ms", m.parse_ms.size()},
      {"engine.compile_ms_p50", Median(m.compile_ms), "ms",
       m.compile_ms.size()},
      {"engine.finalize_ms", Median(m.finalize_ms), "ms",
       m.finalize_ms.size()},
      {"engine.ops", static_cast<double>(m.engine_ops), "count", 1},
      {"engine.shared_subtrees", static_cast<double>(m.shared_subtrees),
       "count", 1},
      {"engine.attach_ms_p50", Quantile(m.engine_attach_ms, 0.5), "ms",
       m.engine_attach_ms.size()},
      {"engine.attach_ms_p99", Quantile(m.engine_attach_ms, 0.99), "ms",
       m.engine_attach_ms.size()},
      {"engine.detach_ms_p50", Quantile(m.detach_ms, 0.5), "ms",
       m.detach_ms.size()},
      {"engine.detach_ms_p99", Quantile(m.detach_ms, 0.99), "ms",
       m.detach_ms.size()},
      {"runtime.push_plain_us_p50", Quantile(plain, 0.5), "us", plain.size()},
      {"runtime.push_plain_us_p99", Quantile(plain, 0.99), "us",
       plain.size()},
      {"runtime.ops_touched_per_edge", Ratio(m.ops_touched, m.run_edges),
       "ops/edge", m.run_edges},
      {"runtime.index_skipped_per_edge", Ratio(m.index_skipped, m.run_edges),
       "ops/edge", m.run_edges},
      {"runtime.push_boundary_ms_p50", Quantile(boundary_ms, 0.5), "ms",
       boundary_ms.size()},
      {"runtime.push_boundary_ms_p99", Quantile(boundary_ms, 0.99), "ms",
       boundary_ms.size()},
      {"runtime.slide_p50_ms", Median(m.slide_p50_ms), "ms", m.slide_samples},
      {"runtime.slide_p99_ms", Median(m.slide_p99_ms), "ms", m.slide_samples},
      {"runtime.push_flush_ms_p50", Quantile(flush_ms, 0.5), "ms",
       flush_ms.size()},
      {"runtime.push_flush_ms_p99", Quantile(flush_ms, 0.99), "ms",
       flush_ms.size()},
      {"core.results_per_edge", Ratio(m.results, m.run_edges), "results/edge",
       m.run_edges},
      {"core.state_mb_peak", m.state_bytes_peak / (1024.0 * 1024.0), "MB",
       m.state_samples},
      {"core.state_entries_peak", static_cast<double>(m.state_entries_peak),
       "count", m.state_samples},
      {"core.drain_ms_p50", Median(m.drain_ms), "ms", m.drain_ms.size()},
      {"core.drain_share", Ratio(m.drain_ns, run_ns), "ratio", 1},
      {"trace.coverage", Ratio(covered, run_ns), "ratio", 1},
      {"check.pairs_compared", static_cast<double>(m.pairs_compared), "count",
       1},
  };
  for (Metric& l : layers) out.push_back(std::move(l));
  return out;
}

// ---------------------------------------------------------------------------
// One episode of a workload
// ---------------------------------------------------------------------------

/// A registered engine and the vocabulary its queries compiled against.
struct Deployment {
  Vocabulary vocab;
  std::unique_ptr<Engine> engine;
  std::vector<StreamingGraphQuery> queries;  ///< parallel to RunPlan::queries
  std::vector<QueryId> ids;
};

/// One entry of the live-registration history (restore replays it).
struct Registration {
  bool attach;
  std::string text;  ///< attach: the query text
  QueryId id;        ///< detach: the removed query
};

/// A drained result reduced to what a snapshot reads (SnapshotEdges):
/// the distinguished pair, the validity interval and the deletion flag.
struct KeptResult {
  VertexId src;
  VertexId trg;
  Interval validity;
  bool deletion;
};

/// The result snapshot of one query at each instant, by the rule of
/// SnapshotEdges (model/coalesce.h): a deletion at td truncates every earlier
/// interval of the same pair to end by td. One pass serves all instants.
std::vector<VertexPairSet> SnapshotPairs(
    const std::vector<KeptResult>& results,
    const std::vector<Timestamp>& instants) {
  std::unordered_map<EdgeRef, std::vector<Interval>, EdgeRefHash> intervals;
  for (const KeptResult& r : results) {
    const EdgeRef key(r.src, r.trg, kInvalidLabel);
    if (!r.deletion) {
      intervals[key].push_back(r.validity);
      continue;
    }
    auto it = intervals.find(key);
    if (it == intervals.end()) continue;
    for (Interval& iv : it->second) iv.exp = std::min(iv.exp, r.validity.ts);
  }
  std::vector<VertexPairSet> out(instants.size());
  for (const auto& [key, ivs] : intervals) {
    for (std::size_t i = 0; i < instants.size(); ++i) {
      for (const Interval& iv : ivs) {
        if (iv.Contains(instants[i])) {
          out[i].insert({key.src, key.trg});
          break;
        }
      }
    }
  }
  return out;
}

enum Phase { kSetup, kWarmup, kRun, kOps, kCheck };
const char* const kPhaseNames[] = {"setup", "warm-up", "run", "ops", "check"};

struct FoldAcc {
  std::int64_t first = 0;
  std::int64_t last = 0;
  std::int64_t sum = 0;
  std::uint64_t count = 0;

  void Add(std::int64_t a, std::int64_t b) {
    if (count == 0) first = a;
    last = b;
    sum += b - a;
    ++count;
  }
};

class Episode {
 public:
  Episode(const Workload& w, const Settings& s, const RunPlan& plan,
          std::size_t index, const std::string& bytes, Tracer* tracer,
          int parent_span, OpCounts* counts, Samples* samples)
      : w_(w),
        s_(s),
        plan_(plan),
        index_(index),
        bytes_(bytes),
        tracer_(tracer),
        counts_(counts),
        m_(*samples) {
    root_span_ = tracer_->Open("episode:" + std::to_string(index),
                               parent_span, NowNs());
  }

  ~Episode() {
    d_.reset();  // joins the background checkpoint write, if any
    std::remove(CheckpointPath().c_str());
  }

  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  /// Runs every phase; false when the episode could not proceed (setup or
  /// decode failure).
  bool Execute() {
    if (!SetUp() || !Loop()) return false;
    if (plan_.full) {
      Ops();
      Check();
    }
    ClosePhase(NowNs());
    tracer_->Close(root_span_, NowNs());
    return true;
  }

 private:
  Engine& engine() { return *live_->engine; }

  /// Share of a whole-run count that falls to this episode (at least one).
  std::size_t PerEpisode(std::size_t total) const {
    return std::max<std::size_t>(1, total / plan_.episodes);
  }

  // --- setup ---------------------------------------------------------------
  /// Engine construction, MakeQuery and AddQuery of every static query,
  /// Finalize.
  Status SetUpOnce(Deployment* d, double* finalize_ms) {
    EngineOptions options;
    options.batch_size = w_.batch;
    options.num_workers = plan_.workers;
    d->engine = std::make_unique<Engine>(options);
    for (std::size_t qi : plan_.queries) {
      const std::int64_t a = NowNs();
      Result<StreamingGraphQuery> query =
          MakeQuery(w_.queries[qi].text, PaperWindow(), &d->vocab);
      const std::int64_t b = NowNs();
      if (!query.ok()) return query.status();
      Result<QueryId> id = d->engine->AddQuery(*query, d->vocab);
      const std::int64_t c = NowNs();
      if (!counts_->Record(id.status(), "AddQuery")) return id.status();
      m_.parse_ms.push_back((b - a) * 1e-6);
      m_.compile_ms.push_back((c - b) * 1e-6);
      d->queries.push_back(std::move(*query));
      d->ids.push_back(*id);
    }
    const std::int64_t f = NowNs();
    const Status st = d->engine->Finalize();
    *finalize_ms = (NowNs() - f) * 1e-6;
    return st;
  }

  /// Full runs repeat the setup at least a few times and for a small time
  /// budget; the median is reported.
  bool SetUp() {
    OpenPhase(kSetup, NowNs());
    const std::int64_t begin = NowNs();
    std::size_t reps = 0;
    do {
      d_.reset();  // the previous repetition is torn down untimed
      auto d = std::make_unique<Deployment>();
      double finalize_ms = 0;
      const std::int64_t a = NowNs();
      const Status st = SetUpOnce(d.get(), &finalize_ms);
      const std::int64_t b = NowNs();
      RareSpan("setup", a, b);
      if (!st.ok()) {
        std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
        return false;
      }
      m_.setup_s.push_back((b - a) * 1e-9);
      m_.finalize_ms.push_back(finalize_ms);
      d_ = std::move(d);
      ++reps;
    } while (plan_.full &&
             (reps < s_.setup_min_reps() ||
              ((NowNs() - begin) * 1e-9 <
                   s_.setup_budget_s() / static_cast<double>(plan_.episodes) &&
               reps < 200)));
    live_ = d_.get();
    m_.engine_ops = engine().NumOperators();
    m_.shared_subtrees = engine().NumSharedSubtrees();
    for (std::size_t i = 0; i < plan_.queries.size(); ++i) {
      for (std::size_t c : w_.checked) {
        if (c == plan_.queries[i]) checked_.push_back({i, d_->ids[i]});
      }
    }
    kept_.resize(checked_.size());
    return true;
  }

  // --- tracing -------------------------------------------------------------
  void ClosePhase(std::int64_t at) {
    CloseSlide(at);
    tracer_->Close(phase_span_, at);
    phase_span_ = -1;
  }

  void OpenPhase(Phase p, std::int64_t at) {
    ClosePhase(at);
    phase_ = p;
    phase_span_ = tracer_->Open(kPhaseNames[p], root_span_, at);
  }

  /// Emits the folded layer spans of the slide that ends at `at`.
  void CloseSlide(std::int64_t at) {
    if (slide_span_ >= 0) {
      for (int f = 0; f < kNumFolds; ++f) {
        const FoldAcc& acc = folds_[f];
        if (acc.count == 0) continue;
        tracer_->Add(kFoldNames[f], slide_span_, acc.first, acc.last,
                     acc.count, acc.sum);
      }
      tracer_->Close(slide_span_, at);
    }
    slide_span_ = -1;
    for (FoldAcc& acc : folds_) acc = FoldAcc{};
  }

  void BeginSlide(std::int64_t slide, std::int64_t at) {
    CloseSlide(at);
    cur_slide_ = slide;
    slide_span_ =
        tracer_->Open("slide:" + std::to_string(slide), phase_span_, at);
  }

  /// A rare layer call gets its own span, under the open slide or phase.
  void RareSpan(const char* name, std::int64_t a, std::int64_t b) {
    tracer_->Add(name, slide_span_ >= 0 ? slide_span_ : phase_span_, a, b, 1,
                 b - a);
  }

  // --- the closed loop -----------------------------------------------------
  /// Next stream element; decodes a chunk when the buffer runs dry (the
  /// decode layer's call).
  bool NextEdge(Sge* e) {
    if (buf_pos_ == buf_len_) {
      const std::int64_t a = NowNs();
      buf_len_ = cursor_->Next(buf_.data(), buf_.size());
      const std::int64_t b = NowNs();
      buf_pos_ = 0;
      folds_[kDecode].Add(a, b);
      if (phase_ == kRun) {
        m_.decode_ns += b - a;
        m_.decoded += buf_len_;
      }
      if (buf_len_ == 0) {
        if (!cursor_->ok()) {
          std::fprintf(stderr, "decode: %s\n",
                       cursor_->status().ToString().c_str());
          decode_failed_ = true;
        }
        return false;
      }
    }
    *e = buf_[buf_pos_++];
    return true;
  }

  /// Drains results the way a subscriber does: once per slide, right after
  /// a push that completed a batch, so draining never forces an extra
  /// flush. Only the checked queries' results are kept.
  void Drain() {
    const std::int64_t a = NowNs();
    std::size_t got = 0;
    std::size_t k = 0;
    const auto n = static_cast<QueryId>(engine().num_queries());
    for (QueryId q = 0; q < n; ++q) {
      if (!engine().IsLive(q)) continue;
      std::vector<Sgt> r = engine().TakeResults(q);
      got += r.size();
      if (recording_) {
        const auto qi = static_cast<std::size_t>(q);
        if (since_ckpt_.size() <= qi) since_ckpt_.resize(qi + 1);
        since_ckpt_[qi].insert(since_ckpt_[qi].end(), r.begin(), r.end());
      }
      while (k < checked_.size() && checked_[k].second < q) ++k;
      if (k < checked_.size() && checked_[k].second == q) {
        for (const Sgt& sgt : r) {
          kept_[k].push_back(
              {sgt.src, sgt.trg, sgt.validity, sgt.is_deletion});
        }
      }
    }
    const std::int64_t b = NowNs();
    RareSpan("drain", a, b);
    if (phase_ == kRun) {
      m_.drain_ns += b - a;
      m_.drain_ms.push_back((b - a) * 1e-6);
      m_.results += got;
    }
  }

  std::string CheckpointPath() const {
    return s_.ckpt_dir + "/" + w_.name + "-" + std::to_string(getpid()) +
           ".sgqc";
  }

  /// Takes a snapshot and makes it the restore source: the stream tail and
  /// the results from here on are recorded for the replay comparison.
  void TakeCheckpoint() {
    const std::uint64_t ser0 = engine().checkpoint_write_ns();
    const std::uint64_t bytes0 = engine().checkpoint_bytes();
    const std::int64_t a = NowNs();
    const Status st = engine().Checkpoint(CheckpointPath(), &live_->vocab);
    const std::int64_t b = NowNs();
    RareSpan("checkpoint", a, b);
    if (!counts_->Record(st, "Checkpoint")) return;
    if (phase_ == kRun) m_.ckpt_ns += b - a;
    if (phase_ == kRun || phase_ == kOps) {
      const double serialize_ms =
          static_cast<double>(engine().checkpoint_write_ns() - ser0) * 1e-6;
      m_.ckpt_pause_ms.push_back((b - a) * 1e-6);
      m_.ckpt_serialize_ms.push_back(serialize_ms);
      // The rest of the call is joining the previous background write.
      m_.ckpt_wait_ms.push_back(std::max(0.0, (b - a) * 1e-6 - serialize_ms));
      m_.ckpt_mb.push_back(
          static_cast<double>(engine().checkpoint_bytes() - bytes0) /
          (1024.0 * 1024.0));
      ++checkpoints_;
    }
    have_checkpoint_ = true;
    recording_ = true;
    tail_.clear();
    flush_points_.clear();
    since_ckpt_.clear();
    ingested_at_ckpt_ = engine().ingested();
    history_at_ckpt_ = history_.size();
  }

  /// Live attach, from MakeQuery through AddQuery: what a SUBSCRIBE waits
  /// for. Returns the new id, or -1 when refused.
  QueryId Attach(const std::string& text) {
    const std::int64_t a = NowNs();
    Result<StreamingGraphQuery> query =
        MakeQuery(text, PaperWindow(), &live_->vocab);
    const std::int64_t c = NowNs();
    Result<QueryId> id = query.ok()
                             ? engine().AddQuery(*query, live_->vocab)
                             : Result<QueryId>(query.status());
    const std::int64_t b = NowNs();
    RareSpan("attach", a, b);
    if (phase_ == kRun) m_.churn_ns += b - a;
    if (!counts_->Record(id.status(), "AddQuery (live)")) return -1;
    m_.attach_ms.push_back((b - a) * 1e-6);
    m_.engine_attach_ms.push_back((b - c) * 1e-6);
    history_.push_back({true, text, *id});
    return *id;
  }

  void Detach(QueryId id) {
    const std::int64_t a = NowNs();
    const Status st = engine().RemoveQuery(id);
    const std::int64_t b = NowNs();
    RareSpan("detach", a, b);
    if (phase_ == kRun) m_.churn_ns += b - a;
    if (!counts_->Record(st, "RemoveQuery")) return;
    m_.detach_ms.push_back((b - a) * 1e-6);
    history_.push_back({false, "", id});
  }

  /// Samples operator state (traced runs only) at a slide boundary, at
  /// most every 250 ms: the introspection calls walk every operator, so
  /// sampling each slide would dominate a run with thousands of them. They
  /// are public calls, so they get a layer span of their own.
  void SampleState() {
    const std::int64_t a = NowNs();
    if (a - state_sampled_at_ < 250'000'000) return;
    state_sampled_at_ = a;
    m_.state_bytes_peak = std::max(m_.state_bytes_peak, engine().StateBytes());
    m_.state_entries_peak =
        std::max(m_.state_entries_peak, engine().StateSize());
    ++m_.state_samples;
    const std::int64_t b = NowNs();
    RareSpan("state", a, b);
    m_.state_ns += b - a;
  }

  /// The once-per-slide work at a batch boundary: drain, then the
  /// workload's in-loop snapshot and subscription churn.
  void AtBatchBoundary() {
    if (cur_slide_ <= drained_slide_) return;
    drained_slide_ = cur_slide_;
    Drain();
    if (phase_ != kWarmup && phase_ != kRun) return;
    if (phase_ == kRun && tracer_->enabled()) SampleState();
    const int every = s_.checkpoint_every(w_);
    if (every > 0 && cur_slide_ - last_ckpt_slide_ >= every) {
      last_ckpt_slide_ = cur_slide_;
      TakeCheckpoint();
    }
    if (w_.churn && phase_ == kRun) {
      const QueryId id =
          Attach(w_.attach_pool[next_attach_++ % w_.attach_pool.size()]);
      if (id >= 0) churn_live_.push_back(id);
      if (churn_live_.size() > s_.churn_live()) {
        Detach(churn_live_.front());
        churn_live_.erase(churn_live_.begin());
      }
    }
  }

  /// Latency samples of the batch that just completed at `end`.
  void CompleteBatch(std::int64_t end) {
    for (std::size_t k = sampled_from_; k < pending_; ++k) {
      m_.latency_ms.push_back((end - starts_[k]) * 1e-6);
    }
    pending_ = 0;
    sampled_from_ = 0;
  }

  /// Pushes one edge and does the per-slide work it triggers; returns the
  /// time the push call returned.
  std::int64_t PushOne(const Sge& e) {
    const std::int64_t slide = e.t / kSlide;
    bool boundary = false;
    if (slide != cur_slide_) {
      boundary = cur_slide_ >= 0;
      if (phase_ == kWarmup && slide >= first_slide_ + s_.warmup_slides()) {
        StartRun();
      }
      BeginSlide(slide, NowNs());
    }
    const std::int64_t a = NowNs();
    engine().Push(e);
    const std::int64_t b = NowNs();
    ++pushed_;
    last_t_ = e.t;
    if (recording_) tail_.push_back(e);
    starts_[pending_++] = a;
    if (phase_ != kRun) sampled_from_ = pending_;
    // EngineOptions::batch_size: the queue flushes when it fills, so this
    // push is the call after which the batch's results sit in the sinks.
    const bool completed = pending_ == w_.batch;
    const Fold fold = boundary    ? kPushBoundary
                      : completed ? kPushFlush
                                  : kPushPlain;
    folds_[fold].Add(a, b);
    if (phase_ == kRun) {
      if (run_first_t_ < 0) run_first_t_ = e.t;
      if (++run_edges_ == plan_.mark_edges) mark_at_ = b;
      m_.push_ns += b - a;
      if (tracer_->enabled()) {
        m_.push_us[fold].push_back((b - a) * 1e-3);
        // At batch 1 every push completes its own one-edge batch, so the
        // plain and flush classes are the same pushes.
        if (fold == kPushFlush && w_.batch == 1) {
          m_.push_us[kPushPlain].push_back((b - a) * 1e-3);
        }
      }
    }
    if (completed) {
      CompleteBatch(b);
      AtBatchBoundary();
    }
    return b;
  }

  /// An explicit flush completes a partial batch; its results are drained
  /// right away.
  void ExplicitFlush() {
    const std::int64_t a = NowNs();
    engine().Flush();
    const std::int64_t b = NowNs();
    RareSpan("flush", a, b);
    if (phase_ == kRun) {
      m_.push_ns += b - a;
      if (tracer_->enabled()) m_.push_us[kPushFlush].push_back((b - a) * 1e-3);
    }
    if (recording_) flush_points_.push_back(tail_.size());
    CompleteBatch(b);
    drained_slide_ = cur_slide_;
    Drain();
  }

  void StartRun() {
    const std::int64_t at = NowNs();
    OpenPhase(kRun, at);
    run_start_ = at;
    ops_touched0_ = engine().executor().ops_touched();
    index_skipped0_ = engine().executor().index_skipped_dispatches();
  }

  bool Loop() {
    cursor_ = OpenCursor(bytes_, w_.format, &live_->vocab);
    if (!cursor_->ok()) {
      std::fprintf(stderr, "decode: %s\n",
                   cursor_->status().ToString().c_str());
      return false;
    }
    buf_.resize(256);
    starts_.resize(w_.batch);
    OpenPhase(kWarmup, NowNs());
    const auto cap_ns = static_cast<std::int64_t>(plan_.max_seconds * 1e9);
    Sge e;
    bool more = true;
    while ((more = NextEdge(&e))) {
      if (first_slide_ < 0) first_slide_ = e.t / kSlide;
      const std::int64_t end = PushOne(e);
      if (phase_ == kRun && (run_edges_ == plan_.run_edges ||
                             end - run_start_ >= cap_ns)) {
        break;
      }
    }
    if (decode_failed_) return false;
    if (phase_ != kRun) {
      std::fprintf(stderr, "the stream ended inside the warm-up\n");
      return false;
    }
    stream_ended_ = !more;
    ExplicitFlush();
    const std::int64_t run_end = NowNs();
    m_.run_ns += run_end - run_start_;
    m_.mark_ns += (mark_at_ > 0 ? mark_at_ : run_end) - run_start_;
    m_.run_edges += run_edges_;
    m_.stream_ended = m_.stream_ended || stream_ended_;
    stop_slide_ = cur_slide_;
    m_.ops_touched += engine().executor().ops_touched() - ops_touched0_;
    m_.index_skipped +=
        engine().executor().index_skipped_dispatches() - index_skipped0_;
    const LatencyRecorder& slides = engine().slide_latencies();
    m_.slide_p50_ms.push_back(slides.Percentile(0.5) * 1e3);
    m_.slide_p99_ms.push_back(slides.Percentile(0.99) * 1e3);
    m_.slide_samples += slides.count();
    OpenPhase(kOps, run_end);
    return true;
  }

  // --- ops: snapshot, restore + replay, live attach --------------------------
  void Ops() {
    if (checkpoints_ == 0) {
      // Workloads that do not snapshot in the loop take their snapshots
      // here, each after the previous background write has landed.
      for (std::size_t i = 0; i < PerEpisode(s_.checkpoints()); ++i) {
        counts_->Record(engine().WaitForCheckpoint(), "checkpoint write");
        TakeCheckpoint();
      }
    }
    // A short stream tail after the snapshot, drained as usual.
    Sge e;
    while (!stream_ended_ && cur_slide_ < stop_slide_ + kTailSlides) {
      if (!NextEdge(&e)) {
        stream_ended_ = true;
        break;
      }
      PushOne(e);
    }
    ExplicitFlush();
    CloseSlide(NowNs());
    counts_->Record(engine().WaitForCheckpoint(), "checkpoint write");
    d_->engine.reset();  // the restored engine takes its place
    live_ = nullptr;

    std::unique_ptr<Deployment> restored;
    for (std::size_t r = 0;
         have_checkpoint_ && r < PerEpisode(s_.restores()); ++r) {
      restored.reset();
      const std::int64_t a = NowNs();
      restored = Rebuild();
      const std::int64_t b = NowNs();
      RareSpan("restore", a, b);
      if (restored == nullptr) break;
      m_.restore_s.push_back((b - a) * 1e-9);
    }
    if (restored != nullptr) {
      ReplayAndCompare(restored.get());
      live_ = restored.get();
      // Workloads without in-loop churn measure live attach here, on the
      // restored engine: attach a cycle query, detach it again.
      for (std::size_t i = 0; !w_.churn && i < PerEpisode(s_.attach_burst());
           ++i) {
        const QueryId id = Attach(w_.attach_pool[i % w_.attach_pool.size()]);
        if (id >= 0) Detach(id);
      }
      live_ = nullptr;
    }
  }

  /// Rebuilds a fresh engine from the last snapshot: construct, re-register
  /// the static queries and the live-registration history, Finalize,
  /// Restore. Returns null when any step fails.
  std::unique_ptr<Deployment> Rebuild() {
    auto d = std::make_unique<Deployment>();
    EngineOptions options;
    options.batch_size = w_.batch;
    options.num_workers = plan_.workers;
    d->engine = std::make_unique<Engine>(options);
    const auto add = [&](const std::string& text) {
      Result<StreamingGraphQuery> query =
          MakeQuery(text, PaperWindow(), &d->vocab);
      Result<QueryId> id = query.ok() ? d->engine->AddQuery(*query, d->vocab)
                                      : Result<QueryId>(query.status());
      return counts_->Record(id.status(), "AddQuery (restore)");
    };
    for (std::size_t qi : plan_.queries) {
      if (!add(w_.queries[qi].text)) return nullptr;
    }
    if (!counts_->Record(d->engine->Finalize(), "Finalize (restore)")) {
      return nullptr;
    }
    for (std::size_t i = 0; i < history_at_ckpt_; ++i) {
      const Registration& r = history_[i];
      const bool ok = r.attach ? add(r.text)
                               : counts_->Record(d->engine->RemoveQuery(r.id),
                                                 "RemoveQuery (restore)");
      if (!ok) return nullptr;
    }
    const std::int64_t a = NowNs();
    const Status st = d->engine->Restore(CheckpointPath(), &d->vocab);
    m_.restore_call_ms.push_back((NowNs() - a) * 1e-6);
    if (!counts_->Record(st, "Restore")) return nullptr;
    return d;
  }

  /// Replays the recorded tail into the restored engine with the original
  /// flush points; every live query's results must equal the original
  /// engine's results since the snapshot.
  void ReplayAndCompare(Deployment* r) {
    Engine& e = *r->engine;
    bool same = e.ingested() == ingested_at_ckpt_;
    std::size_t f = 0;
    for (std::size_t i = 0; i <= tail_.size(); ++i) {
      while (f < flush_points_.size() && flush_points_[f] == i) {
        e.Flush();
        ++f;
      }
      if (i < tail_.size()) e.Push(tail_[i]);
    }
    const auto n = static_cast<QueryId>(e.num_queries());
    for (QueryId q = 0; q < n; ++q) {
      if (!e.IsLive(q)) continue;
      const std::vector<Sgt> got = e.TakeResults(q);
      const auto qi = static_cast<std::size_t>(q);
      const std::size_t want =
          qi < since_ckpt_.size() ? since_ckpt_[qi].size() : 0;
      const bool equal =
          qi < since_ckpt_.size() ? got == since_ckpt_[qi] : got.empty();
      if (!equal) {
        std::fprintf(stderr,
                     "restore-replay: query %d: %zu results after restore, "
                     "%zu in the original run\n",
                     q, got.size(), want);
      }
      same = same && equal;
    }
    counts_->Record(same);
  }

  // --- check: Def. 14 against the one-time oracle ---------------------------
  /// Compares each checked query's result snapshot with EvaluateOneTime on
  /// the windowed input snapshot at instants evenly spread over the run.
  void Check() {
    OpenPhase(kCheck, NowNs());
    const std::int64_t a = NowNs();
    const WindowSpec window = PaperWindow();
    const Timestamp reach = window.size + window.slide;
    const int n = kCheckInstants;
    std::vector<Timestamp> instants;
    for (int k = 0; k < n; ++k) {
      instants.push_back(run_first_t_ +
                         (last_t_ - run_first_t_) * (2 * k + 1) / (2 * n));
    }
    // Re-decode the pushed prefix, keeping only what the instants' windows
    // need; the engine's vocabulary maps every name to the same id again.
    auto cursor = OpenCursor(bytes_, w_.format, &d_->vocab);
    InputStream input;
    std::vector<Sge> buf(4096);
    for (std::size_t seen = 0; seen < pushed_;) {
      const std::size_t got =
          cursor->Next(buf.data(), std::min(buf.size(), pushed_ - seen));
      if (got == 0) break;
      seen += got;
      for (std::size_t i = 0; i < got; ++i) {
        for (Timestamp t : instants) {
          if (buf[i].t <= t && buf[i].t >= t - reach) {
            input.push_back(buf[i]);
            break;
          }
        }
      }
    }
    std::vector<SnapshotGraph> snapshots;
    for (Timestamp t : instants) {
      SgtStream windowed;
      for (const Sge& e : input) {
        if (e.t > t || e.t < t - reach) continue;
        const Interval validity(e.t, e.is_deletion ? kMaxTimestamp
                                                   : window.ExpiryFor(e.t));
        windowed.emplace_back(e.src, e.trg, e.label, validity,
                              Payload{e.edge()}, e.is_deletion);
      }
      snapshots.push_back(SnapshotGraph::At(windowed, t));
    }
    for (std::size_t k = 0; k < checked_.size(); ++k) {
      const std::size_t pos = checked_[k].first;
      const std::vector<VertexPairSet> engine_pairs =
          SnapshotPairs(kept_[k], instants);
      for (std::size_t i = 0; i < instants.size(); ++i) {
        Result<VertexPairSet> expected =
            EvaluateOneTime(d_->queries[pos].rq, snapshots[i], d_->vocab);
        const VertexPairSet& got = engine_pairs[i];
        const bool ok = expected.ok() && got == *expected;
        if (expected.ok()) m_.pairs_compared += expected->size();
        if (!ok) {
          std::fprintf(
              stderr,
              "oracle: %s at t=%lld (episode %zu): engine %zu pairs, "
              "oracle %zu\n",
              w_.queries[plan_.queries[pos]].name.c_str(),
              static_cast<long long>(instants[i]), index_, got.size(),
              expected.ok() ? expected->size() : 0);
        }
        counts_->Record(ok);
      }
    }
    RareSpan("oracle", a, NowNs());
  }

  // --- state ---------------------------------------------------------------
  const Workload& w_;
  const Settings& s_;
  const RunPlan& plan_;
  const std::size_t index_;
  const std::string& bytes_;
  Tracer* tracer_;
  OpCounts* counts_;
  Samples& m_;

  /// The set-up deployment: its engine runs the loop, its vocabulary and
  /// queries serve the check.
  std::unique_ptr<Deployment> d_;
  /// The deployment whose engine the feeder currently drives.
  Deployment* live_ = nullptr;
  /// (position in plan_.queries, QueryId) of each checked query, by id.
  std::vector<std::pair<std::size_t, QueryId>> checked_;
  std::vector<std::vector<KeptResult>> kept_;  ///< parallel to checked_

  std::unique_ptr<StreamCursor> cursor_;
  std::vector<Sge> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  bool decode_failed_ = false;
  bool stream_ended_ = false;

  int root_span_ = -1;
  int phase_span_ = -1;
  int slide_span_ = -1;
  Phase phase_ = kSetup;
  FoldAcc folds_[kNumFolds];

  std::int64_t first_slide_ = -1;
  std::int64_t cur_slide_ = -1;
  std::int64_t drained_slide_ = -1;
  std::int64_t last_ckpt_slide_ = 0;
  std::int64_t stop_slide_ = 0;
  std::vector<std::int64_t> starts_;  ///< push start of each pending edge
  std::size_t pending_ = 0;           ///< edges of the unflushed batch
  std::size_t sampled_from_ = 0;      ///< first pending edge that is sampled
  std::size_t pushed_ = 0;
  Timestamp last_t_ = 0;
  Timestamp run_first_t_ = -1;
  std::int64_t run_start_ = 0;
  std::int64_t mark_at_ = 0;
  std::size_t run_edges_ = 0;
  std::size_t ops_touched0_ = 0;
  std::size_t index_skipped0_ = 0;
  std::size_t checkpoints_ = 0;  ///< measured snapshots of this episode
  std::int64_t state_sampled_at_ = 0;

  // restore-replay bookkeeping
  bool have_checkpoint_ = false;
  bool recording_ = false;
  std::vector<Sge> tail_;
  std::vector<std::size_t> flush_points_;
  std::vector<SgtStream> since_ckpt_;  ///< by QueryId
  std::uint64_t ingested_at_ckpt_ = 0;
  std::vector<Registration> history_;
  std::size_t history_at_ckpt_ = 0;
  std::vector<QueryId> churn_live_;
  std::size_t next_attach_ = 0;
};

/// Runs every episode of `plan`, pooling the measurements into `samples`;
/// false when an episode could not proceed.
bool Measure(const Workload& w, const Settings& s, const RunPlan& plan,
             Tracer* tracer, OpCounts* counts, Samples* samples) {
  const int root = tracer->Open("workload:" + w.name, -1, NowNs());
  // Per-edge samples: reserved once, so the loop never pays a reallocation.
  const std::size_t edges = plan.run_edges * plan.episodes;
  samples->latency_ms.reserve(edges);
  if (tracer->enabled()) {
    samples->push_us[kPushPlain].reserve(edges);
    samples->push_us[kPushFlush].reserve(edges);
  }
  bool ok = true;
  for (std::size_t e = 0; ok && e < plan.episodes; ++e) {
    // The load generator: excluded from every timing.
    Result<std::string> bytes = GenerateStreamBytes(w, s, plan, e);
    if (!bytes.ok()) {
      std::fprintf(stderr, "stream: %s\n", bytes.status().ToString().c_str());
      return false;
    }
    samples->stream_bytes += bytes->size();
    Episode episode(w, s, plan, e, *bytes, tracer, root, counts, samples);
    ok = episode.Execute();
  }
  tracer->Close(root, NowNs());
  return ok;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ",";
    out += "\"" + m.name + "\":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":\"" + m.unit +
           "\",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

void Usage() {
  std::fprintf(stderr,
               "usage: bench_sgq --workload NAME [--seed N] [--seconds S] "
               "[--trace PATH] [--smoke] [--ckpt-dir DIR]\nworkloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Settings* s) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      s->smoke = true;
    } else if (arg == "--workload" && has_value) {
      s->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      s->seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return false;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      s->seconds = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !(s->seconds > 0)) return false;
    } else if (arg == "--trace" && has_value) {
      s->trace_path = argv[++i];
    } else if (arg == "--ckpt-dir" && has_value) {
      s->ckpt_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !s->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Settings s;
  if (!ParseArgs(argc, argv, &s)) {
    Usage();
    return 2;
  }
  const std::vector<Workload> workloads = Workloads();
  const Workload* w = nullptr;
  for (const Workload& candidate : workloads) {
    if (candidate.name == s.workload) w = &candidate;
  }
  if (w == nullptr) {
    Usage();
    return 2;
  }
  const std::size_t cpus = Cpus();
  const RunPlan plan = MainPlan(*w, s, cpus);

  OpCounts counts;
  Samples main_run;
  std::vector<Metric> metrics;
  std::string extra;
  bool ok = true;
  if (s.trace_path.empty()) {
    Tracer off(false);
    ok = Measure(*w, s, plan, &off, &counts, &main_run);
    metrics = EndToEnd(main_run, counts, PeakRssMb());
  } else {
    // Untraced reference loop, so the traced run's overhead is measured.
    RunPlan loop_only = plan;
    loop_only.full = false;
    Tracer off(false);
    Samples reference;
    ok = Measure(*w, s, loop_only, &off, &counts, &reference);

    Tracer tracer(true);
    ok = Measure(*w, s, plan, &tracer, &counts, &main_run) && ok;
    if (!tracer.Write(s.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", s.trace_path.c_str());
      ok = false;
    }
    metrics = PerLayer(main_run);

    // Attribution runs over the reference's first plan.mark_edges run-phase
    // edges of each episode: each query group alone, and the same job at
    // the other worker count (for the sharded workload, its single-threaded
    // baseline).
    RunPlan prefix = loop_only;
    prefix.run_edges = plan.mark_edges;
    const double shared_s = reference.mark_seconds();
    double solo_sum = 0;
    extra += ",\"shared_s\":" + JsonNumber(shared_s) + ",\"solo_s\":{";
    for (std::size_t g = 0; g < w->solo_groups.size(); ++g) {
      RunPlan solo = prefix;
      solo.queries = w->solo_groups[g].second;
      Samples alone;
      ok = Measure(*w, s, solo, &off, &counts, &alone) && ok;
      solo_sum += alone.mark_seconds();
      extra += (g > 0 ? ",\"" : "\"") + w->solo_groups[g].first +
               "\":" + JsonNumber(alone.mark_seconds());
    }
    extra += "}";
    RunPlan other = prefix;
    other.workers = plan.workers > 1 ? 1 : std::min<std::size_t>(4, cpus);
    Samples scaled;
    ok = Measure(*w, s, other, &off, &counts, &scaled) && ok;
    const double s_one = plan.workers > 1 ? scaled.mark_seconds() : shared_s;
    const double s_many = plan.workers > 1 ? shared_s : scaled.mark_seconds();
    metrics.push_back({"runtime.speedup_4v1", Ratio(s_one, s_many), "ratio",
                       2});
    metrics.push_back({"core.sharing_ratio", Ratio(solo_sum, shared_s),
                       "ratio", w->solo_groups.size()});
    metrics.push_back(
        {"trace.overhead",
         1 - Ratio(main_run.tuples_per_sec(), reference.tuples_per_sec()),
         "ratio", 2});
  }

  const bool correct = ok && counts.failed == 0;
  std::printf(
      "{\"bench\":\"sgq\",\"workload\":\"%s\",\"seed\":%llu,\"cpus\":%zu,"
      "\"workers\":%zu,\"batch\":%zu,\"episodes\":%zu,\"trace\":%d,"
      "\"smoke\":%s,\"seconds\":%s,\"stream_bytes\":%zu,\"run_edges\":%zu,"
      "\"run_s\":%s,\"stream_ended\":%s,\"correct\":%s,\"attempted\":%zu,"
      "\"failed\":%zu,\"metrics\":%s%s}\n",
      w->name.c_str(), static_cast<unsigned long long>(s.seed), cpus,
      plan.workers, w->batch, plan.episodes, s.trace_path.empty() ? 0 : 1,
      s.smoke ? "true" : "false", JsonNumber(s.seconds).c_str(),
      main_run.stream_bytes, main_run.run_edges,
      JsonNumber(main_run.run_seconds()).c_str(),
      main_run.stream_ended ? "true" : "false", correct ? "true" : "false",
      std::max<std::size_t>(counts.attempted, 1),
      counts.failed + (ok ? 0 : 1), MetricsJson(metrics).c_str(),
      extra.c_str());
  return correct ? 0 : 1;
}
