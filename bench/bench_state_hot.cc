// Hot operator-state microbench: single-worker ingest throughput and
// time-advance tail latency on a deletion-heavy gallery workload.
//
// This is the tracking bench for the flat-hash/arena/expiry-calendar state
// layer: every workload is dominated by stateful-operator access — the
// PATH spanning forests and window adjacency (S-PATH and Δ-tree, the
// latter paying DRed-style expiry re-derivation), and the PATTERN
// symmetric hash-join tables. Deletions are frequent (the generator
// deletes a recent edge with probability 0.15), so the delete/re-derive
// and retraction paths are hot too, not just inserts.
//
// Each row repeats its pass on a fresh engine — at least kMinPasses
// passes and kMinSeconds of timed work — and reports the median pass by
// elapsed time: one pass of the small stream takes milliseconds for the
// PATTERN row, too short to tell rows apart between processes. Every
// pass must agree on edges, results and state, or the bench fails.
//
// Output: one JSON object per line on stdout —
//   {"bench":"state_hot","workload":...,"workers":1,"batch":B,"edges":E,
//    "elapsed_seconds":S,"tuples_per_sec":T,"p99_slide_seconds":L,
//    "results":R,"state_entries":N,"state_bytes":M,
//    "ops_touched_per_edge":F,"index_skipped_dispatches":D}
// plus a human summary on stderr. Compare against the committed
// pre-change numbers in bench/baselines/BENCH_state_hot.json with
// scripts/bench_diff.py.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workload/plan_gallery.h"

int main() {
  using namespace sgq;

  // The deletion-heavy SO-like stream shared by every workload below.
  // Smaller than bench_common::SoStream: the deletion-heavy PATTERN
  // retraction replay is O(state) per deletion, so the stream is sized for
  // seconds, not hours, at scale 1.
  Vocabulary vocab;
  SoOptions so;
  so.num_vertices = bench::Scaled(320);
  so.num_edges = bench::Scaled(1125);
  so.edges_per_hour = 2.5;
  so.deletion_probability = 0.15;
  so.deletion_horizon = 2048;
  auto stream = GenerateSoStream(so, &vocab);
  bench::CheckOk(stream.status(), "stream");

  const std::size_t kBatch = 1;  // tuple-at-a-time: state access dominates
  const std::size_t kMinPasses = 3;
  const double kMinSeconds = 1.0;

  struct Workload {
    std::string name;
    RunMetrics metrics;
  };
  std::vector<Workload> rows;

  auto run_row = [&](const std::string& name, const RunQuery& query,
                     PathImpl impl) {
    std::fprintf(stderr, "running %s...\n", name.c_str());
    RunOptions options;
    options.engine.batch_size = kBatch;
    options.engine.num_workers = 1;
    options.engine.path_impl = impl;
    std::vector<RunMetrics> passes;
    double timed = 0;
    while (passes.size() < kMinPasses || timed < kMinSeconds) {
      auto run =
          Run(RunSource::Decoded(*stream), {query}, &vocab, options, name);
      bench::CheckOk(run.status(), name.c_str());
      const RunMetrics& m = run->totals;
      const RunMetrics& first = passes.empty() ? m : passes.front();
      if (m.edges_processed != first.edges_processed ||
          m.results_emitted != first.results_emitted ||
          m.state_entries != first.state_entries ||
          m.state_bytes != first.state_bytes) {
        std::fprintf(stderr, "%s: pass %zu did different work\n",
                     name.c_str(), passes.size());
        std::exit(1);
      }
      timed += m.elapsed_seconds;
      passes.push_back(m);
    }
    std::sort(passes.begin(), passes.end(),
              [](const RunMetrics& a, const RunMetrics& b) {
                return a.elapsed_seconds < b.elapsed_seconds;
              });
    const RunMetrics& median = passes[passes.size() / 2];
    std::fprintf(stderr, "  %zu passes, median %.3fs\n", passes.size(),
                 median.elapsed_seconds);
    rows.push_back({name, median});
  };
  auto run_query = [&](const std::string& name, const char* text,
                       PathImpl impl) {
    auto q = MakeQuery(text, bench::PaperWindow(), &vocab);
    bench::CheckOk(q.status(), name.c_str());
    run_row(name, *q, impl);
  };

  // PATH-dominated: transitive closure over the densest label, with both
  // physical implementations (Δ-tree turns every expiry wave into a
  // delete/re-derive round).
  run_query("path-spath", "Answer(x,y) <- a2q+(x,y)", PathImpl::kSPath);
  run_query("path-delta", "Answer(x,y) <- a2q+(x,y)", PathImpl::kDeltaPath);
  // PATTERN-dominated: the symmetric hash-join pipeline.
  run_query("pattern-3atom", "Answer(x,w) <- a2q(x,y), c2a(y,z), c2q(z,w)",
            PathImpl::kSPath);
  // Mixed: join over a path closure (window sharing + both state kinds).
  run_query("mixed", "Answer(x,z) <- a2q+(x,y), c2q(y,z)", PathImpl::kSPath);

  // Gallery plan: Q4's canonical loop-caching plan (PATTERN feeding PATH).
  auto plans = Q4Plans(&vocab, "a2q", "c2a", "c2q", bench::PaperWindow());
  run_row("q4-sga", *plans[0].second, PathImpl::kSPath);

  std::fprintf(stderr,
               "state_hot (workers=1, deletion-heavy SO stream)\n"
               "%-16s %14s %16s %10s %12s\n",
               "workload", "tput (edges/s)", "p99 slide (ms)", "results",
               "state bytes");
  for (const Workload& w : rows) {
    std::printf(
        "{\"bench\":\"state_hot\",\"workload\":\"%s\",\"workers\":1,"
        "\"cpus\":%zu,"
        "\"batch\":%zu,\"edges\":%zu,\"elapsed_seconds\":%.6f,"
        "\"tuples_per_sec\":%.1f,\"p99_slide_seconds\":%.6f,"
        "\"results\":%zu,\"state_entries\":%zu,\"state_bytes\":%zu,"
        "\"ingest_stall_ns\":%llu,\"exec_stall_ns\":%llu,"
        "\"ops_touched_per_edge\":%.3f,\"index_skipped_dispatches\":%zu"
        "%s}\n",
        w.name.c_str(), bench::Cpus(), kBatch, w.metrics.edges_processed,
        w.metrics.elapsed_seconds, w.metrics.Throughput(),
        w.metrics.tail_latency_seconds, w.metrics.results_emitted,
        w.metrics.state_entries, w.metrics.state_bytes,
        static_cast<unsigned long long>(w.metrics.ingest_stall_ns),
        static_cast<unsigned long long>(w.metrics.exec_stall_ns),
        w.metrics.OpsTouchedPerEdge(), w.metrics.index_skipped_dispatches,
        bench::CheckpointJson(w.metrics).c_str());
    std::fprintf(stderr, "%-16s %14.0f %16.3f %10zu %12zu\n", w.name.c_str(),
                 w.metrics.Throughput(),
                 w.metrics.tail_latency_seconds * 1e3,
                 w.metrics.results_emitted, w.metrics.state_bytes);
  }
  return 0;
}
