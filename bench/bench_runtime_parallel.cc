// Sharded multi-worker scaling: throughput of the SGA query processor as
// a function of ExecutorOptions::num_workers (DESIGN.md §2.4).
//
// Workloads are the window benchmark mix on the SO-like stream (dense and
// cyclic, so PATH traversal work dominates and parallelizes): a path
// closure, a two-atom join, and the mixed query. Every configuration runs
// with the same micro-batch size so the comparison isolates sharding.
//
// Output: one JSON object per line on stdout —
//   {"bench":"runtime_parallel","workload":...,"workers":N,"batch":B,
//    "edges":E,"elapsed_seconds":S,"tuples_per_sec":T,"results":R,
//    "emission_ratio":Q,"speedup_vs_1":X,
//    "ops_touched_per_edge":F,"index_skipped_dispatches":D}
// so future PRs can track the scaling trajectory mechanically. A human
// summary goes to stderr. Result counts are checked for snapshot
// plausibility (a worker count must not lose all results) and for
// emission volume: the merge-side coalescer at the exchange (DESIGN.md
// §2.4) must keep multi-worker emission counts at single-worker volume —
// exactly for the pure PATTERN workload, and within a small tolerance for
// the mixed workload (sharded PATH upstream may split the same snapshot
// coverage into differently-cut intervals, which the exchange cannot
// re-merge).

#include "bench_common.h"

int main() {
  using namespace sgq;

  struct Workload {
    const char* name;
    const char* query;
    /// Allowed multi-worker emission inflation over workers=1 (1.0 =
    /// exact parity, enforced via the merge-side coalescer).
    double max_emission_ratio;
  };
  const Workload workloads[] = {
      // PATH partitions output values by tree root: duplicate-free across
      // shards, but interval *cuts* may differ, so volume only roughly
      // tracks workers=1.
      {"path-closure", "Answer(x,y) <- a2q+(x,y)", 1.05},
      // Top-level PATTERN over scans: the merge-side coalescer restores
      // exact single-worker volume.
      {"pattern-2atom", "Answer(x,z) <- a2q(x,y), c2a(y,z)", 1.0},
      // PATTERN over sharded PATH: coalesced at the exchange, with
      // tolerance for upstream interval cuts.
      {"mixed", "Answer(x,z) <- a2q+(x,y), c2q(y,z)", 1.05},
  };
  const std::size_t kBatch = 512;

  int failures = 0;
  for (const Workload& w : workloads) {
    std::fprintf(stderr, "-- %s --\n", w.name);
    double baseline_tput = 0;
    std::size_t baseline_results = 0;
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}, std::size_t{8}}) {
      Vocabulary vocab;
      auto stream = bench::SoStream(&vocab);
      bench::CheckOk(stream.status(), "stream");
      auto query = MakeQuery(w.query, bench::PaperWindow(), &vocab);
      bench::CheckOk(query.status(), w.name);
      RunOptions options;
      options.engine.batch_size = kBatch;
      options.engine.num_workers = workers;
      auto run =
          Run(RunSource::Decoded(*stream), {*query}, &vocab, options,
              std::string(w.name) + "/workers=" + std::to_string(workers));
      bench::CheckOk(run.status(), "run");
      const RunMetrics& metrics = run->totals;

      const double tput = metrics.Throughput();
      double emission_ratio = 1.0;
      if (workers == 1) {
        baseline_tput = tput;
        baseline_results = metrics.results_emitted;
      } else {
        if (metrics.results_emitted == 0 && baseline_results != 0) {
          std::fprintf(stderr,
                       "workers=%zu produced no results (baseline %zu)\n",
                       workers, baseline_results);
          ++failures;
        }
        emission_ratio =
            baseline_results > 0
                ? static_cast<double>(metrics.results_emitted) /
                      static_cast<double>(baseline_results)
                : 1.0;
        if (emission_ratio > w.max_emission_ratio) {
          std::fprintf(stderr,
                       "workers=%zu emission volume %zu exceeds workers=1 "
                       "volume %zu beyond the %.2f bound (merge-side "
                       "coalescer regression?)\n",
                       workers, metrics.results_emitted, baseline_results,
                       w.max_emission_ratio);
          ++failures;
        }
        // Guard below too: the coalescer may suppress a hair under
        // workers=1 (merge order presents covering intervals first), but
        // a substantial deficit means results were lost, not coalesced.
        if (emission_ratio < 0.95) {
          std::fprintf(stderr,
                       "workers=%zu emission volume %zu fell below 95%% "
                       "of the workers=1 volume %zu (results lost?)\n",
                       workers, metrics.results_emitted, baseline_results);
          ++failures;
        }
      }
      const double speedup = baseline_tput > 0 ? tput / baseline_tput : 0;
      std::printf(
          "{\"bench\":\"runtime_parallel\",\"workload\":\"%s\","
          "\"workers\":%zu,\"cpus\":%zu,\"batch\":%zu,\"edges\":%zu,"
          "\"elapsed_seconds\":%.6f,\"tuples_per_sec\":%.1f,"
          "\"results\":%zu,\"emission_ratio\":%.4f,"
          "\"speedup_vs_1\":%.3f,\"state_bytes\":%zu,"
          "\"ingest_stall_ns\":%llu,\"exec_stall_ns\":%llu,"
          "\"ops_touched_per_edge\":%.3f,"
          "\"index_skipped_dispatches\":%zu%s}\n",
          w.name, workers, bench::Cpus(), kBatch, metrics.edges_processed,
          metrics.elapsed_seconds, tput, metrics.results_emitted,
          emission_ratio, speedup, metrics.state_bytes,
          static_cast<unsigned long long>(metrics.ingest_stall_ns),
          static_cast<unsigned long long>(metrics.exec_stall_ns),
          metrics.OpsTouchedPerEdge(), metrics.index_skipped_dispatches,
          bench::CheckpointJson(metrics).c_str());
      std::fprintf(stderr,
                   "  workers=%zu  %10.0f tuples/s  (%.2fx vs 1)  "
                   "%zu results (%.3fx emission)\n",
                   workers, tput, speedup, metrics.results_emitted,
                   emission_ratio);
    }
  }
  return failures == 0 ? 0 : 1;
}
