// Multi-query engine scaling (core/engine.h, DESIGN.md §3): throughput of
// N concurrent standing queries on one shared executor, with and without
// cross-query operator sharing.
//
// The query set cycles through the plan gallery (workload/plan_gallery.h)
// over the SO-like stream's labels — the Q4/Q2/Q3 plan-space variants
// overlap heavily (shared scans, shared patterns, shared path closures),
// and cycling past the gallery size registers *identical* plans, the
// million-subscriber regime where sharing collapses a whole registration
// to one extra sink. Without sharing every registration compiles a
// private operator topology on the same executor — the ablation baseline.
//
// Output: one JSON object per line on stdout —
//   {"bench":"multi_query","queries":K,"sharing":true|false,"ops":N,
//    "shared_subtrees":S,"cross_query_shared":X,"edges":E,
//    "elapsed_seconds":T,"tuples_per_sec":R,"results_total":C,
//    "speedup_vs_unshared":Y,
//    "ops_touched_per_edge":F,"index_skipped_dispatches":D}
// (shared_subtrees includes within-plan reuse and is nonzero even in the
// unshared ablation; cross_query_shared is the cross-registration
// sharing proper and is 0 there.)
// A human summary goes to stderr. Failure conditions: with sharing on,
// the shared operator core (ops minus per-query sinks) must stop growing
// once the distinct gallery is registered (per-edge work for shared
// prefixes is O(1) in the number of subscribing queries), and per-query
// result counts must not depend on whether sharing is enabled.

#include <vector>

#include "bench_common.h"
#include "workload/plan_gallery.h"

int main() {
  using namespace sgq;

  Vocabulary vocab;
  // A reduced SO-like stream: the unshared 64-query configuration pushes
  // every edge through ~64 private topologies.
  SoOptions so;
  so.num_vertices = bench::Scaled(1200);
  so.num_edges = bench::Scaled(3000);
  so.edges_per_hour = 2.5;
  auto stream = GenerateSoStream(so, &vocab);
  bench::CheckOk(stream.status(), "stream");

  // The overlapping gallery: every plan-space variant of Q4, Q2 and Q3
  // over the same three labels.
  std::vector<NamedPlan> gallery;
  for (auto& p : Q4Plans(&vocab, "a2q", "c2a", "c2q", bench::PaperWindow())) {
    gallery.push_back(std::move(p));
  }
  for (auto& p : Q2Plans(&vocab, "a2q", "c2a", bench::PaperWindow())) {
    gallery.push_back(std::move(p));
  }
  for (auto& p : Q3Plans(&vocab, "a2q", "c2a", "c2q", bench::PaperWindow())) {
    gallery.push_back(std::move(p));
  }
  const std::size_t kBatch = 256;

  int failures = 0;
  std::size_t shared_core_at_gallery = 0;
  for (std::size_t num_queries : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
    std::vector<RunQuery> plans;
    plans.reserve(num_queries);
    for (std::size_t q = 0; q < num_queries; ++q) {
      plans.push_back(*gallery[q % gallery.size()].second);
    }
    std::fprintf(stderr, "-- %zu queries --\n", num_queries);

    double unshared_tput = 0;
    std::vector<std::size_t> unshared_counts;
    for (const bool sharing : {false, true}) {
      RunOptions options;
      options.engine.batch_size = kBatch;
      options.engine.cross_query_sharing = sharing;
      auto metrics = Run(RunSource::Decoded(*stream), plans, &vocab, options,
                         "q=" + std::to_string(num_queries) +
                             (sharing ? "/shared" : "/unshared"));
      bench::CheckOk(metrics.status(), "run");

      const double tput = metrics->totals.Throughput();
      if (!sharing) {
        unshared_tput = tput;
        unshared_counts = metrics->per_query_results;
      } else {
        // Sharing must be behaviorally invisible per query: every
        // snapshot matches (tests/multi_query_test.cc). Sharing permutes
        // operator ids, and the wave order follows them, so coalescer
        // emission *splits* may drift a hair — bound it tightly.
        for (std::size_t q = 0; q < metrics->per_query_results.size();
             ++q) {
          const double a =
              static_cast<double>(metrics->per_query_results[q]);
          const double b = static_cast<double>(unshared_counts[q]);
          if (a > b * 1.01 + 5 || b > a * 1.01 + 5) {
            std::fprintf(stderr,
                         "query %zu: result count diverges between "
                         "sharing modes (%zu vs %zu) at %zu queries\n",
                         q, metrics->per_query_results[q],
                         unshared_counts[q], num_queries);
            ++failures;
          }
        }
        // O(1)-in-K operator core: once every distinct gallery plan is
        // registered, additional subscribers add only their sink.
        const std::size_t core_ops = metrics->num_operators - num_queries;
        if (num_queries >= gallery.size()) {
          if (shared_core_at_gallery == 0) {
            shared_core_at_gallery = core_ops;
          } else if (core_ops != shared_core_at_gallery) {
            std::fprintf(stderr,
                         "shared operator core grew from %zu to %zu ops "
                         "past the distinct gallery\n",
                         shared_core_at_gallery, core_ops);
            ++failures;
          }
        }
      }
      const double speedup =
          sharing && unshared_tput > 0 ? tput / unshared_tput : 1.0;
      if (!sharing && metrics->cross_query_shared != 0) {
        std::fprintf(stderr,
                     "unshared run reports %zu cross-query shared "
                     "subtrees\n",
                     metrics->cross_query_shared);
        ++failures;
      }
      std::printf(
          "{\"bench\":\"multi_query\",\"queries\":%zu,\"sharing\":%s,"
          "\"cpus\":%zu,\"ops\":%zu,\"shared_subtrees\":%zu,"
          "\"cross_query_shared\":%zu,\"edges\":%zu,"
          "\"elapsed_seconds\":%.6f,\"tuples_per_sec\":%.1f,"
          "\"results_total\":%zu,\"speedup_vs_unshared\":%.3f,"
          "\"state_bytes\":%zu,"
          "\"ingest_stall_ns\":%llu,\"exec_stall_ns\":%llu,"
          "\"ops_touched_per_edge\":%.3f,"
          "\"index_skipped_dispatches\":%zu%s}\n",
          num_queries, sharing ? "true" : "false", bench::Cpus(),
          metrics->num_operators,
          metrics->shared_subtrees, metrics->cross_query_shared,
          metrics->totals.edges_processed,
          metrics->totals.elapsed_seconds, tput,
          metrics->totals.results_emitted, speedup,
          metrics->totals.state_bytes,
          static_cast<unsigned long long>(metrics->totals.ingest_stall_ns),
          static_cast<unsigned long long>(metrics->totals.exec_stall_ns),
          metrics->totals.OpsTouchedPerEdge(),
          metrics->totals.index_skipped_dispatches,
          bench::CheckpointJson(metrics->totals).c_str());
      std::fprintf(stderr,
                   "  %-9s %10.0f tuples/s  %4zu ops  %5zu results"
                   "  (%.2fx vs unshared)\n",
                   sharing ? "shared" : "unshared", tput,
                   metrics->num_operators, metrics->totals.results_emitted,
                   speedup);
    }
  }
  return failures == 0 ? 0 : 1;
}
