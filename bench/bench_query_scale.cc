// Standing-query-population scaling (runtime/query_index.h, DESIGN.md
// §3.1): per-edge dispatch cost as a function of the number K of
// registered queries under the label-discrimination query index.
//
// The workload is K single-label queries over a Zipf-label stream
// (workload/generators.h GenerateZipfLabelStream): each arriving edge
// matches exactly one query's admission label, so the *useful* work per
// edge is O(1) in K. A dispatcher that broadcast time-advance and purge
// phases to all O(K) operators would pay O(K) per edge on top; the index
// touches only the operators its postings and touched-cone say can
// react. ops_touched_per_edge makes that a first-class,
// near-deterministic metric.
//
// Output: one JSON object per line on stdout —
//   {"bench":"query_scale","queries":K,"workers":N,"batch":B,
//    "labels":L,"edges":E,"elapsed_seconds":S,
//    "tuples_per_sec":T,"results_total":R,"ops":O,"state_bytes":M,
//    "ops_touched_per_edge":F,"index_skipped_dispatches":D,
//    "register_us_per_query":U}
// ("edges" is edges *admitted by some query*: at K=16 over 1024 labels
// the cold-label tail matches nothing, so edges < the stream length.)
// register_us_per_query is registration cost: engine construction, K
// MakeQuery + AddQuery calls on a fresh vocabulary, and Finalize, divided
// by K — the median of kRegisterReps repetitions (the setup bench_sgq's
// zipf-subscribe times, at K = 1024).
// A human summary goes to stderr. Failure conditions:
//  - ops_touched_per_edge must stay O(matching operators): the K=1024
//    fanout may not exceed 4x the K=16 fanout (+2 absolute slack for
//    boundary-phase amortization over the shared stream);
//  - throughput at K=1024 must stay within 3x of K=16 (the population is
//    64x larger; near-flat per-edge cost is the point of the index).

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

/// Median registration cost per query, in microseconds, of `bodies` on a
/// fresh engine and vocabulary (see the file comment).
double RegisterUsPerQuery(const std::vector<std::string>& bodies,
                          const sgq::EngineOptions& options) {
  constexpr int kRegisterReps = 7;
  std::vector<double> us;
  for (int rep = 0; rep < kRegisterReps; ++rep) {
    sgq::Vocabulary vocab;
    sgq::Stopwatch timer;
    {
      sgq::Engine engine(options);
      for (const std::string& body : bodies) {
        auto query = sgq::MakeQuery(body, sgq::bench::PaperWindow(), &vocab);
        sgq::bench::CheckOk(query.status(), body.c_str());
        sgq::bench::CheckOk(engine.AddQuery(*query, vocab).status(),
                            body.c_str());
      }
      sgq::bench::CheckOk(engine.Finalize(), "finalize");
      us.push_back(timer.ElapsedSeconds() * 1e6 /
                   static_cast<double>(bodies.size()));
    }  // teardown untimed
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

}  // namespace

int main() {
  using namespace sgq;

  // One stream shared by every configuration: 1024 Zipf-distributed
  // labels so the K=1024 population has a label per query, dense hours
  // (50 edges/hour) so per-distinct-timestamp broadcast cost is
  // amortized the way a real feed would amortize it.
  Vocabulary vocab;
  ZipfStreamOptions zipf;
  zipf.num_labels = 1024;
  zipf.num_vertices = bench::Scaled(2000);
  zipf.num_edges = bench::Scaled(60000);
  zipf.skew = 1.0;
  zipf.edges_per_hour = 50.0;
  auto stream = GenerateZipfLabelStream(zipf, &vocab);
  bench::CheckOk(stream.status(), "stream");

  const std::size_t kBatch = 256;

  int failures = 0;
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    // Throughput / fanout of the K=16 run, the scaling yardstick.
    double tput_16 = 0;
    double fanout_16 = 0;
    for (std::size_t num_queries : {std::size_t{16}, std::size_t{128},
                                    std::size_t{1024}}) {
      std::vector<std::string> bodies;
      std::vector<StreamingGraphQuery> queries;
      queries.reserve(num_queries);
      for (std::size_t q = 0; q < num_queries; ++q) {
        bodies.push_back("Answer(x,y) <- l" + std::to_string(q) + "(x,y)");
        auto query = MakeQuery(bodies.back(), bench::PaperWindow(), &vocab);
        bench::CheckOk(query.status(), bodies.back().c_str());
        queries.push_back(std::move(*query));
      }
      std::fprintf(stderr, "-- K=%zu workers=%zu --\n", num_queries,
                   workers);

      RunOptions options;
      options.engine.batch_size = kBatch;
      options.engine.num_workers = workers;
      const double register_us = RegisterUsPerQuery(bodies, options.engine);
      auto metrics =
          Run(RunSource::Decoded(*stream),
              std::vector<RunQuery>(queries.begin(), queries.end()), &vocab,
              options, "K=" + std::to_string(num_queries));
      bench::CheckOk(metrics.status(), "run");

      const RunMetrics& t = metrics->totals;
      const double fanout = t.OpsTouchedPerEdge();
      if (num_queries == 16) {
        tput_16 = t.Throughput();
        fanout_16 = fanout;
      } else if (num_queries == 1024) {
        if (fanout_16 > 0 && fanout > fanout_16 * 4.0 + 2.0) {
          std::fprintf(stderr,
                       "fanout grew O(K): %.2f ops/edge at K=1024 vs %.2f "
                       "at K=16 (workers=%zu)\n",
                       fanout, fanout_16, workers);
          ++failures;
        }
        if (tput_16 > 0 && t.Throughput() < tput_16 / 3.0) {
          std::fprintf(stderr,
                       "throughput collapsed with K: %.0f tuples/s at "
                       "K=1024 vs %.0f at K=16 (workers=%zu)\n",
                       t.Throughput(), tput_16, workers);
          ++failures;
        }
      }
      std::printf(
          "{\"bench\":\"query_scale\",\"queries\":%zu,\"workers\":%zu,"
          "\"cpus\":%zu,\"batch\":%zu,\"labels\":%zu,\"edges\":%zu,"
          "\"elapsed_seconds\":%.6f,\"tuples_per_sec\":%.1f,"
          "\"results_total\":%zu,\"ops\":%zu,\"state_bytes\":%zu,"
          "\"ops_touched_per_edge\":%.3f,"
          "\"index_skipped_dispatches\":%zu,"
          "\"register_us_per_query\":%.3f%s}\n",
          num_queries, workers, bench::Cpus(), kBatch, zipf.num_labels,
          t.edges_processed, t.elapsed_seconds, t.Throughput(),
          t.results_emitted, metrics->num_operators, t.state_bytes, fanout,
          t.index_skipped_dispatches, register_us,
          bench::CheckpointJson(t).c_str());
      std::fprintf(stderr,
                   "  %10.0f tuples/s  %6.2f ops/edge  %9zu skipped  "
                   "%6zu results  %.2f us/query registration\n",
                   t.Throughput(), fanout, t.index_skipped_dispatches,
                   t.results_emitted, register_us);
    }
  }
  return failures == 0 ? 0 : 1;
}
