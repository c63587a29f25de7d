// Runtime micro-batching: throughput of the SGA query processor as a
// function of the executor's micro-batch size (DESIGN.md §2.2).
//
// Every batch size propagates tuples in topological waves, batch = 1
// running one wave per edge; larger batches amortize per-edge ingest
// overhead (clock reads, source routing, per-wave scheduling) across the
// batch. Expected shape: throughput grows with the batch size and
// saturates once the fixed per-edge costs are amortized; result sets are
// equivalent at every batch size.

#include "bench_common.h"

int main() {
  using namespace sgq;
  std::printf("=== Runtime micro-batch sweep ===\n");

  struct Workload {
    const char* name;
    const char* query;
  };
  const Workload workloads[] = {
      {"pattern-2atom", "Answer(x,z) <- knows(x,y), likes(y,z)"},
      {"path-closure", "Answer(x,y) <- knows+(x,y)"},
      {"mixed", "Answer(x,z) <- knows+(x,y), likes(y,z)"},
  };

  for (const Workload& w : workloads) {
    PrintMetricsHeader(std::string("\n-- ") + w.name + " --");
    std::size_t baseline_results = 0;
    for (std::size_t batch : {std::size_t{1}, std::size_t{64},
                              std::size_t{1024}}) {
      Vocabulary vocab;
      auto stream = bench::SnbStream(&vocab);
      bench::CheckOk(stream.status(), "stream");
      auto query = MakeQuery(w.query, bench::PaperWindow(), &vocab);
      bench::CheckOk(query.status(), w.name);
      RunOptions options;
      options.engine.batch_size = batch;
      auto run = Run(RunSource::Decoded(*stream), {*query}, &vocab, options,
                     std::string(w.name) + "/batch=" + std::to_string(batch));
      bench::CheckOk(run.status(), "run");
      const RunMetrics& metrics = run->totals;
      PrintMetricsRow(metrics);
      if (batch == 1) {
        baseline_results = metrics.results_emitted;
      } else if (metrics.results_emitted == 0 && baseline_results != 0) {
        std::fprintf(stderr, "batch=%zu produced no results (baseline %zu)\n",
                     batch, baseline_results);
        return 1;
      }
    }
  }
  return 0;
}
