// Table 2: throughput (edges/s) and p99 tail latency of one window slide
// for the SGA query processor vs the DD-style baseline, queries Q1-Q7 on
// the SO and SNB streams, |W| = 30 days, slide = 1 day (§7.2).
//
// Expected shape (paper): SGA wins on the dense cyclic SO graph (its PATH
// operator keeps compact per-pair state and expires for free); DD is
// competitive — and ahead on the linear path queries Q1-Q4 — on SNB, whose
// tree-shaped replyOf makes PATH-specific machinery unnecessary.

#include "bench_common.h"

namespace sgq {
namespace {

void RunDataset(const char* dataset_name,
                Result<InputStream> (*make_stream)(Vocabulary*),
                std::vector<BenchQuery> (*make_queries)()) {
  std::printf("\n=== Table 2 — %s, |W|=30d, slide=1d ===\n", dataset_name);
  PrintMetricsHeader("");
  for (const BenchQuery& bq : make_queries()) {
    // Fresh vocabulary/stream per query keeps label ids independent.
    Vocabulary vocab;
    auto stream = make_stream(&vocab);
    bench::CheckOk(stream.status(), "stream");
    auto query = MakeQuery(bq.text, bench::PaperWindow(), &vocab);
    bench::CheckOk(query.status(), bq.name.c_str());

    auto sga = Run(RunSource::Decoded(*stream), {*query}, &vocab, {},
                   bq.name + "/SGA");
    bench::CheckOk(sga.status(), "SGA run");
    PrintMetricsRow(sga->totals);

    auto dd = RunDd(*stream, *query, vocab, bq.name + "/DD");
    bench::CheckOk(dd.status(), "DD run");
    PrintMetricsRow(*dd);
  }
}

}  // namespace
}  // namespace sgq

int main() {
  sgq::RunDataset("StackOverflow-like (SO)", sgq::bench::SoStream,
                  sgq::SoQuerySet);
  sgq::RunDataset("LDBC-SNB-like (SNB)", sgq::bench::SnbStream,
                  sgq::SnbQuerySet);
  return 0;
}
