// Table 3: the impact of the S-PATH physical operator (direct approach,
// §6.2.4) versus the Δ-tree PATH of [57] (negative-tuple approach) on the
// end-to-end performance of queries Q1-Q7; |W| = 30 days, slide = 1 day.
//
// Expected shape (paper): S-PATH improves throughput on the cyclic SO
// graph (many alternative paths -> expensive delete/re-derive for the
// negative-tuple variant), while on SNB — where replyOf paths are unique —
// the two are close.

#include "bench_common.h"

namespace sgq {
namespace {

void RunDataset(const char* dataset_name,
                Result<InputStream> (*make_stream)(Vocabulary*),
                std::vector<BenchQuery> (*make_queries)()) {
  std::printf("\n=== Table 3 — %s: S-PATH vs Δ-tree PATH ===\n",
              dataset_name);
  PrintMetricsHeader("");
  for (const BenchQuery& bq : make_queries()) {
    Vocabulary vocab;
    auto stream = make_stream(&vocab);
    bench::CheckOk(stream.status(), "stream");
    auto query = MakeQuery(bq.text, bench::PaperWindow(), &vocab);
    bench::CheckOk(query.status(), bq.name.c_str());

    RunOptions delta;
    delta.engine.path_impl = PathImpl::kDeltaPath;
    auto base = Run(RunSource::Decoded(*stream), {*query}, &vocab, delta,
                    bq.name + "/delta-tree");
    bench::CheckOk(base.status(), "delta run");

    RunOptions spath;
    spath.engine.path_impl = PathImpl::kSPath;
    auto fast = Run(RunSource::Decoded(*stream), {*query}, &vocab, spath,
                    bq.name + "/S-PATH");
    bench::CheckOk(fast.status(), "spath run");

    PrintMetricsRow(base->totals);
    PrintMetricsRow(fast->totals);
    const double base_tput = base->totals.Throughput();
    const double tput_gain =
        base_tput > 0 ? (fast->totals.Throughput() / base_tput - 1.0) * 100.0
                      : 0.0;
    std::printf("%-24s %+13.1f%%\n",
                (bq.name + "/improvement").c_str(), tput_gain);
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
