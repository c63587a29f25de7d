// Figure 10b: sensitivity of the SGA query processor to the slide
// interval beta on the SO stream — 3h, 6h, 12h, 1d, 2d, 4d with
// |W| = 30 days (§7.3).
//
// Expected shape (paper): throughput is *stable* across slides — SGA
// operators are tuple-at-a-time and do not batch — while the per-slide
// tail latency grows with the slide interval (each slide simply contains
// more arrivals). Contrast with Figure 11 (DD improves with batching).

#include "bench_common.h"

int main() {
  using namespace sgq;
  std::printf("=== Figure 10b — SO, slide sweep (|W| = 30d) ===\n");
  const std::pair<const char*, Timestamp> slides[] = {
      {"3h", 3},  {"6h", 6},   {"12h", 12},
      {"1d", 24}, {"2d", 48},  {"4d", 96}};
  for (const BenchQuery& bq : SoQuerySet()) {
    PrintMetricsHeader("\n-- " + bq.name + " --");
    for (const auto& [label, slide] : slides) {
      Vocabulary vocab;
      auto stream = bench::SoStream(&vocab);
      bench::CheckOk(stream.status(), "stream");
      auto query =
          MakeQuery(bq.text, WindowSpec(30 * kDay, slide), &vocab);
      bench::CheckOk(query.status(), bq.name.c_str());
      auto run = Run(RunSource::Decoded(*stream), {*query}, &vocab, {},
                     bq.name + "/slide=" + label);
      bench::CheckOk(run.status(), "run");
      PrintMetricsRow(run->totals);
    }
  }
  return 0;
}
