// Figure 10a: sensitivity of the SGA query processor to the window size
// T on the SO stream — 10, 20, 30, 40, 50 days with slide = 1 day (§7.3).
//
// Expected shape (paper): throughput decreases and tail latency increases
// monotonically with the window size (more live state per slide).

#include "bench_common.h"

int main() {
  using namespace sgq;
  std::printf("=== Figure 10a — SO, window-size sweep (slide = 1d) ===\n");
  for (const BenchQuery& bq : SoQuerySet()) {
    PrintMetricsHeader("\n-- " + bq.name + " --");
    for (Timestamp days : {10, 20, 30, 40, 50}) {
      Vocabulary vocab;
      auto stream = bench::SoStream(&vocab);
      bench::CheckOk(stream.status(), "stream");
      auto query =
          MakeQuery(bq.text, WindowSpec(days * kDay, kDay), &vocab);
      bench::CheckOk(query.status(), bq.name.c_str());
      auto run = Run(RunSource::Decoded(*stream), {*query}, &vocab, {},
                     bq.name + "/W=" + std::to_string(days) + "d");
      bench::CheckOk(run.status(), "run");
      PrintMetricsRow(run->totals);
    }
  }
  return 0;
}
