// Execution harness for the §7.4 plan-space micro-benchmarks
// (Figures 12, 13, 14). The plans themselves live in the library
// (workload/plan_gallery.h) so tests can verify their equivalence.

#ifndef SGQ_BENCH_BENCH_PLANS_H_
#define SGQ_BENCH_BENCH_PLANS_H_

#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "workload/plan_gallery.h"

namespace sgq {
namespace bench {

using sgq::NamedPlan;

/// \brief Runs every named plan on both datasets and prints the rows.
inline void RunPlanBench(
    const char* figure,
    std::vector<NamedPlan> (*make_so)(Vocabulary*, WindowSpec),
    std::vector<NamedPlan> (*make_snb)(Vocabulary*, WindowSpec)) {
  struct Dataset {
    const char* name;
    Result<InputStream> (*stream)(Vocabulary*);
    std::vector<NamedPlan> (*plans)(Vocabulary*, WindowSpec);
  };
  const Dataset datasets[] = {{"SO", &SoStream, make_so},
                              {"SNB", &SnbStream, make_snb}};
  for (const Dataset& ds : datasets) {
    std::printf("\n=== %s — %s ===\n", figure, ds.name);
    PrintMetricsHeader("");
    Vocabulary vocab;
    auto stream = ds.stream(&vocab);
    CheckOk(stream.status(), "stream");
    for (const auto& [name, plan] : ds.plans(&vocab, PaperWindow())) {
      auto run = Run(RunSource::Decoded(*stream), {*plan}, &vocab, {}, name);
      CheckOk(run.status(), name.c_str());
      PrintMetricsRow(run->totals);
    }
  }
}

}  // namespace bench
}  // namespace sgq

#endif  // SGQ_BENCH_BENCH_PLANS_H_
