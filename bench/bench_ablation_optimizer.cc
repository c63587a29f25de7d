// Ablation: does the plan optimizer (core/optimizer.h) pick winning plans?
//
// For each path-shaped workload query, compare
//   (a) the canonical SGQParser plan,
//   (b) the plan chosen by the heuristic cost model, and
//   (c) the plan chosen by sampling a stream prefix,
// on the SO stream. This quantifies the benefit of the §5.4/§7.4 plan
// space beyond the fixed P1/P2/P3 snapshots of Figures 12-14, and checks
// that the optimizer's choices do not regress.

#include "bench_common.h"
#include "core/optimizer.h"

int main() {
  using namespace sgq;
  std::printf(
      "=== Ablation — optimizer plan choice vs canonical (SO) ===\n");

  const char* texts[] = {
      "Answer(x,y) <- a2q(x,z), c2q*(z,y)",                    // Q2
      "Answer(x,y) <- a2q(x,z), c2q*(z,w), c2a*(w,y)",         // Q3
      "D(x,y) <- a2q(x,z1), c2q(z1,z2), c2a(z2,y)\n"
      "Answer(x,y) <- D+(x,y)",                                // Q4
  };
  const char* names[] = {"Q2", "Q3", "Q4"};

  for (int i = 0; i < 3; ++i) {
    Vocabulary vocab;
    auto stream = bench::SoStream(&vocab);
    bench::CheckOk(stream.status(), "stream");
    auto query = MakeQuery(texts[i], bench::PaperWindow(), &vocab);
    bench::CheckOk(query.status(), names[i]);
    auto canonical = TranslateToCanonicalPlan(*query, vocab);
    bench::CheckOk(canonical.status(), "translate");

    // Sample = the first 15% of the stream.
    InputStream sample(stream->begin(),
                       stream->begin() +
                           static_cast<std::ptrdiff_t>(stream->size() / 7));

    auto heuristic = OptimizeHeuristic(**canonical, &vocab, 32);
    bench::CheckOk(heuristic.status(), "heuristic optimize");
    auto sampled = OptimizeBySampling(**canonical, &vocab, sample, 12);
    bench::CheckOk(sampled.status(), "sampling optimize");

    PrintMetricsHeader(std::string("\n-- ") + names[i] + " --");
    for (const auto& [label, plan] :
         {std::pair<const char*, const LogicalOp*>{"canonical",
                                                   canonical->get()},
          {"heuristic-opt", heuristic->get()},
          {"sampling-opt", sampled->get()}}) {
      auto run = Run(RunSource::Decoded(*stream), {*plan}, &vocab, {}, label);
      bench::CheckOk(run.status(), label);
      PrintMetricsRow(run->totals);
    }
  }
  return 0;
}
