// Real-time cycle detection on a transaction stream — the GraphS use case
// the paper cites ([60]): flag money flows that return to their origin
// within a sliding window (a common fraud signal).
//
// Two persistent queries run side by side on one engine:
//   1. a fixed-length cycle (a transfer triangle) via PATTERN, and
//   2. arbitrary-length cycles via PATH (transfer+ from x back to x),
//      demonstrating SGA's unified handling of both (R1 & R2).
//
// Build & run:  ./build/examples/cycle_detection

#include <cstdio>
#include <random>

#include "sgq/sgq.h"

int main() {
  using namespace sgq;

  Vocabulary vocab;

  // Query 1: transfer triangles x -> y -> z -> x within one hour.
  auto triangle = MakeQuery(
      "Answer(x,x2) <- transfer(x,y), transfer(y,z), transfer(z,x2)",
      WindowSpec(60, 1), &vocab);
  if (!triangle.ok()) return 1;
  // Keep only closed triangles: src == trg.
  auto triangle_plan = TranslateToCanonicalPlan(*triangle, vocab);
  if (!triangle_plan.ok()) return 1;
  FilterPredicate closed;
  closed.kind = FilterPredicate::Kind::kSrcEqualsTrg;
  LogicalPlan filtered =
      MakeFilter({closed}, std::move(*triangle_plan));

  // Both queries run on one engine; each QueryId names its results.
  Engine engine;
  auto triangle_q = engine.AddPlan(*filtered, vocab);
  if (!triangle_q.ok()) {
    std::fprintf(stderr, "%s\n", triangle_q.status().ToString().c_str());
    return 1;
  }

  // Query 2: arbitrary-length cycles via transitive closure + self filter.
  auto cycles = MakeQuery("Answer(x,y) <- transfer+(x,y)",
                          WindowSpec(60, 1), &vocab);
  if (!cycles.ok()) return 1;
  auto cycles_plan = TranslateToCanonicalPlan(*cycles, vocab);
  if (!cycles_plan.ok()) return 1;
  LogicalPlan cycles_filtered =
      MakeFilter({closed}, std::move(*cycles_plan));
  auto cycles_q = engine.AddPlan(*cycles_filtered, vocab);
  if (!cycles_q.ok() || !engine.Finalize().ok()) return 1;

  // Synthetic account-to-account transfer stream with a few planted rings.
  std::mt19937_64 rng(2024);
  InputStream stream;
  const int kAccounts = 40;
  auto account = [&](int i) {
    return *vocab.InternVertex("acct" + std::to_string(i));
  };
  LabelId transfer = *vocab.InternInputLabel("transfer");
  Timestamp t = 0;
  for (int i = 0; i < 300; ++i) {
    t += rng() % 2;
    if (i % 60 == 30) {
      // Plant a laundering ring of length 4.
      int base = static_cast<int>(rng() % (kAccounts - 4));
      for (int k = 0; k < 4; ++k) {
        stream.emplace_back(account(base + k),
                            account(base + (k + 1) % 4), transfer, t);
      }
      continue;
    }
    stream.emplace_back(account(static_cast<int>(rng() % kAccounts)),
                        account(static_cast<int>(rng() % kAccounts)),
                        transfer, t);
  }

  std::size_t triangles = 0, rings = 0;
  for (const Sge& sge : stream) {
    engine.Push(sge);
    for (const Sgt& r : engine.TakeResults(*triangle_q)) {
      (void)r;
      ++triangles;
    }
    for (const Sgt& r : engine.TakeResults(*cycles_q)) {
      ++rings;
      if (rings <= 5) {
        std::printf("cycle alert: %s returns to itself via %zu hops %s\n",
                    vocab.VertexName(r.src).c_str(), r.payload.size(),
                    r.validity.ToString().c_str());
      }
    }
  }
  std::printf(
      "\n%zu triangle alerts, %zu arbitrary-length cycle alerts over %zu "
      "transfers\n",
      triangles, rings, stream.size());
  return 0;
}
