// Example 4 of the paper: combining two streams with different windows.
//
// A social stream (follows / likes / posts, 24-hour window) is joined with
// a transaction stream (purchase, 30-day window) to recommend products:
// if u2 is an acquaintance of u1 — they are friends OR u1 liked u2's post —
// and u2 purchased p, then recommend p to u1. The two OPTIONAL blocks of
// the G-CORE query compile to a UNION of rules, and the two ON..WINDOW
// clauses produce per-label windows (Fig. 7).
//
// Build & run:  ./build/examples/product_recommendation

#include <cstdio>

#include "sgq/sgq.h"

int main() {
  using namespace sgq;

  Vocabulary vocab;
  auto query = ParseGCore(
      "CONSTRUCT (u1)-[:recommendation]->(p)\n"
      "MATCH OPTIONAL (u1)-[:follows]->(u2) "
      "OPTIONAL (u1)-[:likes]->(m)<-[:posts]-(u2)\n"
      "ON social_stream WINDOW (24 HOURS)\n"
      "MATCH (c)-[:purchase]->(p)\n"
      "ON tx_stream WINDOW (30 DAYS) SLIDE (1 DAYS)\n"
      "WHERE (u2) = (c)",
      &vocab);
  if (!query.ok()) {
    std::fprintf(stderr, "G-CORE error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled RQ (two rules = OPTIONAL union):\n%s\n",
              query->rq.ToString(vocab).c_str());

  Engine engine;
  auto q = engine.AddQuery(*query, vocab);
  const Status compiled = q.ok() ? engine.Finalize() : q.status();
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n", compiled.ToString().c_str());
    return 1;
  }

  // One merged, timestamp-ordered stream carrying both sources (labels
  // route the tuples to their windows).
  auto stream = ParseStreamCsv(
      "dana,purchase,vinyl,1\n"
      "alice,follows,bob,10\n"
      "bob,purchase,headphones,12\n"   // friend purchase -> recommend
      "carol,posts,m9,14\n"
      "erin,likes,m9,15\n"             // erin liked carol's post
      "carol,purchase,keyboard,20\n"   // -> recommend keyboard to erin
      "bob,purchase,amplifier,30\n"    // another one for alice
      "frank,follows,alice,700\n"      // 700h later: old purchases expired?
      "alice,purchase,records,701\n",
      &vocab);
  if (!stream.ok()) return 1;

  for (const Sge& sge : *stream) {
    engine.Push(sge);
    for (const Sgt& r : engine.TakeResults(*q)) {
      std::printf("t=%3lld  recommend %-12s to %-8s (valid %s)\n",
                  static_cast<long long>(sge.t),
                  vocab.VertexName(r.trg).c_str(),
                  vocab.VertexName(r.src).c_str(),
                  r.validity.ToString().c_str());
    }
  }

  std::printf("\n%zu recommendations from %zu events\n",
              engine.results_emitted(*q), engine.edges_pushed());
  return 0;
}
