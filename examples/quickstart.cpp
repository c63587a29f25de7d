// Quickstart: register a persistent streaming graph query, push edges,
// receive incremental results.
//
// The query is Q6-shaped (the paper's "recent likers", LDBC IC7): pairs
// (x, y) such that x is connected to y by a path of `follows` edges and x
// liked a message y posted — all within a sliding window.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "sgq/sgq.h"

int main() {
  using namespace sgq;

  Vocabulary vocab;

  // 1. A persistent query in Datalog form: the Answer rule defines the
  //    output streaming graph. `follows+` is a transitive closure.
  auto query = MakeQuery(
      "Answer(x,y) <- follows+(x,y), likes(x,m), posts(y,m)",
      /*window=*/WindowSpec(/*size=*/24, /*slide=*/1), &vocab);
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }

  // 2. Register it on an engine, which compiles the canonical SGA plan
  //    into incremental operators. An engine hosts any number of standing
  //    queries; each gets a QueryId that names its results.
  Engine engine;
  auto q = engine.AddQuery(*query, vocab);
  const Status compiled = q.ok() ? engine.Finalize() : q.status();
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n", compiled.ToString().c_str());
    return 1;
  }
  std::printf("physical plan:\n%s\n", engine.Explain().c_str());

  // 3. Push the stream (the paper's Figure 2). Results appear as soon as
  //    the last edge of a match arrives.
  auto stream = ParseStreamCsv(
      "u,follows,v,7\n"
      "v,posts,b,10\n"
      "y,follows,u,13\n"
      "v,posts,c,17\n"
      "u,posts,a,22\n"
      "y,likes,a,28\n"
      "u,likes,b,29\n"
      "u,likes,c,30\n",
      &vocab);
  if (!stream.ok()) {
    std::fprintf(stderr, "stream error: %s\n",
                 stream.status().ToString().c_str());
    return 1;
  }

  for (const Sge& sge : *stream) {
    engine.Push(sge);
    for (const Sgt& result : engine.TakeResults(*q)) {
      std::printf("t=%2lld  new result: %s\n",
                  static_cast<long long>(sge.t),
                  result.ToString(vocab).c_str());
    }
  }

  std::printf("\nprocessed %zu edges, emitted %zu results\n",
              engine.edges_processed(), engine.results_emitted(*q));
  return 0;
}
