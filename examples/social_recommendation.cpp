// Example 1 of the paper, end to end: the real-time notification service.
//
// A user u must be notified of new content m when m's author is connected
// to u through a path of `recentLiker` relationships. The recentLiker
// relationship is itself a derived pattern (a triangle of likes/posts plus
// a follows-path). The query is written in the paper's user-level language
// (G-CORE with a WINDOW clause, Fig. 6) and the answers carry full
// materialized recentLiker paths — paths are first-class citizens (R3).
//
// Build & run:  ./build/examples/social_recommendation

#include <cstdio>

#include "sgq/sgq.h"

int main() {
  using namespace sgq;

  Vocabulary vocab;

  // The Figure 6 query: PATH defines recentLiker (RL); MATCH navigates
  // RL-paths and joins the destination's posts; CONSTRUCT emits notify
  // edges. Window: 24 hours.
  auto query = ParseGCore(
      "PATH RL = (u1)-/<:follows+>/->(u2), "
      "(u1)-[:likes]->(m1)<-[:posts]-(u2)\n"
      "CONSTRUCT (u)-[:notify]->(m)\n"
      "MATCH (u)-/<~RL+>/->(v), (v)-[:posts]->(m)\n"
      "ON social_stream WINDOW (24 HOURS)",
      &vocab);
  if (!query.ok()) {
    std::fprintf(stderr, "G-CORE error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  std::printf("compiled RQ:\n%s\n", query->rq.ToString(vocab).c_str());

  Engine engine;
  auto q = engine.AddQuery(*query, vocab);
  const Status compiled = q.ok() ? engine.Finalize() : q.status();
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n", compiled.ToString().c_str());
    return 1;
  }

  // A small synthetic burst of social interactions: users post, follow and
  // like; the engine pushes notifications incrementally.
  auto stream = ParseStreamCsv(
      "alice,follows,bob,1\n"
      "bob,follows,alice,2\n"
      "bob,posts,m1,3\n"
      "alice,likes,m1,4\n"      // alice recentLikes bob
      "carol,follows,alice,5\n"
      "alice,follows,carol,5\n"
      "alice,posts,m2,6\n"
      "carol,likes,m2,7\n"      // carol recentLikes alice
      "bob,posts,m3,9\n",       // -> notify carol (via carol->alice->bob)
      &vocab);
  if (!stream.ok()) {
    std::fprintf(stderr, "stream error: %s\n",
                 stream.status().ToString().c_str());
    return 1;
  }

  for (const Sge& sge : *stream) {
    engine.Push(sge);
    for (const Sgt& r : engine.TakeResults(*q)) {
      std::printf("notify %s about %s   (valid %s)\n",
                  vocab.VertexName(r.src).c_str(),
                  vocab.VertexName(r.trg).c_str(),
                  r.validity.ToString().c_str());
    }
  }
  return 0;
}
