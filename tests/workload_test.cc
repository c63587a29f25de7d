// Tests for the workload module: generator determinism, the structural
// properties the evaluation relies on (SO cyclicity/skew, SNB's
// forest-shaped replyOf), the Table 1 query set, and the harness.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/generators.h"
#include "workload/harness.h"
#include "workload/queries.h"

namespace sgq {
namespace {

TEST(SoGeneratorTest, DeterministicForSeed) {
  Vocabulary v1, v2;
  SoOptions opt;
  opt.num_edges = 500;
  auto s1 = GenerateSoStream(opt, &v1);
  auto s2 = GenerateSoStream(opt, &v2);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s1->size(), s2->size());
  for (std::size_t i = 0; i < s1->size(); ++i) {
    EXPECT_EQ((*s1)[i].src, (*s2)[i].src);
    EXPECT_EQ((*s1)[i].t, (*s2)[i].t);
  }
}

TEST(SoGeneratorTest, TimestampsOrderedAndLabelsValid) {
  Vocabulary vocab;
  SoOptions opt;
  opt.num_edges = 2000;
  auto stream = GenerateSoStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->size(), opt.num_edges);
  Timestamp last = 0;
  std::set<LabelId> labels;
  for (const Sge& e : *stream) {
    EXPECT_GE(e.t, last);
    last = e.t;
    labels.insert(e.label);
    EXPECT_NE(e.src, e.trg);  // the generator avoids trivial self-loops
  }
  EXPECT_EQ(labels.size(), 3u);
}

TEST(SoGeneratorTest, PreferentialAttachmentSkewsDegrees) {
  Vocabulary vocab;
  SoOptions opt;
  opt.num_edges = 5000;
  opt.num_vertices = 500;
  auto stream = GenerateSoStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  std::map<VertexId, int> degree;
  for (const Sge& e : *stream) {
    ++degree[e.src];
    ++degree[e.trg];
  }
  int max_degree = 0;
  long total = 0;
  for (const auto& [_, d] : degree) {
    max_degree = std::max(max_degree, d);
    total += d;
  }
  const double mean = static_cast<double>(total) /
                      static_cast<double>(degree.size());
  // Heavy tail: the hottest vertex far exceeds the mean degree.
  EXPECT_GT(max_degree, 5 * mean);
}

TEST(SnbGeneratorTest, ReplyOfIsForestShaped) {
  Vocabulary vocab;
  SnbOptions opt;
  opt.num_events = 4000;
  auto stream = GenerateSnbStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  const LabelId reply_of = *vocab.FindLabel("replyOf");
  std::set<VertexId> reply_sources;
  for (const Sge& e : *stream) {
    if (e.label != reply_of) continue;
    // Forest shape: each message replies at most once (unique out-edge).
    EXPECT_TRUE(reply_sources.insert(e.src).second)
        << "message with two replyOf edges";
  }
  EXPECT_GT(reply_sources.size(), 100u);
}

TEST(SnbGeneratorTest, HasCreatorPrecedesLikes) {
  Vocabulary vocab;
  SnbOptions opt;
  opt.num_events = 2000;
  auto stream = GenerateSnbStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  const LabelId likes = *vocab.FindLabel("likes");
  const LabelId has_creator = *vocab.FindLabel("hasCreator");
  std::set<VertexId> created;
  for (const Sge& e : *stream) {
    if (e.label == has_creator) created.insert(e.src);
    if (e.label == likes) {
      EXPECT_TRUE(created.count(e.trg) > 0)
          << "like of a message that does not exist yet";
    }
  }
}

TEST(RandomStreamTest, DeletionsReferEarlierInsertions) {
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.deletion_probability = 0.3;
  opt.num_edges = 200;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  std::set<std::tuple<VertexId, VertexId, LabelId>> seen;
  bool any_deletion = false;
  for (const Sge& e : *stream) {
    if (e.is_deletion) {
      any_deletion = true;
      EXPECT_TRUE(seen.count({e.src, e.trg, e.label}) > 0);
    } else {
      seen.insert({e.src, e.trg, e.label});
    }
  }
  EXPECT_TRUE(any_deletion);
}

TEST(QuerySetTest, AllTable1QueriesParseAndTranslate) {
  for (auto [name, queries] :
       std::map<std::string, std::vector<BenchQuery>>{
           {"so", SoQuerySet()}, {"snb", SnbQuerySet()}}) {
    ASSERT_EQ(queries.size(), 7u) << name;
    Vocabulary vocab;
    // Pre-intern the dataset labels as the generators would.
    if (name == "so") {
      ASSERT_TRUE(vocab.InternInputLabel("a2q").ok());
      ASSERT_TRUE(vocab.InternInputLabel("c2q").ok());
      ASSERT_TRUE(vocab.InternInputLabel("c2a").ok());
    } else {
      ASSERT_TRUE(vocab.InternInputLabel("knows").ok());
      ASSERT_TRUE(vocab.InternInputLabel("likes").ok());
      ASSERT_TRUE(vocab.InternInputLabel("hasCreator").ok());
      ASSERT_TRUE(vocab.InternInputLabel("replyOf").ok());
    }
    for (const BenchQuery& q : queries) {
      auto query = MakeQuery(q.text, WindowSpec(30 * kDay, kDay), &vocab);
      ASSERT_TRUE(query.ok())
          << name << "/" << q.name << ": " << query.status().ToString();
      EXPECT_TRUE(query->rq.Validate(vocab).ok()) << name << "/" << q.name;
    }
  }
}

TEST(HarnessTest, RunsSgaAndDdOnSmallStream) {
  Vocabulary vocab;
  SoOptions opt;
  opt.num_edges = 800;
  opt.num_vertices = 120;
  auto stream = GenerateSoStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  auto query = MakeQuery("Answer(x,y) <- a2q(x,z), c2q(z,y)",
                         WindowSpec(2 * kDay, 12), &vocab);
  ASSERT_TRUE(query.ok());

  auto sga =
      sgq::Run(RunSource::Decoded(*stream), {*query}, &vocab, {}, "sga");
  ASSERT_TRUE(sga.ok()) << sga.status().ToString();
  EXPECT_GT(sga->totals.edges_processed, 0u);
  EXPECT_GT(sga->totals.Throughput(), 0.0);
  EXPECT_EQ(sga->per_query_results.size(), 1u);

  auto dd = RunDd(*stream, *query, vocab, "dd");
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  EXPECT_GT(dd->edges_processed, 0u);
}

}  // namespace
}  // namespace sgq
