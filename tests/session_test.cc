// Subscription-session protocol tests (server/session.h): the line
// protocol drives live attach/detach on a running engine, results are
// tagged per subscription, errors are inline and non-fatal, and a
// session-driven subscription's output matches the engine API run the
// protocol claims to perform. Sessions read their stream as the CLI does:
// a ChunkWalkCursor over a chunk source, so INGEST holds one chunk at a
// time and a malformed element ends the session where the walk reaches
// it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "model/file_chunk_source.h"
#include "model/stream_io.h"
#include "server/session.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

InputStream SessionStream(Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = 2024;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 120;
  opt.max_gap = 2;
  opt.deletion_probability = 0.2;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

/// Wraps the cursor a session reads. It gets the server, so the wrapper can
/// look at the hosted engine between pulls.
using CursorWrap = std::function<std::unique_ptr<StreamCursor>(
    StreamCursor*, SessionServer*)>;

/// Runs `script` through a fresh session (window 12/3, engine `engine`)
/// over `cursor`, or over `wrap`'s wrapper of it; returns stdout and sets
/// `*status` (when given) to what Run returned.
std::string RunSession(const std::string& script, StreamCursor* cursor,
                       Vocabulary* vocab, Status* status = nullptr,
                       const EngineOptions& engine = {},
                       const CursorWrap& wrap = nullptr) {
  SessionOptions options;
  options.engine = engine;
  options.window = WindowSpec(12, 3);
  SessionServer server(options, vocab);
  EXPECT_TRUE(server.Init().ok());
  std::unique_ptr<StreamCursor> wrapped;
  if (wrap) wrapped = wrap(cursor, &server);
  std::istringstream in(script);
  std::ostringstream out;
  const Status st = server.Run(wrapped ? wrapped.get() : cursor, in, out);
  if (status != nullptr) {
    *status = st;
  } else {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return out.str();
}

/// Runs `script` over `csv` split into several chunks, walked in order.
std::string RunSession(const std::string& script, const std::string& csv,
                       Vocabulary* vocab, Status* status = nullptr,
                       const EngineOptions& engine = {},
                       const CursorWrap& wrap = nullptr) {
  auto chunks = MakeChunkedStream(csv, StreamFormat::kCsv, vocab,
                                  /*allow_disorder=*/false,
                                  /*min_chunks=*/4);
  EXPECT_TRUE(chunks.ok()) << chunks.status().ToString();
  if (!chunks.ok()) return "";
  ChunkWalkCursor cursor(**chunks, /*allow_disorder=*/false);
  return RunSession(script, &cursor, vocab, status, engine, wrap);
}

/// Runs `script` over the generated `stream`, rendered to CSV.
std::string RunSession(const std::string& script, const InputStream& stream,
                       Vocabulary* vocab) {
  return RunSession(script, FormatStreamCsv(stream, *vocab), vocab);
}

/// The `s<id>\t`-tagged result lines for one subscription, tags stripped.
std::vector<std::string> TaggedLines(const std::string& output, int id) {
  const std::string tag = "s" + std::to_string(id) + "\t";
  std::vector<std::string> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(tag, 0) == 0) lines.push_back(line.substr(tag.size()));
  }
  return lines;
}

/// The non-result protocol lines (acks, errors) in order.
std::vector<std::string> ProtocolLines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("s", 0) != 0 || line.find('\t') == std::string::npos) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(SessionTest, SubscribeIngestMatchesStaticRun) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::string output = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);

  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(stream);

  const std::vector<std::string> session_lines = TaggedLines(output, 0);
  const std::vector<Sgt>& reference = engine.results(0);
  ASSERT_EQ(session_lines.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(session_lines[i], reference[i].ToString(vocab))
        << "result " << i;
  }
}

TEST(SessionTest, AcksAndIdsFollowTheProtocol) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::string output = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "SUBSCRIBE Answer(x,z) <- c(x,y), c(y,z)\n"
      "INGEST 40\n"
      "UNSUBSCRIBE 0\n"
      "SUBSCRIBE Answer(x,y) <- b(x,y)\n"
      "INGEST ALL\n"
      "RESULTS 2\n"
      "QUIT\n",
      stream, &vocab);

  const std::vector<std::string> acks = ProtocolLines(output);
  ASSERT_EQ(acks.size(), 8u) << output;
  EXPECT_EQ(acks[0], "SUBSCRIBED 0");
  EXPECT_EQ(acks[1], "SUBSCRIBED 1");
  EXPECT_EQ(acks[2], "INGESTED 40");
  EXPECT_EQ(acks[3], "UNSUBSCRIBED 0");
  // The freed id is NOT reused: the third subscription gets id 2.
  EXPECT_EQ(acks[4], "SUBSCRIBED 2");
  EXPECT_EQ(acks[5], "INGESTED " + std::to_string(stream.size() - 40));
  EXPECT_EQ(acks[6], "OK 2");
  EXPECT_EQ(acks[7], "BYE");
}

TEST(SessionTest, ErrorsAreInlineAndNonFatal) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::string output = RunSession(
      "SUBSCRIBE this is not datalog\n"
      "UNSUBSCRIBE 7\n"
      "RESULTS nope\n"
      "FROBNICATE\n"
      "SUBSCRIBE Answer(x,y) <- a(x,y)\n"
      "UNSUBSCRIBE 0\n"
      "UNSUBSCRIBE 0\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);

  const std::vector<std::string> lines = ProtocolLines(output);
  ASSERT_EQ(lines.size(), 9u) << output;
  EXPECT_EQ(lines[0].rfind("ERR", 0), 0u);  // unparsable query
  EXPECT_EQ(lines[1].rfind("ERR", 0), 0u);  // unknown id
  EXPECT_EQ(lines[2].rfind("ERR", 0), 0u);  // non-numeric id
  EXPECT_EQ(lines[3].rfind("ERR", 0), 0u);  // unknown command
  EXPECT_EQ(lines[4], "SUBSCRIBED 0");
  EXPECT_EQ(lines[5], "UNSUBSCRIBED 0");
  // Double unsubscribe is refused but the session keeps serving.
  EXPECT_EQ(lines[6].rfind("ERR", 0), 0u);
  EXPECT_EQ(lines[7], "INGESTED " + std::to_string(stream.size()));
  EXPECT_EQ(lines[8], "BYE");
}

TEST(SessionTest, UnsubscribeDrainsBufferedResultsFirst) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  // RESULTS is never called: everything the subscription produced must
  // surface at UNSUBSCRIBE time, before the ack, in one batch.
  const std::string with_drain = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST ALL\n"
      "UNSUBSCRIBE 0\n"
      "QUIT\n",
      stream, &vocab);
  const std::string full = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);
  EXPECT_EQ(TaggedLines(with_drain, 0), TaggedLines(full, 0));
}

TEST(SessionTest, MidStreamSubscriptionSeesOnlyTheSuffix) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::size_t k = 50;
  const std::string output = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST " + std::to_string(k) + "\n"
      "SUBSCRIBE Answer(x,y) <- c(x,y)\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);

  // Static reference over the suffix only.
  const InputStream suffix(stream.begin() + static_cast<std::ptrdiff_t>(k),
                           stream.end());
  auto query = MakeQuery("Answer(x,y) <- c(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(suffix);

  const std::vector<std::string> session_lines = TaggedLines(output, 1);
  const std::vector<Sgt>& reference = engine.results(0);
  ASSERT_EQ(session_lines.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(session_lines[i], reference[i].ToString(vocab));
  }
}

/// Wraps a session's stream cursor and checks, on every pull, that every
/// live subscription's sink is empty: the session streams each pull's
/// results before it pulls again, so no sink holds an earlier pull's.
class DrainedAtEveryPullCursor : public StreamCursor {
 public:
  DrainedAtEveryPullCursor(StreamCursor* inner, SessionServer* server,
                           std::size_t* pulls_with_results)
      : inner_(inner), server_(server),
        pulls_with_results_(pulls_with_results) {}

  std::size_t Next(Sge* out, std::size_t cap) override {
    const Engine& engine = server_->engine();
    emitted_.resize(engine.num_queries(), 0);
    for (std::size_t i = 0; i < engine.num_queries(); ++i) {
      const QueryId q = static_cast<QueryId>(i);
      if (!engine.IsLive(q)) continue;
      EXPECT_TRUE(engine.results(q).empty())
          << "subscription " << q << " still holds "
          << engine.results(q).size() << " results at pull " << pulls_;
      if (engine.results_emitted(q) > emitted_[i]) ++*pulls_with_results_;
      emitted_[i] = engine.results_emitted(q);
    }
    ++pulls_;
    return inner_->Next(out, cap);
  }
  const Status& status() const override { return inner_->status(); }

 private:
  StreamCursor* inner_;
  SessionServer* server_;
  std::size_t* pulls_with_results_;   ///< (subscription, pull) pairs
  std::vector<std::size_t> emitted_;  ///< results_emitted at the last pull
  std::size_t pulls_ = 0;
};

TEST(SessionTest, IngestStreamsResultsPerPulledChunk) {
  // 5,000 elements in four chunks are eight pulls of at most 1,024; both
  // subscriptions stay live through one INGEST ALL. Each subscription's
  // lines must equal an engine run that attaches the same queries and
  // drains once at the end, under the same engine options. At batch_size
  // 7 and 64 most pulls end inside a micro-batch, which the pull's drain
  // must leave buffered: flushing it there moves batch boundaries, and
  // with 4 workers that moves subscription 0's lines.
  Vocabulary vocab;
  RandomStreamOptions opt;
  opt.seed = 77;
  opt.num_vertices = 40;
  opt.num_labels = 3;
  opt.num_edges = 5000;
  opt.max_gap = 2;
  opt.deletion_probability = 0.1;
  auto stream = GenerateRandomStream(opt, &vocab);
  ASSERT_TRUE(stream.ok());
  const std::string csv = FormatStreamCsv(*stream, vocab);
  const std::vector<std::string> queries = {"Answer(x,y) <- a+(x,y)",
                                            "Answer(x,z) <- b(x,y), c(y,z)"};

  std::vector<EngineOptions> configs(3);
  configs[1].batch_size = 7;
  configs[2].num_workers = 4;
  configs[2].batch_size = 64;
  for (const EngineOptions& engine_options : configs) {
    SCOPED_TRACE("workers " + std::to_string(engine_options.num_workers) +
                 ", batch " + std::to_string(engine_options.batch_size));
    std::size_t pulls_with_results = 0;
    const std::string output = RunSession(
        "SUBSCRIBE " + queries[0] + "\nSUBSCRIBE " + queries[1] +
            "\nINGEST ALL\nQUIT\n",
        csv, &vocab, nullptr, engine_options,
        [&](StreamCursor* inner, SessionServer* server) {
          return std::make_unique<DrainedAtEveryPullCursor>(
              inner, server, &pulls_with_results);
        });
    const std::vector<std::string> acks = ProtocolLines(output);
    ASSERT_EQ(acks.size(), 4u) << output;
    EXPECT_EQ(acks[2], "INGESTED " + std::to_string(stream->size()));
    // The sinks were checked on at least eight (subscription, pull) pairs
    // that had new results.
    EXPECT_GE(pulls_with_results, 8u);

    // The session's engine: finalized empty, then both queries attached.
    Engine engine(engine_options);
    ASSERT_TRUE(engine.Finalize().ok());
    for (const std::string& text : queries) {
      auto query = MakeQuery(text, WindowSpec(12, 3), &vocab);
      ASSERT_TRUE(query.ok());
      ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
    }
    engine.PushAll(*stream);
    for (int id = 0; id < 2; ++id) {
      std::vector<std::string> reference;
      for (const Sgt& r : engine.TakeResults(static_cast<QueryId>(id))) {
        reference.push_back(r.ToString(vocab));
      }
      ASSERT_FALSE(reference.empty());
      EXPECT_EQ(TaggedLines(output, id), reference) << "subscription " << id;
    }
  }
}

TEST(SessionTest, IngestPastTheEndAcksOnlyWhatRemained) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::string output = RunSession(
      "SUBSCRIBE Answer(x,y) <- a(x,y)\n"
      "INGEST 40\n"
      "INGEST 1000000\n"
      "INGEST 5\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);
  const std::vector<std::string> acks = ProtocolLines(output);
  ASSERT_EQ(acks.size(), 6u) << output;
  EXPECT_EQ(acks[1], "INGESTED 40");
  EXPECT_EQ(acks[2], "INGESTED " + std::to_string(stream.size() - 40));
  EXPECT_EQ(acks[3], "INGESTED 0");
  EXPECT_EQ(acks[4], "INGESTED 0");
  EXPECT_EQ(acks[5], "BYE");
}

TEST(SessionTest, MalformedLineEndsSessionAfterEarlierResults) {
  // Line 4 of 6 is malformed. The session streams the results of lines
  // 1-3 (the same lines a static run over them produces), acknowledges
  // nothing for the failed INGEST, and Run returns the positioned error.
  const std::string good =
      "u,a,v,1\n"
      "v,a,w,2\n"
      "w,a,u,3\n";
  const std::string csv = good +
                          "u,a,x,not-a-timestamp\n"
                          "x,a,y,5\n"
                          "y,a,z,6\n";
  Vocabulary vocab;
  Status status;
  const std::string output = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST ALL\n"
      "QUIT\n",
      csv, &vocab, &status);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 4"), std::string::npos)
      << status.ToString();
  const std::vector<std::string> acks = ProtocolLines(output);
  ASSERT_EQ(acks.size(), 1u) << output;
  EXPECT_EQ(acks[0], "SUBSCRIBED 0");

  auto prefix = ParseStreamCsv(good, &vocab);
  ASSERT_TRUE(prefix.ok());
  auto query = MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  Engine engine;
  ASSERT_TRUE(engine.AddQuery(*query, vocab).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  engine.PushAll(*prefix);
  const std::vector<std::string> session_lines = TaggedLines(output, 0);
  const std::vector<Sgt>& reference = engine.results(0);
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(session_lines.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(session_lines[i], reference[i].ToString(vocab));
  }
}

TEST(SessionTest, FileSessionHoldsAWindowNotTheFile) {
  // A session over a stream file reads it through the pread window: after
  // INGEST ALL, the source's high-water resident bytes are the same for a
  // file four times larger, and far below either file.
  auto synthetic_csv = [](std::size_t target_bytes) {
    std::string csv;
    for (std::size_t i = 0; csv.size() < target_bytes; ++i) {
      csv += "u" + std::to_string(i % 500) + ",a,v" +
             std::to_string((i * 7) % 500) + "," + std::to_string(i / 50) +
             "\n";
    }
    return csv;
  };
  std::uint64_t peak[2] = {0, 0};
  std::size_t file_bytes[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    const std::string csv = synthetic_csv(k == 0 ? (2u << 20) : (8u << 20));
    file_bytes[k] = csv.size();
    const std::string path = ::testing::TempDir() + "/session_window_" +
                             std::to_string(k) + ".csv";
    ASSERT_TRUE(WriteFileBytes(path, csv).ok());
    Vocabulary vocab;
    FileChunkOptions fco;
    fco.readahead_chunks = 2;
    auto source = MakeFileChunkSource(path, StreamFormat::kCsv, &vocab, fco);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    ASSERT_GE((*source)->NumChunks(), 8u);
    ChunkWalkCursor cursor(**source, /*allow_disorder=*/false);
    // The subscription's label never occurs, so the output stays small
    // while INGEST still walks every element.
    const std::string output = RunSession(
        "SUBSCRIBE Answer(x,y) <- b(x,y)\n"
        "INGEST ALL\n"
        "QUIT\n",
        &cursor, &vocab);
    const std::vector<std::string> acks = ProtocolLines(output);
    ASSERT_EQ(acks.size(), 3u) << output;
    EXPECT_EQ(acks[1], "INGESTED " + std::to_string(std::count(
                           csv.begin(), csv.end(), '\n')));
    peak[k] = (*source)->peak_resident_bytes();
    std::remove(path.c_str());
  }
  EXPECT_GT(peak[0], 0u);
  EXPECT_LE(peak[1], peak[0] + peak[0] / 4)
      << "peak grew with file size (" << peak[0] << " -> " << peak[1]
      << ")";
  EXPECT_LT(peak[1], file_bytes[0] / 4);
}

}  // namespace
}  // namespace sgq
