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

/// Runs `script` through a fresh session over `cursor`; returns stdout and
/// sets `*status` (when given) to what Run returned.
std::string RunSession(const std::string& script, StreamCursor* cursor,
                       Vocabulary* vocab, Status* status = nullptr,
                       WindowSpec window = {12, 3}) {
  SessionOptions options;
  options.window = window;
  SessionServer server(options, vocab);
  EXPECT_TRUE(server.Init().ok());
  std::istringstream in(script);
  std::ostringstream out;
  const Status st = server.Run(cursor, in, out);
  if (status != nullptr) {
    *status = st;
  } else {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return out.str();
}

/// Runs `script` over `csv` split into several chunks, walked in order.
std::string RunSession(const std::string& script, const std::string& csv,
                       Vocabulary* vocab, Status* status = nullptr) {
  auto chunks = MakeChunkedStream(csv, StreamFormat::kCsv, vocab,
                                  /*allow_disorder=*/false,
                                  /*min_chunks=*/4);
  EXPECT_TRUE(chunks.ok()) << chunks.status().ToString();
  if (!chunks.ok()) return "";
  ChunkWalkCursor cursor(**chunks, /*allow_disorder=*/false);
  return RunSession(script, &cursor, vocab, status);
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
