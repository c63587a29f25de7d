#include "server/session.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/string_util.h"
#include "workload/queries.h"

namespace sgq {

namespace {

/// First whitespace-delimited token of `line` and the remainder (with the
/// separating whitespace stripped).
std::pair<std::string, std::string> SplitCommand(const std::string& line) {
  std::size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string::npos) return {"", ""};
  std::size_t end = line.find_first_of(" \t", start);
  if (end == std::string::npos) {
    std::string cmd = line.substr(start);
    while (!cmd.empty() && (cmd.back() == '\r' || cmd.back() == '\n')) {
      cmd.pop_back();
    }
    return {cmd, ""};
  }
  std::string rest = line.substr(line.find_first_not_of(" \t", end) ==
                                         std::string::npos
                                     ? line.size()
                                     : line.find_first_not_of(" \t", end));
  while (!rest.empty() && (rest.back() == '\r' || rest.back() == '\n')) {
    rest.pop_back();
  }
  return {line.substr(start, end - start), rest};
}

}  // namespace

SessionServer::SessionServer(SessionOptions options, Vocabulary* vocab)
    : options_(std::move(options)), vocab_(vocab),
      engine_(options_.engine) {}

Status SessionServer::Init() {
  if (initialized_) return Status::Internal("SessionServer::Init twice");
  // Finalizing with zero queries fixes the slide granularity at 1 — the
  // finest possible — so no later SUBSCRIBE can be refused for its slide.
  SGQ_RETURN_NOT_OK(engine_.Finalize());
  initialized_ = true;
  return Status::OK();
}

void SessionServer::StreamResults(QueryId q, std::ostream& out,
                                  bool flush) {
  const std::vector<Sgt> results =
      flush ? engine_.TakeResults(q) : engine_.TakeDeliveredResults(q);
  for (const Sgt& r : results) {
    out << "s" << q << "\t" << r.ToString(*vocab_) << "\n";
  }
}

void SessionServer::StreamLiveResults(std::ostream& out, bool flush) {
  for (std::size_t q = 0; q < engine_.num_queries(); ++q) {
    if (engine_.IsLive(static_cast<QueryId>(q))) {
      StreamResults(static_cast<QueryId>(q), out, flush);
    }
  }
}

Status SessionServer::HandleLine(const std::string& line,
                                 StreamCursor* stream, std::ostream& out,
                                 bool* quit) {
  if (!initialized_) return Status::Internal("SessionServer not initialized");
  auto [cmd, rest] = SplitCommand(line);
  if (cmd.empty() || cmd[0] == '#') return Status::OK();  // blank / comment

  // Subscription-id commands share the validation: a live id in range.
  auto parse_live_id = [&](QueryId* q) -> bool {
    std::int64_t id = 0;
    if (!ParseInt64(rest.c_str(), &id) || id < 0 ||
        static_cast<std::size_t>(id) >= engine_.num_queries()) {
      out << "ERR unknown subscription '" << rest << "'\n";
      return false;
    }
    if (!engine_.IsLive(static_cast<QueryId>(id))) {
      out << "ERR subscription " << id << " is already unsubscribed\n";
      return false;
    }
    *q = static_cast<QueryId>(id);
    return true;
  };

  if (cmd == "SUBSCRIBE") {
    if (rest.empty()) {
      out << "ERR SUBSCRIBE needs a query\n";
      return Status::OK();
    }
    auto query = MakeQuery(rest, options_.window, vocab_);
    if (!query.ok()) {
      out << "ERR " << query.status().message() << "\n";
      return Status::OK();
    }
    auto id = engine_.AddQuery(*query, *vocab_);
    if (!id.ok()) {
      out << "ERR " << id.status().message() << "\n";
      return Status::OK();
    }
    out << "SUBSCRIBED " << *id << "\n";
  } else if (cmd == "UNSUBSCRIBE") {
    QueryId q;
    if (!parse_live_id(&q)) return Status::OK();
    // Drain before detach: RemoveQuery destroys the sink, and buffered
    // results belong to the subscriber.
    StreamResults(q, out);
    Status st = engine_.RemoveQuery(q);
    if (!st.ok()) {
      out << "ERR " << st.message() << "\n";
      return Status::OK();
    }
    out << "UNSUBSCRIBED " << q << "\n";
  } else if (cmd == "RESULTS") {
    QueryId q;
    if (!parse_live_id(&q)) return Status::OK();
    StreamResults(q, out);
    out << "OK " << q << "\n";
  } else if (cmd == "INGEST") {
    std::size_t n = std::numeric_limits<std::size_t>::max();
    if (rest != "ALL") {
      std::int64_t parsed = 0;
      if (!ParseInt64(rest.c_str(), &parsed) || parsed < 0) {
        out << "ERR INGEST expects a count or ALL, got '" << rest << "'\n";
        return Status::OK();
      }
      n = static_cast<std::size_t>(parsed);
    }
    // Results stream after every pulled chunk, live subscriptions in id
    // order, so the sinks hold one chunk's results, not the whole
    // INGEST's. A chunk's drain leaves a partly filled micro-batch
    // buffered, so batch boundaries, and each subscription's lines, are
    // those of one drain at the end; only the interleaving across
    // subscriptions follows the chunking. The last drain flushes.
    std::vector<Sge> buffer(1024);
    std::size_t ingested = 0;
    while (ingested < n) {
      const std::size_t got = stream->Next(
          buffer.data(), std::min(n - ingested, buffer.size()));
      if (got == 0) break;  // end of stream, or an error
      for (std::size_t i = 0; i < got; ++i) engine_.Push(buffer[i]);
      ingested += got;
      StreamLiveResults(out, /*flush=*/false);
    }
    position_ += ingested;
    StreamLiveResults(out, /*flush=*/true);
    SGQ_RETURN_NOT_OK(stream->status());
    out << "INGESTED " << ingested << "\n";
  } else if (cmd == "QUIT") {
    out << "BYE\n";
    *quit = true;
  } else {
    out << "ERR unknown command '" << cmd << "'\n";
  }
  return Status::OK();
}

Status SessionServer::Run(StreamCursor* stream, std::istream& in,
                          std::ostream& out) {
  std::string line;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    SGQ_RETURN_NOT_OK(HandleLine(line, stream, out, &quit));
    out.flush();  // interactive transports see each response promptly
  }
  return Status::OK();
}

}  // namespace sgq
