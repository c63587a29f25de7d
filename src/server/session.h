// Standing-query subscription sessions (DESIGN.md §10): a line-oriented
// control protocol that attaches and detaches queries on a RUNNING
// Engine, interleaved with stream ingest. The transport is any
// std::istream/std::ostream pair — the CLI wires it to stdin/stdout
// (`stream_query_cli --serve`), tests drive it from string streams.
//
// Protocol (one command per line, responses and results on stdout):
//
//   SUBSCRIBE <datalog rules>     -> SUBSCRIBED <id>
//       Compiles the query onto the running engine (live attach, at a
//       batch boundary). The query sees the stream from this point on;
//       when it shares an operator subtree with running subscriptions it
//       adopts that subtree's accumulated window state (the sharing is
//       the point — DESIGN.md §3).
//   UNSUBSCRIBE <id>              -> pending results, UNSUBSCRIBED <id>
//       Drains the subscription's buffered results, then detaches it via
//       Engine::RemoveQuery — operators only it referenced are destroyed
//       and their state released. The id is never reused.
//   RESULTS <id>                  -> results, OK <id>
//       Drains and prints the subscription's accumulated results.
//   INGEST <n|ALL>                -> results of all live subscriptions,
//                                    INGESTED <count>
//       Pulls the next n elements (or the whole remainder) from the
//       session's stream cursor a chunk (at most 1,024 elements) at a
//       time; after each chunk it streams every live subscription's new
//       results in subscription-id order, so the session buffers one
//       chunk's results. Each subscription's lines are in delivery order;
//       only their interleaving across subscriptions depends on the
//       chunking. <count> is what the stream still held, at most n. A
//       malformed element ends the session: the results of the elements
//       before it stream first, then Run returns the cursor's positioned
//       error.
//   QUIT                          -> BYE
//       Ends the session (EOF does the same, without the BYE).
//
// Every result line is tagged `s<id>\t` so per-subscription output can
// be separated (`grep '^s0'`); a refused command prints `ERR <reason>`
// and leaves the session — and the engine — running.
//
// Determinism: with num_workers=1 and batch_size=1 a subscription that
// attaches fresh (sharing nothing) at stream position k produces results
// byte-identical to a static `--query` run over the stream suffix [k..):
// its operators keep a solo compile's relative id order, so the waves
// deliver its tuples in the static run's order. One attached before any
// ingest matches the full static run. The CI session smoke test
// (scripts/session_smoke.sh) enforces both.

#ifndef SGQ_SERVER_SESSION_H_
#define SGQ_SERVER_SESSION_H_

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "model/stream_io.h"
#include "model/vocabulary.h"
#include "model/window.h"

namespace sgq {

/// \brief Configuration of a subscription session.
struct SessionOptions {
  /// Runtime configuration of the hosted engine. The session engine is
  /// finalized EMPTY (before the first SUBSCRIBE), which fixes the slide
  /// granularity at 1 — every later attach is admissible and, fresh at
  /// num_workers=1/batch_size=1, byte-identical to a static run.
  EngineOptions engine;
  /// Window attached to every subscribed query (the CLI's window/slide
  /// positionals).
  WindowSpec window;
};

/// \brief Hosts one Engine behind the SUBSCRIBE/UNSUBSCRIBE/INGEST line
/// protocol above. Subscription ids are the engine's QueryIds: assigned
/// in SUBSCRIBE order, never reused after UNSUBSCRIBE.
class SessionServer {
 public:
  /// \brief `vocab` is shared with the stream parse (result text resolves
  /// through it) and must outlive the server.
  SessionServer(SessionOptions options, Vocabulary* vocab);

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// \brief Finalizes the (empty) engine; call once before Run/HandleLine.
  Status Init();

  /// \brief Runs the command loop over `in`/`out` until QUIT or EOF,
  /// pulling INGEST elements from `stream` (timestamp-ordered; the CLI
  /// passes a ChunkWalkCursor over its chunk source, so the session holds
  /// a readahead window of the stream, not the stream). Protocol errors
  /// (unparsable query, unknown id) are reported inline as ERR lines and
  /// do not end the session; a stream error does, and is returned.
  Status Run(StreamCursor* stream, std::istream& in, std::ostream& out);

  /// \brief Dispatches one protocol line (the Run loop body; tests call
  /// it directly). Sets `*quit` on QUIT.
  Status HandleLine(const std::string& line, StreamCursor* stream,
                    std::ostream& out, bool* quit);

  /// \brief Elements of the session stream ingested so far.
  std::size_t position() const { return position_; }

  /// \brief The hosted engine (refcount/StateBytes introspection).
  Engine& engine() { return engine_; }

 private:
  /// \brief Drains query `q`'s buffered results to `out`, one
  /// `s<id>\t<sgt>` line each; `flush` first drains a buffered
  /// micro-batch (Engine::TakeResults vs TakeDeliveredResults).
  void StreamResults(QueryId q, std::ostream& out, bool flush = true);

  /// \brief StreamResults for every live subscription, in id order.
  void StreamLiveResults(std::ostream& out, bool flush);

  SessionOptions options_;
  Vocabulary* vocab_;
  Engine engine_;
  std::size_t position_ = 0;  ///< elements pulled from the stream
  bool initialized_ = false;
};

}  // namespace sgq

#endif  // SGQ_SERVER_SESSION_H_
