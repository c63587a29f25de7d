// End-to-end streaming graph query processor (§6.1).
//
// A single-query facade over the multi-query Engine (core/engine.h): it
// compiles one logical SGA plan into a physical operator topology owned by
// the dataflow runtime (runtime/executor.h) and executes the persistent
// query in a data-driven fashion: every pushed sge flows through the
// topology and new results accumulate at the sink. Compilation, subtree
// sharing, and output demultiplexing live in the Engine; scheduling,
// micro-batching, window-slide tracking and the shared WindowStore all
// live in the Executor.

#ifndef SGQ_CORE_QUERY_PROCESSOR_H_
#define SGQ_CORE_QUERY_PROCESSOR_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/logical_plan.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/engine.h"
#include "query/rq.h"
#include "runtime/executor.h"

namespace sgq {

/// \brief A compiled, running persistent query.
///
/// Typical use:
/// \code
///   auto qp = QueryProcessor::FromQuery(sgq_query, vocab, {});
///   for (const Sge& e : stream) qp->Push(e);
///   for (const Sgt& result : qp->results()) ...
/// \endcode
class QueryProcessor {
 public:
  /// \brief Compiles a logical plan. Fails on malformed plans.
  static Result<std::unique_ptr<QueryProcessor>> Compile(
      const LogicalOp& plan, const Vocabulary& vocab,
      EngineOptions options = {});

  /// \brief Translates the SGQ to its canonical plan and compiles it.
  static Result<std::unique_ptr<QueryProcessor>> FromQuery(
      const StreamingGraphQuery& query, const Vocabulary& vocab,
      EngineOptions options = {});

  /// \brief Feeds one stream element; timestamps must be non-decreasing.
  /// Elements whose label no SGA scan consumes are discarded (§7.2.1).
  void Push(const Sge& sge) { engine_.Push(sge); }

  /// \brief Feeds a whole stream in order and flushes the ingest queue.
  void PushAll(const InputStream& stream) { engine_.PushAll(stream); }

  /// \brief Advances time (processing slide boundaries and expirations)
  /// without new input, e.g. to drain final window movements.
  void AdvanceTo(Timestamp t) { engine_.AdvanceTo(t); }

  /// \brief Drains any buffered micro-batch (no-op at batch_size 1).
  void Flush() { engine_.Flush(); }

  /// \brief All results emitted so far (coalesced, Def. 11). With
  /// batch_size > 1, reflects the input flushed so far.
  const std::vector<Sgt>& results() const { return engine_.results(0); }

  /// \brief Moves the accumulated results out (resets the result buffer,
  /// not the operator state). Flushes buffered input first.
  std::vector<Sgt> TakeResults() { return engine_.TakeResults(0); }

  /// \name Metrics (§7.1.1)
  /// @{
  const LatencyRecorder& slide_latencies() const {
    return engine_.slide_latencies();
  }
  std::size_t edges_pushed() const { return engine_.edges_pushed(); }
  std::size_t edges_processed() const { return engine_.edges_processed(); }
  std::size_t results_emitted() const { return engine_.results_emitted(0); }
  /// @}

  /// \brief Total operator state entries (diagnostics).
  std::size_t StateSize() const { return engine_.StateSize(); }

  /// \brief The runtime executing this query.
  Executor& executor() { return engine_.executor(); }
  const Executor& executor() const { return engine_.executor(); }

  /// \brief The underlying (single-query) engine.
  Engine& engine() { return engine_; }

  /// \brief Human-readable physical plan and runtime topology.
  std::string Explain() const { return engine_.Explain(); }

 private:
  explicit QueryProcessor(EngineOptions options)
      : engine_(std::move(options)) {}

  Engine engine_;
};

}  // namespace sgq

#endif  // SGQ_CORE_QUERY_PROCESSOR_H_
