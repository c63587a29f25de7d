// Async ingest pipeline: throughput of parse-during-run execution with
// the double-buffered ingest stage on and off (DESIGN.md §6), plus the
// parse-stage matrix — stream format {csv, binary} × parser threads
// {1, 2, 4} behind the order-restoring merge.
//
// The workload is deliberately *ingest-bound*: the SO-like stream is
// rendered once (CSV text and SGQB binary of the same stream), and every
// run parses those bytes as part of the measured region (a
// workload/harness.h Run over the bytes). Synchronous runs parse inline on
// the execution thread; async runs parse on the dedicated ingest thread,
// overlapped with execution, so the async/sync ratio isolates exactly the
// pipeline win. Sharded runs split the parse itself over N parser
// threads; parse_tuples_per_sec (elements / slowest parser's busy time)
// is what that stage scales, independent of how fast execution can drain
// it. Result counts must match pairwise at equal (workload, workers,
// batch) — format and parser count change where and how parsing happens,
// never what executes.
//
// Output: one JSON object per line on stdout —
//   {"bench":"ingest_pipeline","workload":...,"workers":N,"cpus":C,
//    "batch":B,"async":0|1,"pin":0|1,"format":"csv"|"binary","parsers":P,
//    "edges":E,"elapsed_seconds":S,"tuples_per_sec":T,"results":R,
//    "speedup_async_vs_sync":X,"ingest_stall_ns":I,"exec_stall_ns":J,
//    "parse_tuples_per_sec":PT,"merge_stall_ns":M,
//    "parser_stall_ns":[...],
//    "ops_touched_per_edge":F,"index_skipped_dispatches":D}
// File rows (the bounded-memory pread chunk source, model/
// file_chunk_source.h) carry two extra fields — "file_mode":"buffered"
// and "readahead_stall_ns":N — in place of "speedup_async_vs_sync".
// A human summary goes to stderr. exec_stall_ns >> ingest_stall_ns
// confirms the run is ingest-bound (execution starved for parsed input).

#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include <unistd.h>

namespace {

void PrintRowTail(const sgq::RunMetrics& m) {
  std::string stalls = "[";
  for (std::size_t p = 0; p < m.parser_stall_ns.size(); ++p) {
    if (p > 0) stalls += ",";
    stalls += std::to_string(m.parser_stall_ns[p]);
  }
  stalls += "]";
  std::printf(
      "\"edges\":%zu,\"elapsed_seconds\":%.6f,"
      "\"tuples_per_sec\":%.1f,\"results\":%zu,"
      "\"ingest_stall_ns\":%llu,\"exec_stall_ns\":%llu,"
      "\"parse_tuples_per_sec\":%.1f,\"merge_stall_ns\":%llu,"
      "\"parser_stall_ns\":%s,"
      "\"ops_touched_per_edge\":%.3f,\"index_skipped_dispatches\":%zu"
      "%s}\n",
      m.edges_processed, m.elapsed_seconds, m.Throughput(),
      m.results_emitted,
      static_cast<unsigned long long>(m.ingest_stall_ns),
      static_cast<unsigned long long>(m.exec_stall_ns),
      m.ParseTuplesPerSec(),
      static_cast<unsigned long long>(m.merge_stall_ns), stalls.c_str(),
      m.OpsTouchedPerEdge(), m.index_skipped_dispatches,
      sgq::bench::CheckpointJson(m).c_str());
}

void PrintRow(const sgq::RunMetrics& m, const char* workload,
              std::size_t workers, std::size_t batch, bool async, bool pin,
              const char* format, std::size_t parsers, double speedup) {
  std::printf(
      "{\"bench\":\"ingest_pipeline\",\"workload\":\"%s\","
      "\"workers\":%zu,\"cpus\":%zu,\"batch\":%zu,\"async\":%d,\"pin\":%d,"
      "\"format\":\"%s\",\"parsers\":%zu,"
      "\"speedup_async_vs_sync\":%.3f,",
      workload, workers, sgq::bench::Cpus(), batch, async ? 1 : 0,
      pin ? 1 : 0, format, parsers, speedup);
  PrintRowTail(m);
}

void PrintFileRow(const sgq::RunMetrics& m, const char* workload,
                  const char* format, std::size_t parsers,
                  std::size_t batch) {
  // "file_mode" stays in the row: it is an identity key of the committed
  // baseline rows.
  std::printf(
      "{\"bench\":\"ingest_pipeline\",\"workload\":\"%s\","
      "\"workers\":1,\"cpus\":%zu,\"batch\":%zu,\"async\":1,\"pin\":0,"
      "\"format\":\"%s\",\"parsers\":%zu,\"file_mode\":\"buffered\","
      "\"readahead_stall_ns\":%llu,",
      workload, sgq::bench::Cpus(), batch, format, parsers,
      static_cast<unsigned long long>(m.readahead_stall_ns));
  PrintRowTail(m);
}

}  // namespace

int main() {
  using namespace sgq;

  struct Workload {
    const char* name;
    const char* query;
  };
  // The overlap win is min(parse, execute) / (parse + execute): it peaks
  // when the two stages are comparable and vanishes when either side
  // dominates. The first workload is the ingest-bound headline — every
  // parsed line is consumed by a scan+union+rename pass, so per-line
  // execute cost is on par with per-line parse cost. The second is
  // execution-heavier, showing the backpressure side (ingest_stall_ns
  // grows, the win shrinks toward the parse fraction).
  const Workload workloads[] = {
      {"scan-union",
       "Answer(x,y) <- a2q(x,y)\n"
       "Answer(x,y) <- c2q(x,y)\n"
       "Answer(x,y) <- c2a(x,y)"},
      {"pattern-2atom", "Answer(x,z) <- a2q(x,y), c2a(y,z)"},
  };
  const std::size_t kBatch = 1024;

  // Render the stream once, in both encodings of the identical element
  // sequence; all runs parse the same bytes. Denser than the shared
  // SoStream (8x the edges at the same arrival window): the parse has to
  // be a substantial fraction of the run for the overlap to be measurable
  // above pipeline startup cost, at CI scale too.
  std::string csv, binary;
  {
    Vocabulary vocab;
    SoOptions opt;
    // Floor below the SGQ_BENCH_SCALE knob: pipeline startup (thread
    // spawn, first-batch latency) is ~1ms, so the measured region must
    // stay tens of milliseconds even at the CI scale of 0.1.
    opt.num_vertices = std::max<std::size_t>(bench::Scaled(2500), 1500);
    opt.num_edges = std::max<std::size_t>(bench::Scaled(72000), 30000);
    opt.edges_per_hour = 20.0;
    auto stream = GenerateSoStream(opt, &vocab);
    bench::CheckOk(stream.status(), "stream");
    csv = FormatStreamCsv(*stream, vocab);
    auto encoded = FormatStreamBinary(*stream, vocab);
    bench::CheckOk(encoded.status(), "binary encode");
    binary = std::move(*encoded);
  }
  std::fprintf(stderr, "stream: %zu bytes of CSV, %zu bytes of SGQB\n",
               csv.size(), binary.size());

  int failures = 0;
  auto check_results = [&failures](std::size_t got, std::size_t want,
                                   const char* what) {
    if (want != static_cast<std::size_t>(-1) && got != want) {
      // Parse placement/format only move parsing around; at equal
      // workers/batch the executed element sequence is identical, so any
      // count difference is a correctness bug.
      std::fprintf(stderr,
                   "%s emitted %zu results, reference emitted %zu "
                   "(parse stage changed execution?)\n",
                   what, got, want);
      ++failures;
    }
  };

  for (const Workload& w : workloads) {
    std::fprintf(stderr, "-- %s --\n", w.name);
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      double sync_tput = 0;
      std::size_t sync_results = static_cast<std::size_t>(-1);
      // pin=1 rides along on the async configuration only: affinity has
      // nothing to stabilize in a single-threaded synchronous run.
      for (int config = 0; config < 3; ++config) {
        const bool async = config >= 1;
        const bool pin = config == 2;
        if (pin && workers == 1) continue;  // no pool to pin
        Vocabulary vocab;
        auto query = MakeQuery(w.query, bench::PaperWindow(), &vocab);
        bench::CheckOk(query.status(), w.name);
        RunOptions options;
        options.engine.batch_size = kBatch;
        options.engine.num_workers = workers;
        options.engine.pin_workers = pin;
        options.async_ingest = async;
        auto run = Run(
            RunSource::Bytes(csv), {*query}, &vocab, options,
            std::string(w.name) + "/workers=" + std::to_string(workers) +
                (async ? "/async" : "/sync") + (pin ? "/pin" : ""));
        bench::CheckOk(run.status(), "run");
        const RunMetrics& metrics = run->totals;

        const double tput = metrics.Throughput();
        if (!async) {
          sync_tput = tput;
          sync_results = metrics.results_emitted;
        } else {
          check_results(metrics.results_emitted, sync_results,
                        metrics.name.c_str());
        }
        const double speedup = sync_tput > 0 ? tput / sync_tput : 0;
        PrintRow(metrics, w.name, workers, kBatch, async, pin, "csv", 1,
                 speedup);
        std::fprintf(stderr,
                     "  workers=%zu %-11s %10.0f tuples/s  (%.2fx vs "
                     "sync)  stalls: ingest %.1f ms, exec %.1f ms\n",
                     workers, async ? (pin ? "async+pin" : "async") : "sync",
                     tput, speedup, metrics.ingest_stall_ns / 1e6,
                     metrics.exec_stall_ns / 1e6);
      }
    }
  }

  // Sharded-parse matrix: format × parser count at workers=1 (execution
  // held constant and cheap, so the parse stage is the visible axis).
  // The single-threaded CSV sync run is the shared reference: the binary
  // × parsers=4 cell versus that reference is the headline speedup.
  const Workload& matrix_w = workloads[0];
  std::fprintf(stderr, "-- parse matrix (%s, workers=1) --\n",
               matrix_w.name);
  double csv_sync_parse_tput = 0;
  std::size_t matrix_results = static_cast<std::size_t>(-1);
  {
    Vocabulary vocab;
    auto query = MakeQuery(matrix_w.query, bench::PaperWindow(), &vocab);
    bench::CheckOk(query.status(), matrix_w.name);
    RunOptions options;
    options.engine.batch_size = kBatch;
    options.engine.num_workers = 1;
    auto run = Run(RunSource::Bytes(csv), {*query}, &vocab, options,
                   "matrix/csv/sync");
    bench::CheckOk(run.status(), "run");
    const RunMetrics& metrics = run->totals;
    csv_sync_parse_tput = metrics.ParseTuplesPerSec();
    matrix_results = metrics.results_emitted;
    std::fprintf(stderr,
                 "  csv    sync       parse %10.0f tuples/s  (reference)\n",
                 csv_sync_parse_tput);
  }
  for (const bool use_binary : {false, true}) {
    for (std::size_t parsers : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      Vocabulary vocab;
      auto query = MakeQuery(matrix_w.query, bench::PaperWindow(), &vocab);
      bench::CheckOk(query.status(), matrix_w.name);
      RunOptions options;
      options.engine.batch_size = kBatch;
      options.engine.num_workers = 1;
      options.engine.ingest_parsers = parsers;
      options.async_ingest = true;
      const char* format = use_binary ? "binary" : "csv";
      auto run = Run(RunSource::Bytes(use_binary ? binary : csv), {*query},
                     &vocab, options,
                     std::string("matrix/") + format + "/parsers=" +
                         std::to_string(parsers));
      bench::CheckOk(run.status(), "run");
      const RunMetrics& metrics = run->totals;
      check_results(metrics.results_emitted, matrix_results,
                    metrics.name.c_str());
      const double parse_tput = metrics.ParseTuplesPerSec();
      const double parse_speedup =
          csv_sync_parse_tput > 0 ? parse_tput / csv_sync_parse_tput : 0;
      PrintRow(metrics, matrix_w.name, 1, kBatch, /*async=*/true,
               /*pin=*/false, format, parsers, parse_speedup);
      std::fprintf(stderr,
                   "  %-6s parsers=%zu  parse %10.0f tuples/s  (%.2fx vs "
                   "csv sync)  merge stall %.1f ms\n",
                   format, parsers, parse_tput, parse_speedup,
                   metrics.merge_stall_ns / 1e6);
    }
  }

  // File-ingest rows: the bounded-memory pread chunk source against the
  // same workload at workers=1. Both streams are rendered to temp files
  // once; every cell re-ingests the file through a file Run, so the
  // measured region includes the source's I/O. The acceptance bar is
  // throughput: the windowed source must not be slower than fully
  // materializing the file first.
  std::fprintf(stderr, "-- file ingest (%s, workers=1) --\n",
               matrix_w.name);
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir == nullptr || tmpdir[0] == '\0') tmpdir = "/tmp";
  const std::string stem = std::string(tmpdir) + "/sgq_bench_ingest_" +
                           std::to_string(static_cast<long>(getpid()));
  const std::string csv_path = stem + ".csv";
  const std::string bin_path = stem + ".sgqb";
  bench::CheckOk(WriteFileBytes(csv_path, csv), "write csv temp");
  bench::CheckOk(WriteFileBytes(bin_path, binary), "write binary temp");
  for (const bool use_binary : {false, true}) {
    const char* format = use_binary ? "binary" : "csv";
    const std::string& path = use_binary ? bin_path : csv_path;
    for (std::size_t parsers : {std::size_t{1}, std::size_t{4}}) {
      Vocabulary vocab;
      auto query = MakeQuery(matrix_w.query, bench::PaperWindow(), &vocab);
      bench::CheckOk(query.status(), matrix_w.name);
      RunOptions options;
      options.engine.batch_size = kBatch;
      options.engine.num_workers = 1;
      options.engine.ingest_parsers = parsers;
      options.async_ingest = true;
      auto run = Run(RunSource::File(path), {*query}, &vocab, options,
                     std::string("file/") + format + "/parsers=" +
                         std::to_string(parsers));
      bench::CheckOk(run.status(), "run");
      const RunMetrics& metrics = run->totals;
      check_results(metrics.results_emitted, matrix_results,
                    metrics.name.c_str());
      PrintFileRow(metrics, matrix_w.name, format, parsers, kBatch);
      std::fprintf(stderr,
                   "  %-6s parsers=%zu  %10.0f tuples/s  "
                   "parse %10.0f tuples/s  readahead stall %.1f ms\n",
                   format, parsers, metrics.Throughput(),
                   metrics.ParseTuplesPerSec(),
                   metrics.readahead_stall_ns / 1e6);
    }
  }
  std::remove(csv_path.c_str());
  std::remove(bin_path.c_str());
  return failures == 0 ? 0 : 1;
}
