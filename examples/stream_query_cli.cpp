// Command-line runner: evaluate persistent queries over an edge stream
// (CSV text or SGQB binary — see stream_convert to convert between them).
//
// Usage:
//   stream_query_cli <query-file> <stream> [window] [slide] [--gcore]
//                    [--delta-path] [--slack N] [--batch N] [--workers N]
//                    [--query FILE]... [--no-share] [--async-ingest]
//                    [--pin-workers] [--format csv|binary|auto]
//                    [--parsers N]
//                    [--checkpoint-dir DIR] [--checkpoint-every N]
//                    [--restore]
//   stream_query_cli --serve <stream> [window] [slide] [engine flags]
//
//   query-file   Datalog rules (rq.h syntax) or a G-CORE query (--gcore)
//   stream       CSV lines `src,label,trg,timestamp[,+|-]` or an SGQB
//                binary stream, timestamp-ordered (with --slack N,
//                bounded disorder is tolerated). A regular file streams
//                through a bounded pread window — peak ingest memory is
//                O(window), not O(file), so files larger than RAM ingest
//                fine; a pipe (e.g. `<(zcat s.csv.gz)`) is read once
//                into memory.
//   window/slide time-based sliding window, default 24 / 1 (positive
//                integers)
//   --query FILE register an additional standing query; all queries run
//                on one shared multi-query engine (core/engine.h) with
//                cross-query operator sharing (disable with --no-share),
//                and every result line is tagged `q<i><TAB>`
//   --async-ingest  parse the stream on a dedicated ingest thread,
//                double-buffered against execution (DESIGN.md §6); with
//                --slack N the reorder stage runs on the ingest thread
//                too. Results print when the stream drains.
//   --format F   input stream encoding: csv, binary (SGQB), or auto
//                (default — detected from the magic bytes the stream
//                source reads first; a CSV whose first vertex name starts
//                with "SGQB" needs --format csv)
//   --parsers N  shard the parse stage over N parser threads behind an
//                order-restoring merge (DESIGN.md §6); N > 1 implies
//                --async-ingest. Note: with N > 1 over CSV input,
//                vocabulary ids are interned concurrently, so result
//                *names* are deterministic but internal ids (and hence
//                result line order) may vary run to run; binary streams
//                intern their dictionary up front and stay fully
//                deterministic.
//   --pin-workers   pin runtime threads to cores (best-effort affinity)
//   --checkpoint-dir DIR   crash recovery (DESIGN.md §7): with
//                --checkpoint-every N, write an SGQC snapshot
//                DIR/ckpt-NNNNNN.sgqc after every N-th stream element
//                (the sequence number is the element index / N, so an
//                interrupted run and its resumed continuation produce
//                the same file names). Snapshots are written via temp
//                file + fsync + atomic rename — a crash mid-write never
//                leaves a torn file under a live name. In checkpoint
//                mode results print once, after the stream drains, so a
//                restored run reproduces the complete output stream.
//                Not supported with --async-ingest / --parsers N>1.
//   --serve      subscription-session mode (DESIGN.md §10): instead of a
//                query file, read SUBSCRIBE / UNSUBSCRIBE / RESULTS /
//                INGEST / QUIT commands from stdin (server/session.h
//                protocol) and attach/detach standing queries live on the
//                running engine, interleaved with stream ingest. The one
//                positional argument is the stream; window/slide set the
//                window attached to every subscribed query. Result lines
//                are tagged `s<id><TAB>`. Engine flags (--batch,
//                --workers, --delta-path, --no-share) apply; --gcore,
//                --query, --slack, --async-ingest and checkpointing are
//                not available in serve mode.
//   --restore    resume from the newest valid checkpoint in
//                --checkpoint-dir: corrupt / truncated / mismatched
//                snapshots are reported and skipped (falling back to
//                the next older one), already-processed stream elements
//                are skipped, and the run continues to the end. Output
//                is identical to the uninterrupted run's.
//
// At --batch 1 without checkpointing, prints every result sgt as it is
// produced; otherwise prints them once the stream drains. Then prints a
// metrics summary. A malformed stream element fails the run (exit 1,
// positioned message) where ingest reaches it, after the results of the
// elements before it. Without arguments, runs a built-in demo (the
// paper's Figure 2 stream).
// Usage errors — an unknown option, an option missing its value, a
// malformed number — exit 2 and name the offending argument.

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "sgq/sgq.h"

namespace {

sgq::Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return sgq::Status::NotFound(std::string("cannot open ") + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string CheckpointName(const std::string& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%06llu.sgqc",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

/// \brief Checkpoints in `dir` (files named ckpt-<digits>.sgqc), newest
/// sequence number first — the restore candidate order.
std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    const char* name = e->d_name;
    const std::size_t len = std::strlen(name);
    if (len <= 10 || std::strncmp(name, "ckpt-", 5) != 0 ||
        std::strcmp(name + len - 5, ".sgqc") != 0) {
      continue;
    }
    std::uint64_t seq = 0;
    bool digits = true;
    for (std::size_t k = 5; k + 5 < len; ++k) {
      if (name[k] < '0' || name[k] > '9') {
        digits = false;
        break;
      }
      seq = seq * 10 + static_cast<std::uint64_t>(name[k] - '0');
    }
    if (!digits) continue;
    out.emplace_back(seq, dir + "/" + name);
  }
  closedir(d);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

const char kDemoQuery[] =
    "Answer(x,y) <- follows+(x,y), likes(x,m), posts(y,m)";
const char kDemoStream[] =
    "u,follows,v,7\nv,posts,b,10\ny,follows,u,13\nv,posts,c,17\n"
    "u,posts,a,22\ny,likes,a,28\nu,likes,b,29\nu,likes,c,30\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sgq;

  std::string query_text = kDemoQuery;
  std::string stream_text = kDemoStream;
  std::string stream_path;  // empty = the built-in demo stream
  std::vector<std::string> extra_query_texts;
  Timestamp window = 24, slide = 1, slack = 0;
  bool use_gcore = false;
  std::optional<StreamFormat> format;  // std::nullopt: detect
  std::string checkpoint_dir;
  std::uint64_t checkpoint_every = 0;
  bool restore = false;
  bool serve = false;
  EngineOptions options;

  // Positional meaning depends on --serve (which may come later on the
  // command line), so collect first and interpret after the flag pass.
  std::vector<const char*> positionals;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gcore") == 0) {
      use_gcore = true;
    } else if (std::strcmp(argv[i], "--delta-path") == 0) {
      options.path_impl = PathImpl::kDeltaPath;
    } else if (std::strcmp(argv[i], "--no-share") == 0) {
      options.cross_query_sharing = false;
    } else if (std::strcmp(argv[i], "--async-ingest") == 0) {
      options.async_ingest = true;
    } else if (std::strcmp(argv[i], "--pin-workers") == 0) {
      options.pin_workers = true;
    } else if (std::strcmp(argv[i], "--query") == 0 && i + 1 < argc) {
      auto text = ReadFile(argv[++i]);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 1;
      }
      extra_query_texts.push_back(*text);
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 &&
               i + 1 < argc) {
      checkpoint_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 &&
               i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n < 0) {
        std::fprintf(stderr,
                     "--checkpoint-every: expected a non-negative integer, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      checkpoint_every = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(argv[i], "--restore") == 0) {
      restore = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--slack") == 0 && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n < 0) {
        std::fprintf(stderr,
                     "--slack: expected a non-negative integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
      slack = n;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n <= 0) {
        std::fprintf(stderr, "--batch: expected a positive integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
      options.batch_size = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--format") == 0 && i + 1 < argc) {
      ++i;
      if (std::strcmp(argv[i], "csv") == 0) {
        format = StreamFormat::kCsv;
      } else if (std::strcmp(argv[i], "binary") == 0) {
        format = StreamFormat::kBinary;
      } else if (std::strcmp(argv[i], "auto") == 0) {
        format = std::nullopt;
      } else {
        std::fprintf(stderr,
                     "--format: expected csv, binary or auto, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--parsers") == 0 && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n <= 0) {
        std::fprintf(stderr,
                     "--parsers: expected a positive integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
      options.ingest_parsers = static_cast<std::size_t>(n);
      if (options.ingest_parsers > 1) options.async_ingest = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseInt64(argv[++i], &n) || n <= 0) {
        std::fprintf(stderr,
                     "--workers: expected a positive integer, got '%s'\n",
                     argv[i]);
        return 2;
      }
      options.num_workers = static_cast<std::size_t>(n);
    } else if (argv[i][0] == '-') {
      // Never let an unknown (or value-less) option fall through to the
      // positionals, where it would silently shift window/slide.
      std::fprintf(stderr, "unknown option or missing value: '%s'\n",
                   argv[i]);
      return 2;
    } else {
      positionals.push_back(argv[i]);
    }
  }

  // Positional window/slide: validated like --batch, never defaulted to 0.
  auto parse_window_arg = [](const char* what, const char* text,
                             Timestamp* out) {
    int64_t n = 0;
    if (!ParseInt64(text, &n) || n <= 0) {
      std::fprintf(stderr, "%s: expected a positive integer, got '%s'\n",
                   what, text);
      return false;
    }
    *out = n;
    return true;
  };
  // Serve mode has no query file: <stream> [window] [slide].
  const std::size_t window_at = serve ? 1 : 2;
  if (positionals.size() > window_at &&
      !parse_window_arg("window", positionals[window_at], &window)) {
    return 2;
  }
  if (positionals.size() > window_at + 1 &&
      !parse_window_arg("slide", positionals[window_at + 1], &slide)) {
    return 2;
  }

  if (serve) {
    if (!positionals.empty()) stream_path = positionals[0];
  } else {
    if (!positionals.empty()) {
      auto text = ReadFile(positionals[0]);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 1;
      }
      query_text = *text;
    }
    if (positionals.size() > 1) {
      // Record the path only: the file streams through the bounded chunk
      // feeder, never materialized.
      stream_path = positionals[1];
    }
  }

  const bool checkpointing = !checkpoint_dir.empty();
  if ((checkpoint_every > 0 || restore) && !checkpointing) {
    std::fprintf(stderr,
                 "--checkpoint-every/--restore require --checkpoint-dir\n");
    return 2;
  }
  if (checkpointing && options.async_ingest) {
    // The pipelined paths have no element-indexed batch boundary to
    // snapshot at (parse and reorder run on other threads mid-flight).
    std::fprintf(stderr,
                 "--checkpoint-dir is not supported with --async-ingest / "
                 "--parsers N > 1; run synchronously to checkpoint\n");
    return 2;
  }
  if (checkpointing) {
    // Best-effort create; a pre-existing directory is fine, anything
    // else surfaces on the first snapshot write.
    ::mkdir(checkpoint_dir.c_str(), 0755);
  }

  Vocabulary vocab;

  if (serve) {
    // Subscription-session mode: queries arrive over the line protocol,
    // never from files; the exotic ingest paths don't apply.
    if (use_gcore || !extra_query_texts.empty() || slack > 0 ||
        options.async_ingest || options.ingest_parsers > 1 || checkpointing ||
        restore) {
      std::fprintf(stderr,
                   "--serve is incompatible with --gcore, --query, --slack, "
                   "--async-ingest, --parsers, and checkpointing\n");
      return 2;
    }
    if (!stream_path.empty()) {
      auto text = ReadFileBytes(stream_path);
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 1;
      }
      stream_text = std::move(text).ValueOrDie();
    }
    auto stream =
        format.value_or(DetectStreamFormat(stream_text)) ==
                StreamFormat::kBinary
            ? ParseStreamBinary(stream_text, &vocab)
            : ParseStreamCsv(stream_text, &vocab);
    if (!stream.ok()) {
      std::fprintf(stderr, "stream: %s\n",
                   stream.status().ToString().c_str());
      return 1;
    }
    SessionOptions session_options;
    session_options.engine = options;
    session_options.window = WindowSpec(window, slide);
    SessionServer server(std::move(session_options), &vocab);
    if (Status st = server.Init(); !st.ok()) {
      std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
      return 1;
    }
    if (Status st = server.Run(*stream, std::cin, std::cout); !st.ok()) {
      std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  auto parse_query = [&](const std::string& text)
      -> sgq::Result<StreamingGraphQuery> {
    if (use_gcore) return ParseGCore(text, &vocab);
    return MakeQuery(text, WindowSpec(window, slide), &vocab);
  };

  std::vector<StreamingGraphQuery> queries;
  {
    auto parsed = parse_query(query_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "query: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    queries.push_back(*parsed);
  }
  for (const std::string& text : extra_query_texts) {
    auto parsed = parse_query(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "query %zu: %s\n", queries.size(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    queries.push_back(*parsed);
  }
  const bool multi = queries.size() > 1;

  // Every run reads one ChunkedStream: the stream file through the
  // bounded readahead window, or the demo text in memory. --slack applies
  // on either reader: the pipeline's merge stage or the chunk walk's
  // ReorderBuffer below.
  options.ingest_slack = slack;
  const FileChunkOptions chunking = IngestChunking(options);
  std::unique_ptr<ChunkedStream> source;
  if (!stream_path.empty()) {
    auto file = MakeFileChunkSource(stream_path, format, &vocab, chunking);
    if (!file.ok()) {
      std::fprintf(stderr, "stream: %s\n", file.status().ToString().c_str());
      return 1;
    }
    source = std::move(file).ValueOrDie();
  } else {
    auto chunked =
        MakeChunkedStream(stream_text, format, &vocab,
                          chunking.allow_disorder, chunking.min_chunks);
    if (!chunked.ok()) {
      std::fprintf(stderr, "stream: %s\n",
                   chunked.status().ToString().c_str());
      return 1;
    }
    source = std::move(chunked).ValueOrDie();
  }

  // All queries — one or many — register on a shared multi-query engine;
  // a single query is exactly the classic QueryProcessor configuration.
  // The engine lives behind a pointer so a failed restore attempt can
  // discard it wholesale and rebuild fresh (no partial restore ever runs).
  auto make_engine = [&]() -> Result<std::unique_ptr<Engine>> {
    auto e = std::make_unique<Engine>(options);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      SGQ_RETURN_NOT_OK(e->AddQuery(queries[q], vocab).status());
    }
    SGQ_RETURN_NOT_OK(e->Finalize());
    return e;
  };
  auto built = make_engine();
  if (!built.ok()) {
    std::fprintf(stderr, "compile: %s\n", built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Engine> engine_ptr = std::move(built).ValueOrDie();

  // Crash recovery: try the newest snapshot first; one that fails
  // validation (torn file, flipped bit, version skew, option mismatch)
  // is reported and skipped, and the engine is rebuilt fresh before the
  // next candidate so a partially applied restore can never leak in.
  auto reorder_buffer = std::make_unique<ReorderBuffer>(slack);
  std::uint64_t resume_raw = 0;  // raw stream elements already consumed
  if (restore) {
    bool restored = false;
    for (const auto& [seq, path] : ListCheckpoints(checkpoint_dir)) {
      (void)seq;
      std::unordered_map<std::string, std::string> extra;
      Status st = engine_ptr->Restore(path, &vocab, &extra);
      if (st.ok()) {
        // The reorder stage (--slack) rides along as an extra section:
        // raw-element resume index, then the buffer's pending heap.
        auto it = extra.find("x-reorder");
        if (it != extra.end()) {
          ByteReader in(it->second, path + ": section 'x-reorder'");
          const std::uint64_t raw = in.U64();
          st = reorder_buffer->DeserializeState(&in);
          if (st.ok()) st = in.ExpectEnd();
          if (st.ok()) resume_raw = raw;
        } else if (slack > 0) {
          st = Status::InvalidArgument(path +
                               ": checkpoint has no reorder-buffer section "
                               "(taken without --slack?)");
        } else {
          resume_raw = engine_ptr->ingested();
        }
        if (st.ok()) {
          std::fprintf(stderr,
                       "restored %s (%llu stream elements already "
                       "processed)\n",
                       path.c_str(),
                       static_cast<unsigned long long>(resume_raw));
          restored = true;
          break;
        }
      }
      std::fprintf(stderr, "restore: %s; falling back to previous snapshot\n",
                   st.ToString().c_str());
      auto rebuilt = make_engine();
      if (!rebuilt.ok()) {
        std::fprintf(stderr, "compile: %s\n",
                     rebuilt.status().ToString().c_str());
        return 1;
      }
      engine_ptr = std::move(rebuilt).ValueOrDie();
      reorder_buffer = std::make_unique<ReorderBuffer>(slack);
      resume_raw = 0;
    }
    if (!restored) {
      std::fprintf(stderr,
                   "restore: no usable checkpoint in %s; starting fresh\n",
                   checkpoint_dir.c_str());
    }
  }
  Engine& engine = *engine_ptr;
  std::fprintf(stderr, "plan:\n%s", engine.Explain().c_str());
  if (multi) {
    std::fprintf(stderr,
                 "%zu queries on %zu operators (%zu shared subtrees)\n",
                 queries.size(), engine.NumOperators(),
                 engine.NumSharedSubtrees());
  }
  std::fprintf(stderr, "\n");

  auto print_results = [&]() {
    for (std::size_t q = 0; q < engine.num_queries(); ++q) {
      for (const Sgt& r : engine.TakeResults(static_cast<QueryId>(q))) {
        if (multi) {
          std::printf("q%zu\t%s\n", q, r.ToString(vocab).c_str());
        } else {
          std::printf("%s\n", r.ToString(vocab).c_str());
        }
      }
    }
  };

  // Snapshot after `raw_index` raw stream elements; the reorder stage
  // (--slack) rides along as an extra section: raw-element resume index,
  // then the buffer's pending heap.
  auto take_checkpoint = [&](std::uint64_t raw_index) -> bool {
    std::vector<std::pair<std::string, std::string>> extra;
    if (slack > 0) {
      std::string blob;
      PutU64(&blob, raw_index);
      reorder_buffer->SerializeState(&blob);
      extra.emplace_back("x-reorder", std::move(blob));
    }
    const std::string path =
        CheckpointName(checkpoint_dir, raw_index / checkpoint_every);
    Status st = engine.Checkpoint(path, &vocab, std::move(extra));
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", st.ToString().c_str());
      return false;
    }
    return true;
  };

  Stopwatch timer;
  const char* const disorder_hint =
      slack == 0 ? " (out-of-order input? try --slack N)" : "";
  if (options.async_ingest) {
    // Pipelined run: the parse executes on the ingest thread (or, with
    // --parsers N > 1, on N parse threads behind the order-restoring
    // merge), overlapped with execution; results materialize when the
    // stream drains.
    Status run = engine.RunPipelined(*source);
    if (!run.ok()) {
      std::fprintf(stderr, "stream: %s%s\n", run.ToString().c_str(),
                   disorder_hint);
      return 1;
    }
    if (engine.ingest_stats().late_dropped > 0) {
      std::fprintf(stderr, "%zu late element(s) dropped by the slack stage\n",
                   engine.ingest_stats().late_dropped);
    }
    print_results();
  } else {
    // One chunk walk on the calling thread: skip what a restore already
    // covered, absorb --slack disorder, push, and snapshot after every
    // --checkpoint-every raw elements. Results print per element only at
    // batch 1 without checkpointing; otherwise once the stream drains —
    // so --batch takes effect, and in checkpoint mode a restored run
    // reproduces the complete output stream (the sink accumulates, and
    // it is part of every snapshot).
    const bool per_element = options.batch_size == 1 && !checkpointing;
    ReorderBuffer& buffer = *reorder_buffer;
    buffer.OnLate([&](const Sge& late) {
      std::fprintf(stderr, "late element dropped (t=%lld)\n",
                   static_cast<long long>(late.t));
    });
    auto push = [&](const Sge& sge) {
      engine.Push(sge);
      if (per_element) print_results();
    };
    ChunkWalkCursor cursor(*source, chunking.allow_disorder);
    std::vector<Sge> chunk(1024);
    std::uint64_t raw = 0;  // raw stream elements read
    for (;;) {
      const std::size_t n = cursor.Next(chunk.data(), chunk.size());
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        // Already consumed before the crash: a restored reorder buffer
        // holds whatever of these was still pending at the snapshot.
        if (++raw <= resume_raw) continue;
        if (slack == 0) {
          push(chunk[i]);
        } else {
          for (const Sge& released : buffer.Offer(chunk[i])) push(released);
        }
        if (checkpointing && checkpoint_every > 0 &&
            raw % checkpoint_every == 0 && !take_checkpoint(raw)) {
          return 1;
        }
      }
    }
    if (!cursor.ok()) {
      std::fprintf(stderr, "stream: %s%s\n",
                   cursor.status().ToString().c_str(), disorder_hint);
      return 1;
    }
    for (const Sge& released : buffer.Flush()) push(released);
    if (!per_element) print_results();
  }

  // Surface a failed background checkpoint write (ENOSPC, unwritable dir)
  // before exiting 0 — the previous good snapshot is still in place
  // either way.
  if (Status st = engine.WaitForCheckpoint(); !st.ok()) {
    std::fprintf(stderr, "checkpoint: %s\n", st.ToString().c_str());
    return 1;
  }

  std::size_t total_results = 0;
  for (std::size_t q = 0; q < engine.num_queries(); ++q) {
    total_results += engine.results_emitted(static_cast<QueryId>(q));
  }
  std::fprintf(stderr,
               "\n%zu edges processed in %.3fs (%.0f edges/s), "
               "%zu results, p99 slide latency %.3f ms\n",
               engine.edges_processed(), timer.ElapsedSeconds(),
               static_cast<double>(engine.edges_processed()) /
                   std::max(timer.ElapsedSeconds(), 1e-9),
               total_results,
               engine.slide_latencies().Percentile(0.99) * 1e3);
  if (multi) {
    for (std::size_t q = 0; q < engine.num_queries(); ++q) {
      std::fprintf(stderr, "  q%zu: %zu results\n", q,
                   engine.results_emitted(static_cast<QueryId>(q)));
    }
  }
  if (!stream_path.empty()) {
    std::fprintf(stderr, "file ingest: readahead stall %.3f ms\n",
                 source->ReadaheadStallNs() / 1e6);
  }
  if (options.async_ingest) {
    const IngestStats& ingest = engine.ingest_stats();
    std::fprintf(stderr,
                 "ingest pipeline: %zu batches, ingest stall %.3f ms, "
                 "exec stall %.3f ms\n",
                 ingest.batches, ingest.ingest_stall_ns / 1e6,
                 ingest.exec_stall_ns / 1e6);
    if (ingest.parsers > 1) {
      std::fprintf(stderr,
                   "sharded parse: %zu parsers, merge stall %.3f ms\n",
                   ingest.parsers, ingest.merge_stall_ns / 1e6);
      for (std::size_t p = 0; p < ingest.parser_stall_ns.size(); ++p) {
        std::fprintf(stderr, "  parser %zu: busy %.3f ms, stall %.3f ms\n",
                     p, ingest.parser_busy_ns[p] / 1e6,
                     ingest.parser_stall_ns[p] / 1e6);
      }
    }
  }
  return 0;
}
