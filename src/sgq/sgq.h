// Umbrella header: the public API of the sgq streaming graph query
// processor. Including this header gives access to:
//
//   - the streaming graph data model (sgts, validity intervals, coalesce,
//     snapshot graphs),
//   - the SGQ query model (Regular Queries + windows) with a Datalog text
//     parser and the one-time oracle evaluator,
//   - the logical streaming graph algebra (SGA), the canonical SGQ -> SGA
//     translation and the transformation rules,
//   - the multi-query Engine with its incremental physical operators
//     (S-PATH, Δ-tree PATH, symmetric-hash-join PATTERN),
//   - the standing-query subscription session server (live attach/detach
//     of queries on a running engine — DESIGN.md §10),
//   - the DD-style baseline engine, and
//   - the workload generators and benchmark harness.

#ifndef SGQ_SGQ_H_
#define SGQ_SGQ_H_

#include "algebra/logical_plan.h"     // IWYU pragma: export
#include "algebra/transform.h"        // IWYU pragma: export
#include "algebra/translate.h"        // IWYU pragma: export
#include "baseline/engine.h"          // IWYU pragma: export
#include "common/metrics.h"           // IWYU pragma: export
#include "common/result.h"            // IWYU pragma: export
#include "common/status.h"            // IWYU pragma: export
#include "core/engine.h"              // IWYU pragma: export
#include "core/optimizer.h"           // IWYU pragma: export
#include "core/reorder_buffer.h"      // IWYU pragma: export
#include "model/coalesce.h"           // IWYU pragma: export
#include "model/file_chunk_source.h"  // IWYU pragma: export
#include "model/interval.h"           // IWYU pragma: export
#include "model/sgt.h"                // IWYU pragma: export
#include "model/snapshot_graph.h"     // IWYU pragma: export
#include "model/stream_io.h"          // IWYU pragma: export
#include "model/vocabulary.h"         // IWYU pragma: export
#include "model/window.h"             // IWYU pragma: export
#include "query/gcore.h"              // IWYU pragma: export
#include "query/normalize.h"          // IWYU pragma: export
#include "query/oracle.h"             // IWYU pragma: export
#include "query/rq.h"                 // IWYU pragma: export
#include "regex/dfa.h"                // IWYU pragma: export
#include "regex/regex.h"              // IWYU pragma: export
#include "server/session.h"           // IWYU pragma: export
#include "workload/generators.h"      // IWYU pragma: export
#include "workload/harness.h"         // IWYU pragma: export
#include "workload/queries.h"         // IWYU pragma: export

#endif  // SGQ_SGQ_H_
