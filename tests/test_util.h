// Shared helpers for the sgq test suite, built around the paper's
// snapshot-reducibility semantics (Def. 14): the streaming engines are
// validated by comparing their output snapshots against the one-time
// oracle evaluated on windowed input snapshots.

#ifndef SGQ_TESTS_TEST_UTIL_H_
#define SGQ_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "model/coalesce.h"
#include "model/sgt.h"
#include "model/snapshot_graph.h"
#include "model/vocabulary.h"
#include "query/oracle.h"
#include "query/rq.h"

namespace sgq {
namespace testing_util {

/// \brief A Vocabulary that refuses vertex names past `max_vertices`, so
/// tests reach the id-space refusal without interning 2^32 - 1 names.
class BoundedVocabulary : public Vocabulary {
 public:
  explicit BoundedVocabulary(std::size_t max_vertices) {
    max_vertices_ = max_vertices;
  }
};

/// \brief Applies the WSCAN semantics of `query` to an input stream,
/// producing the windowed streaming graph W(S) (per-label windows
/// respected). Deletions become negative sgts at their deletion instant.
inline SgtStream ApplyWScan(const InputStream& stream,
                            const StreamingGraphQuery& query) {
  SgtStream out;
  for (const Sge& sge : stream) {
    if (sge.is_deletion) {
      out.emplace_back(sge.src, sge.trg, sge.label,
                       Interval(sge.t, kMaxTimestamp), Payload{sge.edge()},
                       /*del=*/true);
      continue;
    }
    const WindowSpec& w = query.WindowFor(sge.label);
    out.emplace_back(sge.src, sge.trg, sge.label,
                     Interval(sge.t, w.ExpiryFor(sge.t)),
                     Payload{sge.edge()});
  }
  return out;
}

/// \brief Evaluates the one-time counterpart of `query` on the snapshot of
/// the windowed stream at instant `t` (the right-hand side of Def. 15).
inline VertexPairSet OraclePairsAt(const InputStream& stream,
                                   const StreamingGraphQuery& query,
                                   const Vocabulary& vocab, Timestamp t) {
  const SgtStream windowed = ApplyWScan(stream, query);
  const SnapshotGraph snapshot = SnapshotGraph::At(windowed, t);
  auto result = EvaluateOneTime(query.rq, snapshot, vocab);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : VertexPairSet{};
}

/// \brief Snapshot of an engine's result stream at instant `t`, as vertex
/// pairs (the left-hand side of Def. 15).
inline VertexPairSet ResultPairsAt(const SgtStream& results, Timestamp t) {
  VertexPairSet out;
  for (const EdgeRef& e : SnapshotEdges(results, t)) {
    out.insert({e.src, e.trg});
  }
  return out;
}

/// \brief Evenly spaced sample instants across the stream's time span
/// (plus the exact endpoints).
inline std::vector<Timestamp> SampleTimes(const InputStream& stream,
                                          int samples) {
  std::vector<Timestamp> out;
  if (stream.empty()) return out;
  const Timestamp lo = stream.front().t;
  const Timestamp hi = stream.back().t;
  out.push_back(lo);
  for (int i = 1; i < samples; ++i) {
    out.push_back(lo + (hi - lo) * i / samples);
  }
  out.push_back(hi);
  return out;
}

/// \brief FNV-1a 64 of `bytes` — the fingerprint golden SGQC images are
/// pinned by. (A CRC-32 of a whole image is useless for this: an image
/// that ends in its own CRC always yields the same residue.)
inline std::uint64_t Fingerprint(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// \brief One line per tuple covering every field Sgt::operator== compares
/// (ids, interval, deletion flag, payload), so equal fingerprints mean a
/// byte-identical result stream.
inline std::string CanonicalText(const std::vector<Sgt>& results) {
  std::string out;
  for (const Sgt& r : results) {
    out += std::to_string(r.src) + " " + std::to_string(r.trg) + " " +
           std::to_string(r.label) + " " + std::to_string(r.validity.ts) +
           " " + std::to_string(r.validity.exp) + " " +
           (r.is_deletion ? "-" : "+");
    for (const EdgeRef& e : r.payload) {
      out += " " + std::to_string(e.src) + "," + std::to_string(e.trg) + "," +
             std::to_string(e.label);
    }
    out += "\n";
  }
  return out;
}

}  // namespace testing_util
}  // namespace sgq

#endif  // SGQ_TESTS_TEST_UTIL_H_
