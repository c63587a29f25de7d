// Streaming graph edges and tuples (paper Defs. 3, 7, 8, 10).

#ifndef SGQ_MODEL_SGT_H_
#define SGQ_MODEL_SGT_H_

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "model/interval.h"
#include "model/types.h"
#include "model/vocabulary.h"

namespace sgq {

/// \brief A value edge (src, trg, label) without temporal attributes; the
/// unit of the payload D and of snapshot graphs.
struct EdgeRef {
  VertexId src = kInvalidVertex;
  VertexId trg = kInvalidVertex;
  LabelId label = kInvalidLabel;

  EdgeRef() = default;
  EdgeRef(VertexId s, VertexId t, LabelId l) : src(s), trg(t), label(l) {}

  bool operator==(const EdgeRef& o) const {
    return src == o.src && trg == o.trg && label == o.label;
  }
  bool operator!=(const EdgeRef& o) const { return !(*this == o); }
  bool operator<(const EdgeRef& o) const {
    if (src != o.src) return src < o.src;
    if (trg != o.trg) return trg < o.trg;
    return label < o.label;
  }
};

struct EdgeRefHash {
  std::size_t operator()(const EdgeRef& e) const {
    std::size_t seed = std::hash<VertexId>{}(e.src);
    HashCombine(&seed, std::hash<VertexId>{}(e.trg));
    HashCombine(&seed, std::hash<LabelId>{}(e.label));
    return seed;
  }
};

/// \brief A path as a sequence of edges; the payload D of a path sgt.
/// A single-element sequence represents a plain edge payload.
using Payload = std::vector<EdgeRef>;

/// \brief Streaming graph edge (Def. 3): an input-stream element carrying
/// the event timestamp assigned by the source.
///
/// The two 4-byte ids share the first word, the timestamp the second, and
/// the 4-byte label and the flag the tail word: 24 bytes. Every stream,
/// micro-batch, exchange batch and parser buffer holds these by value. The
/// constructor keeps the (src, trg, label, t) argument order.
struct Sge {
  VertexId src = kInvalidVertex;
  VertexId trg = kInvalidVertex;
  Timestamp t = 0;
  LabelId label = kInvalidLabel;
  /// Negative tuple flag: true when this element explicitly deletes the
  /// previously inserted edge (§6.2.5).
  bool is_deletion = false;

  Sge() = default;
  Sge(VertexId s, VertexId g, LabelId l, Timestamp time, bool del = false)
      : src(s), trg(g), t(time), label(l), is_deletion(del) {}

  EdgeRef edge() const { return EdgeRef(src, trg, label); }
};

/// \brief An input graph stream (Def. 4): sges ordered non-decreasingly by
/// timestamp.
using InputStream = std::vector<Sge>;

/// \brief Streaming graph tuple (Def. 7).
///
/// Distinguished attributes: src, trg, label. Non-distinguished: the
/// validity interval and the payload D (the edges that participated in the
/// generation of the tuple, or the edge sequence of a materialized path).
///
/// As in Sge, the two ids share the first word and the label and the flag
/// the tail word: 56 bytes for every tuple an operator channel, sink buffer
/// or result vector holds.
struct Sgt {
  VertexId src = kInvalidVertex;
  VertexId trg = kInvalidVertex;
  Interval validity;
  Payload payload;
  LabelId label = kInvalidLabel;
  /// Negative tuple flag (§6.2.5): true when this sgt retracts a previously
  /// emitted value-equivalent sgt.
  bool is_deletion = false;

  Sgt() = default;
  Sgt(VertexId s, VertexId t, LabelId l, Interval iv, Payload d = {},
      bool del = false)
      : src(s), trg(t), validity(iv), payload(std::move(d)), label(l),
        is_deletion(del) {}

  /// \brief The (src, trg, label) triple this tuple asserts.
  EdgeRef edge() const { return EdgeRef(src, trg, label); }

  /// \brief Value-equivalence (Def. 10): equality of distinguished
  /// attributes only.
  bool ValueEquivalent(const Sgt& other) const {
    return src == other.src && trg == other.trg && label == other.label;
  }

  /// \brief Full structural equality (incl. interval and payload).
  bool operator==(const Sgt& other) const {
    return ValueEquivalent(other) && validity == other.validity &&
           payload == other.payload && is_deletion == other.is_deletion;
  }

  /// \brief Debug rendering using the vocabulary for names.
  std::string ToString(const Vocabulary& vocab) const;
};

/// \brief A streaming graph (Def. 8): tuples ordered by arrival.
using SgtStream = std::vector<Sgt>;

// LP64 sizes of the records every buffer holds by value. A member order
// that puts a 4-byte field alone between 8-byte members pads it by 4 bytes.
#if defined(__LP64__) || defined(_LP64)
static_assert(sizeof(EdgeRef) == 12, "EdgeRef: three 32-bit ids");
static_assert(sizeof(Sge) == 24, "Sge: src, trg, then t, then label, flag");
static_assert(sizeof(Sgt) == 56, "Sgt: src, trg first, then label, flag last");
#endif

std::ostream& operator<<(std::ostream& os, const EdgeRef& e);

}  // namespace sgq

#endif  // SGQ_MODEL_SGT_H_
