// Fundamental identifier and time types of the streaming graph data model
// (paper §3.1).

#ifndef SGQ_MODEL_TYPES_H_
#define SGQ_MODEL_TYPES_H_

#include <cstdint>
#include <limits>

namespace sgq {

/// Discrete, totally ordered time domain T (Def. 3); non-negative integers.
using Timestamp = int64_t;

/// Identifier of a vertex in V: a dense Vocabulary index. 32 bits, so every
/// record that holds one (stream elements, tuples, payload edges, tree and
/// join state) stays small; a Vocabulary holds at most 2^32 - 1 names, ids
/// 0 .. 2^32 - 2, and never hands out kInvalidVertex.
using VertexId = uint32_t;

/// Identifier of a label in Sigma, interned by Vocabulary.
using LabelId = uint32_t;

/// Sentinel for "no label".
inline constexpr LabelId kInvalidLabel = std::numeric_limits<LabelId>::max();

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

/// \brief `v` as a u64 wire field. SGQC images (and the plan signatures
/// they name partitions by) keep the 64-bit vertex fields they had before
/// ids narrowed, so kInvalidVertex is written as u64 max and every id as
/// itself; ByteReader::Vertex (model/checkpoint.h) is the inverse.
inline constexpr uint64_t VertexToWire(VertexId v) {
  return v == kInvalidVertex ? std::numeric_limits<uint64_t>::max() : v;
}

/// Largest representable time instant; used for unbounded expiry.
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();

/// Smallest time instant.
inline constexpr Timestamp kMinTimestamp = 0;

}  // namespace sgq

#endif  // SGQ_MODEL_TYPES_H_
