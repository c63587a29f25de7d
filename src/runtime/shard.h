// Shard identity and tuple routing for the sharded execution engine.
//
// With ExecutorOptions::num_workers = N > 1 every operator of the compiled
// topology is instantiated N times; each instance (a *shard*) owns a
// hash-partition of the operator's state, keyed by the operator's routing
// key. The RoutingKey an operator declares per input port (see
// PhysicalOp::InputRouting) tells the exchange layer how tuples reach the
// shards:
//
//  - kEdgeValue:  hash-partition on the tuple endpoints (src, trg). Every
//                 value-equivalent tuple — including its deletion — lands
//                 on the same shard, so per-value state (join bindings,
//                 output coalescers) stays shard-local.
//  - kBroadcast:  replicate the tuple to every shard. Used by operators
//                 whose per-key state can grow from any input tuple (PATH
//                 trees are keyed by *root*, but any edge can extend any
//                 tree). Every shard reads the whole input; the window
//                 it builds is stored once, in partitions the shards
//                 share and the driver thread alone writes.
//
// The hash must be stable across runs and platforms (determinism contract,
// DESIGN.md §2.4), so it is a fixed splitmix64 finalizer rather than
// std::hash.

#ifndef SGQ_RUNTIME_SHARD_H_
#define SGQ_RUNTIME_SHARD_H_

#include <cstdint>

#include "model/types.h"

namespace sgq {

/// \brief Index of one shard of a sharded operator, in [0, num_shards).
using ShardId = uint32_t;

/// \brief How tuples arriving on an input port are distributed across the
/// destination operator's shards.
enum class RoutingKey {
  kEdgeValue,  ///< hash-partition by (src, trg); value-stable
  kBroadcast,  ///< replicate to every shard
};

/// \brief splitmix64 finalizer: a fixed, platform-independent 64-bit mixer.
inline uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief Shard owning key `v` among `num_shards` partitions.
inline ShardId ShardOfVertex(VertexId v, std::size_t num_shards) {
  return static_cast<ShardId>(MixBits(static_cast<uint64_t>(v)) %
                              static_cast<uint64_t>(num_shards));
}

/// \brief Shard owning the edge value (src, trg). Deliberately ignores the
/// label: operators that key state on endpoint bindings (PATTERN) must see
/// every tuple with the same endpoints on one shard even when labels mix
/// (label-preserving UNION inputs).
inline ShardId ShardOfEdge(VertexId src, VertexId trg,
                           std::size_t num_shards) {
  const uint64_t h =
      MixBits(MixBits(static_cast<uint64_t>(src)) ^
              (static_cast<uint64_t>(trg) * 0xc2b2ae3d27d4eb4fULL));
  return static_cast<ShardId>(h % static_cast<uint64_t>(num_shards));
}

}  // namespace sgq

#endif  // SGQ_RUNTIME_SHARD_H_
