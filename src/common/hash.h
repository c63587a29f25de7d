// Hash combiners for composite keys used by join tables and indexes.

#ifndef SGQ_COMMON_HASH_H_
#define SGQ_COMMON_HASH_H_

#include <cstddef>
#include <functional>
#include <utility>

namespace sgq {

/// \brief Mixes `value` into `seed` (boost::hash_combine construction).
inline void HashCombine(std::size_t* seed, std::size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

/// \brief Hashes a pair of hashable values; used for (vertex, state) keys.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const {
    std::size_t seed = std::hash<A>{}(p.first);
    HashCombine(&seed, std::hash<B>{}(p.second));
    return seed;
  }
};

}  // namespace sgq

#endif  // SGQ_COMMON_HASH_H_
