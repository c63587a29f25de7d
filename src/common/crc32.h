// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check of the SGQC checkpoint format (model/checkpoint.h, DESIGN.md §7).
// Every checkpoint section carries the CRC of its payload and the file
// footer carries the CRC of everything before it, so truncation and
// bit-rot are both detected before any state is deserialized.

#ifndef SGQ_COMMON_CRC32_H_
#define SGQ_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sgq {

/// \brief CRC-32 of `len` bytes at `data`, continuing from `crc` (pass the
/// previous call's return value to checksum a buffer in pieces; the
/// pre/post conditioning composes so chunked and one-shot results match).
std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t crc = 0);

inline std::uint32_t Crc32(std::string_view bytes, std::uint32_t crc = 0) {
  return Crc32(bytes.data(), bytes.size(), crc);
}

/// \brief CRC-32 of the concatenation A·B from `crc_a` = Crc32(A),
/// `crc_b` = Crc32(B) and `len_b` = |B|, in O(log len_b) — without the
/// bytes. The streaming checkpoint writer builds its whole-file CRC from
/// per-frame CRCs this way, so no byte is checksummed twice.
std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b);

}  // namespace sgq

#endif  // SGQ_COMMON_CRC32_H_
