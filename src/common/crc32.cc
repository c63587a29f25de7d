#include "common/crc32.h"

#include <array>

namespace sgq {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Table generated at first use from the reflected polynomial; byte-at-a-
// time is plenty for checkpoint-sized payloads (the write path is
// dominated by serialization and fsync, not the checksum).
std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

// Polynomials over GF(2) in the reflected bit order of the CRC: bit 31 is
// x^0, bit 30 is x^1, …

/// a·b modulo the CRC polynomial.
std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;  // b·x
  }
  return product;
}

/// x^(2^k) modulo the CRC polynomial, k = 0..31 (repeated squaring).
std::array<std::uint32_t, 32> MakeX2nTable() {
  std::array<std::uint32_t, 32> table{};
  std::uint32_t p = 1u << 30;  // x^1
  for (std::uint32_t& entry : table) {
    entry = p;
    p = MultModP(p, p);
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> kTable = MakeTable();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b) {
  // Appending len_b bytes multiplies A's (unconditioned) remainder by
  // x^(8·len_b); the pre/post conditioning of both halves cancels, so the
  // result is crc_a·x^(8·len_b) ⊕ crc_b.
  static const std::array<std::uint32_t, 32> kX2n = MakeX2nTable();
  std::uint32_t shift = 1u << 31;  // x^0
  std::size_t k = 3;               // 8·len_b = len_b·2^3
  for (std::uint64_t n = len_b; n != 0; n >>= 1, ++k) {
    if (n & 1) shift = MultModP(kX2n[k & 31], shift);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

}  // namespace sgq
