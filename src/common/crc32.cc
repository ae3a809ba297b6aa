#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace opdelta {

namespace {

// Table-driven CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
struct CrcTable {
  uint32_t table[256];
  CrcTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      table[i] = crc;
    }
  }
};

const CrcTable& GetTable() {
  static const CrcTable* t = new CrcTable();
  return *t;
}

uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n) {
  const CrcTable& t = GetTable();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = t.table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return ~crc;
}

bool HasSse42() {
#if defined(__x86_64__)
  // cpu_init first: the first checksum may run from a static initialiser.
  static const bool sse42 =
      (__builtin_cpu_init(), __builtin_cpu_supports("sse4.2") != 0);
  return sse42;
#else
  return false;
#endif
}

#if defined(__x86_64__)
// SSE4.2's crc32 instruction, 8 bytes at a time. Compiled for SSE4.2 alone
// and called only on CPUs that report it, so the binary runs on any x86-64.
__attribute__((target("sse4.2")))
uint32_t ExtendSse42(uint32_t crc, const char* data, size_t n) {
  uint64_t c = ~crc;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, static_cast<uint8_t>(*data++));
  return ~c32;
}
#endif

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
#if defined(__x86_64__)
  if (HasSse42()) return ExtendSse42(crc, data, n);
#endif
  return ExtendPortable(crc, data, n);
}

uint32_t Crc32c(const char* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

uint32_t Crc32cExtendPortableForTesting(uint32_t crc, const char* data,
                                        size_t n) {
  return ExtendPortable(crc, data, n);
}

bool Crc32cUsesHardwareForTesting() { return HasSse42(); }

}  // namespace opdelta
