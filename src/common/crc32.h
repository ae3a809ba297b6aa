#ifndef OPDELTA_COMMON_CRC32_H_
#define OPDELTA_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace opdelta {

/// CRC-32C (Castagnoli) protecting WAL records, queue records, batch frames,
/// export files and snapshot dumps against torn writes and corruption. Uses
/// the CPU's `crc32` instruction (SSE4.2) when it has one, else a table.
uint32_t Crc32c(const char* data, size_t n);

/// Extends a running CRC with more data.
uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n);

/// Test hooks: the table path, and whether this CPU runs the crc32 path.
uint32_t Crc32cExtendPortableForTesting(uint32_t crc, const char* data,
                                        size_t n);
bool Crc32cUsesHardwareForTesting();

}  // namespace opdelta

#endif  // OPDELTA_COMMON_CRC32_H_
