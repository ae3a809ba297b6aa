#ifndef OPDELTA_COMMON_CODING_H_
#define OPDELTA_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace opdelta {

// Little-endian fixed-width and varint encoders used by the row codec, the
// WAL, and the export file format. All Get* functions return false on
// truncated input instead of reading out of bounds.

inline void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  std::memcpy(buf, &v, 2);
  dst->append(buf, 2);
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

/// Writes v over the 4 bytes at dst, as PutFixed32 would append them.
inline void EncodeFixed32(char* dst, uint32_t v) { std::memcpy(dst, &v, 4); }

inline uint16_t DecodeFixed16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

[[nodiscard]] inline bool GetFixed16(Slice* input, uint16_t* v) {
  if (input->size() < 2) return false;
  *v = DecodeFixed16(input->data());
  input->remove_prefix(2);
  return true;
}

[[nodiscard]] inline bool GetFixed32(Slice* input, uint32_t* v) {
  if (input->size() < 4) return false;
  *v = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

[[nodiscard]] inline bool GetFixed64(Slice* input, uint64_t* v) {
  if (input->size() < 8) return false;
  *v = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);
[[nodiscard]] bool GetVarint32(Slice* input, uint32_t* v);
[[nodiscard]] bool GetVarint64(Slice* input, uint64_t* v);

/// Length-prefixed byte string.
inline void PutLengthPrefixed(std::string* dst, Slice value) {
  PutVarint32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

[[nodiscard]] inline bool GetLengthPrefixed(Slice* input, Slice* result) {
  uint32_t len = 0;
  if (!GetVarint32(input, &len)) return false;
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->remove_prefix(len);
  return true;
}

/// Zig-zag encoding for signed varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutVarint64Signed(std::string* dst, int64_t v) {
  PutVarint64(dst, ZigZagEncode(v));
}

[[nodiscard]] inline bool GetVarint64Signed(Slice* input, int64_t* v) {
  uint64_t u = 0;
  if (!GetVarint64(input, &u)) return false;
  *v = ZigZagDecode(u);
  return true;
}

}  // namespace opdelta

#endif  // OPDELTA_COMMON_CODING_H_
