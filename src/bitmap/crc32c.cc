#include "bitmap/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <nmmintrin.h>
#define BIX_CRC32C_HAVE_SSE42 1
#endif

namespace bix {

namespace crc32c_internal {

namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial, built once
// at first use.  Table 0 is the classic byte-at-a-time table; table k maps
// a byte processed k positions earlier.
constexpr uint32_t kPolyReflected = 0x82F63B78u;

struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPolyReflected : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

}  // namespace

uint32_t PortableUpdate(uint32_t state, const uint8_t* data, size_t n) {
  const Tables& tab = GetTables();
  while (n >= 8) {
    uint32_t low = state ^ (static_cast<uint32_t>(data[0]) |
                            static_cast<uint32_t>(data[1]) << 8 |
                            static_cast<uint32_t>(data[2]) << 16 |
                            static_cast<uint32_t>(data[3]) << 24);
    state = tab.t[7][low & 0xFF] ^ tab.t[6][(low >> 8) & 0xFF] ^
            tab.t[5][(low >> 16) & 0xFF] ^ tab.t[4][low >> 24] ^
            tab.t[3][data[4]] ^ tab.t[2][data[5]] ^ tab.t[1][data[6]] ^
            tab.t[0][data[7]];
    data += 8;
    n -= 8;
  }
  while (n-- > 0) {
    state = tab.t[0][(state ^ *data++) & 0xFF] ^ (state >> 8);
  }
  return state;
}

#if defined(BIX_CRC32C_HAVE_SSE42)

__attribute__((target("sse4.2"))) uint32_t HardwareUpdate(uint32_t state,
                                                          const uint8_t* data,
                                                          size_t n) {
  // Align to 8 bytes, then fold 8 bytes per instruction.
  while (n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    state = _mm_crc32_u8(state, *data++);
    --n;
  }
  uint64_t state64 = state;
  while (n >= 8) {
    state64 = _mm_crc32_u64(state64,
                            *reinterpret_cast<const uint64_t*>(data));
    data += 8;
    n -= 8;
  }
  state = static_cast<uint32_t>(state64);
  while (n-- > 0) {
    state = _mm_crc32_u8(state, *data++);
  }
  return state;
}

__attribute__((target("sse4.2"))) void HardwareUpdate2(uint32_t* a,
                                                       uint32_t* b,
                                                       const uint8_t* data,
                                                       size_t n) {
  // The CRC32 instruction has a multi-cycle latency but single-cycle
  // throughput, so a second independent chain over the same loads runs in
  // the first one's shadow.
  uint32_t sa = *a;
  uint32_t sb = *b;
  while (n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    sa = _mm_crc32_u8(sa, *data);
    sb = _mm_crc32_u8(sb, *data++);
    --n;
  }
  uint64_t a64 = sa;
  uint64_t b64 = sb;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, data, 8);
    a64 = _mm_crc32_u64(a64, word);
    b64 = _mm_crc32_u64(b64, word);
    data += 8;
    n -= 8;
  }
  sa = static_cast<uint32_t>(a64);
  sb = static_cast<uint32_t>(b64);
  while (n-- > 0) {
    sa = _mm_crc32_u8(sa, *data);
    sb = _mm_crc32_u8(sb, *data++);
  }
  *a = sa;
  *b = sb;
}

bool HardwareAvailable() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

#else  // !BIX_CRC32C_HAVE_SSE42

uint32_t HardwareUpdate(uint32_t state, const uint8_t* data, size_t n) {
  return PortableUpdate(state, data, n);
}

void HardwareUpdate2(uint32_t* a, uint32_t* b, const uint8_t* data,
                     size_t n) {
  *a = PortableUpdate(*a, data, n);
  *b = PortableUpdate(*b, data, n);
}

bool HardwareAvailable() { return false; }

#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t state = crc ^ 0xFFFFFFFFu;
  state = crc32c_internal::HardwareAvailable()
              ? crc32c_internal::HardwareUpdate(state, bytes, n)
              : crc32c_internal::PortableUpdate(state, bytes, n);
  return state ^ 0xFFFFFFFFu;
}

void Crc32cExtend2(uint32_t* a, uint32_t* b, const void* data, size_t n) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t sa = *a ^ 0xFFFFFFFFu;
  uint32_t sb = *b ^ 0xFFFFFFFFu;
  if (crc32c_internal::HardwareAvailable()) {
    crc32c_internal::HardwareUpdate2(&sa, &sb, bytes, n);
  } else {
    sa = crc32c_internal::PortableUpdate(sa, bytes, n);
    sb = crc32c_internal::PortableUpdate(sb, bytes, n);
  }
  *a = sa ^ 0xFFFFFFFFu;
  *b = sb ^ 0xFFFFFFFFu;
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace bix
