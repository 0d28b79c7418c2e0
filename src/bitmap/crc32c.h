// CRC32C (Castagnoli, polynomial 0x1EDC6F41) checksums for the storage
// layer's fault-detection format (storage/format.h).
//
// CRC32C is chosen over CRC32 (zlib's polynomial) because commodity x86
// CPUs compute it in hardware: the SSE4.2 CRC32 instruction folds 8 bytes
// per cycle-ish, so checksumming a 4 KiB block costs well under the time
// the block took to read.  The implementation dispatches once per process
// to the hardware path when the CPU supports SSE4.2 and otherwise to a
// portable slicing-by-8 table kernel with identical output.
//
// Values are "masked-free": Crc32c returns the standard CRC32C of the
// bytes (init 0xFFFFFFFF, final xor 0xFFFFFFFF), so test vectors from RFC
// 3720 apply directly (e.g. Crc32c("123456789") == 0xE3069283).

#ifndef BIX_BITMAP_CRC32C_H_
#define BIX_BITMAP_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bix {

/// CRC32C of `n` bytes at `data`.
uint32_t Crc32c(const void* data, size_t n);

/// Streaming form: extends `crc` (a previous Crc32c/Crc32cExtend result;
/// use 0 to start) with `n` more bytes.  Crc32cExtend(0, d, n) == Crc32c(d, n)
/// and chaining over a split buffer equals the one-shot checksum.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// Two-chain form: extends `*a` and `*b` (each a previous Crc32c result, or
/// 0 to start) with the same `n` bytes in one pass.  Each 8-byte load feeds
/// both chains, and the hardware kernel runs them as independent dependency
/// chains, so the pair costs about one pass: the storage layer checks a
/// file's whole-file CRC and its block CRCs this way.  Equivalent to
/// `*a = Crc32cExtend(*a, data, n); *b = Crc32cExtend(*b, data, n);`.
void Crc32cExtend2(uint32_t* a, uint32_t* b, const void* data, size_t n);

namespace crc32c_internal {

/// True when the SSE4.2 hardware kernel is in use on this CPU.
bool HardwareAvailable();

/// The two kernels, exposed so tests can cross-check them on every seam
/// length.  Both take and return the *inverted* running state.
uint32_t PortableUpdate(uint32_t state, const uint8_t* data, size_t n);
uint32_t HardwareUpdate(uint32_t state, const uint8_t* data, size_t n);

/// The hardware two-chain kernel behind Crc32cExtend2, on inverted states
/// (the portable path runs PortableUpdate once per chain).
void HardwareUpdate2(uint32_t* a, uint32_t* b, const uint8_t* data, size_t n);

}  // namespace crc32c_internal

}  // namespace bix

#endif  // BIX_BITMAP_CRC32C_H_
