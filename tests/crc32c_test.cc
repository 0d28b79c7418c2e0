// CRC32C: published vectors, kernel cross-checks on every seam length (one
// chain and two), and streaming/one-shot equivalence.

#include "bitmap/crc32c.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace bix {
namespace {

uint32_t CrcOf(const std::string& s) { return Crc32c(s.data(), s.size()); }

TEST(Crc32cTest, Rfc3720Vectors) {
  // The check value every CRC32C implementation must reproduce.
  EXPECT_EQ(CrcOf("123456789"), 0xE3069283u);
  // iSCSI test patterns (RFC 3720 B.4).
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < 32; ++i) descending[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(Crc32c(descending.data(), descending.size()), 0x113FDB5Cu);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0x12345678u, nullptr, 0), 0x12345678u);
}

TEST(Crc32cTest, KernelsAgreeOnEverySeamLength) {
  // The hardware kernel has head/body/tail seams at 8-byte alignment; the
  // portable kernel at 8-byte strides.  Exercise every length 0..64 at
  // every starting alignment 0..7 and require identical inverted states.
  std::vector<uint8_t> buf(64 + 8);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2; portable kernel is the only implementation";
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      uint32_t p = crc32c_internal::PortableUpdate(~0u, buf.data() + align, len);
      uint32_t h = crc32c_internal::HardwareUpdate(~0u, buf.data() + align, len);
      ASSERT_EQ(p, h) << "align=" << align << " len=" << len;
    }
  }
}

TEST(Crc32cTest, TwoChainKernelsAgreeOverLengthsAndAlignments) {
  // The two-chain kernel has its own head/body/tail seams; cross-check it
  // against two portable single-chain passes at every alignment, over short
  // lengths and a few block-sized ones, with distinct starting states.  The
  // public form must equal two single-chain extends on either kernel.
  std::vector<uint8_t> buf(2 * 4096 + 64);
  uint64_t x = 0xD1B54A32D192ED03ull;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 64; ++len) lengths.push_back(len);
  for (size_t len : {size_t{255}, size_t{4095}, size_t{4096}, size_t{4097},
                     size_t{2 * 4096 + 17}}) {
    lengths.push_back(len);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len : lengths) {
      const uint8_t* data = buf.data() + align;
      const uint32_t want_a = crc32c_internal::PortableUpdate(~0u, data, len);
      const uint32_t want_b =
          crc32c_internal::PortableUpdate(0x1234ABCDu, data, len);
      if (crc32c_internal::HardwareAvailable()) {
        uint32_t ha = ~0u, hb = 0x1234ABCDu;
        crc32c_internal::HardwareUpdate2(&ha, &hb, data, len);
        ASSERT_EQ(ha, want_a) << "align=" << align << " len=" << len;
        ASSERT_EQ(hb, want_b) << "align=" << align << " len=" << len;
      }
      // The public form equals two single-chain extends.
      uint32_t a = 0x0BADF00Du, b = 0;
      Crc32cExtend2(&a, &b, data, len);
      ASSERT_EQ(a, Crc32cExtend(0x0BADF00Du, data, len));
      ASSERT_EQ(b, Crc32c(data, len));
    }
  }
}

TEST(Crc32cTest, ExtendChainsEqualOneShot) {
  std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789 the quick";
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t part = Crc32c(data.data(), split);
    uint32_t chained = Crc32cExtend(part, data.data() + split,
                                    data.size() - split);
    ASSERT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  std::vector<uint8_t> buf(257, 0xA5);
  uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t byte : {size_t{0}, size_t{1}, size_t{128}, size_t{256}}) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32c(buf.data(), buf.size()), base)
          << "byte=" << byte << " bit=" << bit;
      buf[byte] ^= static_cast<uint8_t>(1 << bit);
    }
  }
}

}  // namespace
}  // namespace bix
