#include "compress/wah_codec.h"

#include <cstring>
#include <utility>

namespace bix {

namespace {

std::vector<uint8_t> EncodeWah(const WahBitvector& wah) {
  const std::vector<uint32_t>& words = wah.code_words();
  std::vector<uint8_t> out(8 + words.size() * 4);
  uint64_t num_bits = wah.size();
  std::memcpy(out.data(), &num_bits, 8);
  if (!words.empty()) {
    std::memcpy(out.data() + 8, words.data(), words.size() * 4);
  }
  return out;
}

}  // namespace

std::vector<uint8_t> WahCodec::EncodeBits(const Bitvector& bits) {
  return EncodeWah(WahBitvector::FromBitvector(bits));
}

bool WahCodec::DecodeToWah(std::span<const uint8_t> payload,
                           WahBitvector* out) {
  if (payload.size() < 8 || (payload.size() - 8) % 4 != 0) return false;
  uint64_t num_bits = 0;
  std::memcpy(&num_bits, payload.data(), 8);
  std::vector<uint32_t> words((payload.size() - 8) / 4);
  if (!words.empty()) {
    std::memcpy(words.data(), payload.data() + 8, words.size() * 4);
  }
  return WahBitvector::TryFromCodeWords(std::move(words),
                                        static_cast<size_t>(num_bits), out);
}

std::vector<uint8_t> WahCodec::Compress(std::span<const uint8_t> data) const {
  return EncodeWah(WahBitvector::FromBitvector(
      Bitvector::FromBytes(data, data.size() * 8)));
}

bool WahCodec::Decompress(std::span<const uint8_t> data,
                          std::vector<uint8_t>* out) const {
  WahBitvector wah;
  if (!DecodeToWah(data, &wah)) return false;
  *out = wah.ToBitvector().ToBytes();
  return true;
}

}  // namespace bix
