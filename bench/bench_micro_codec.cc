// Micro-benchmarks of the compression substrate on representative bitmap
// payloads: BS bitmaps of uniform data (hard), CS row-major range-encoded
// matrices (periodic, LZ-friendly), and sparse bitmaps (RLE-friendly).
// BM_WahBlobFetch splits a stored-WAH fetch into its stages.

#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "bitmap/bitvector.h"
#include "bitmap/crc32c.h"
#include "bitmap/wah_bitvector.h"
#include "compress/codec.h"
#include "compress/wah_codec.h"
#include "core/bitmap_index.h"
#include "storage/format.h"
#include "workload/generators.h"

namespace {

using bix::Codec;
using bix::CodecByName;

std::vector<uint8_t> BsBitmapPayload() {
  // One range-encoded bitmap of a uniform C = 50 column: ~50% density.
  std::vector<uint32_t> column = bix::GenerateUniform(200000, 50, 1);
  bix::BitmapIndex index = bix::BitmapIndex::Build(
      column, 50, bix::BaseSequence::SingleComponent(50),
      bix::Encoding::kRange);
  return index.component(0).stored(24).ToBytes();
}

std::vector<uint8_t> SparsePayload() {
  std::vector<uint8_t> data(200000 / 8, 0);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 500; ++i) data[rng() % data.size()] |= 1;
  return data;
}

void RunCompress(benchmark::State& state, const Codec& codec,
                 const std::vector<uint8_t>& data) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Compress(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  state.counters["ratio"] = static_cast<double>(codec.Compress(data).size()) /
                            static_cast<double>(data.size());
}

void RunDecompress(benchmark::State& state, const Codec& codec,
                   const std::vector<uint8_t>& data) {
  std::vector<uint8_t> compressed = codec.Compress(data);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    codec.Decompress(compressed, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

void BM_Lz77CompressBsBitmap(benchmark::State& state) {
  RunCompress(state, *CodecByName("lz77"), BsBitmapPayload());
}
BENCHMARK(BM_Lz77CompressBsBitmap);

void BM_Lz77DecompressBsBitmap(benchmark::State& state) {
  RunDecompress(state, *CodecByName("lz77"), BsBitmapPayload());
}
BENCHMARK(BM_Lz77DecompressBsBitmap);

void BM_Lz77CompressSparse(benchmark::State& state) {
  RunCompress(state, *CodecByName("lz77"), SparsePayload());
}
BENCHMARK(BM_Lz77CompressSparse);

void BM_RleCompressSparse(benchmark::State& state) {
  RunCompress(state, *CodecByName("rle"), SparsePayload());
}
BENCHMARK(BM_RleCompressSparse);

void BM_RleDecompressSparse(benchmark::State& state) {
  RunDecompress(state, *CodecByName("rle"), SparsePayload());
}
BENCHMARK(BM_RleDecompressSparse);

// The stages of a stored-WAH operand fetch after the read, on the blob
// image of a 2^20-bit bitmap of density 1/51 (a noisy sorted-column slice:
// about half its 31-bit groups are literals, and the image is ~96 KB):
//  * verify_decode: whole-file CRC (as the manifest records it), header and
//    block CRCs in one pass (format::DecodeBlobView), then
//    WahCodec::DecodeToWah, which copies the code words once and validates
//    them;
//  * inflate: WahBitvector::ToBitvector, the dense engine's extra step.
void BM_WahBlobFetch(benchmark::State& state, bool inflate) {
  const size_t kBits = size_t{1} << 20;
  bix::Bitvector bits(kBits);
  std::mt19937_64 rng(51);
  for (size_t i = 0; i < kBits; ++i) {
    if (rng() % 51 == 0) bits.Set(i);
  }
  const std::vector<uint8_t> image = bix::format::EncodeBlobFile(
      bix::WahCodec::EncodeBits(bits), (kBits + 7) / 8);
  const uint32_t file_crc = bix::Crc32c(image.data(), image.size());
  auto verify_decode = [&](bix::WahBitvector* out) {
    bix::format::BlobView view;
    return bix::format::DecodeBlobView(image, "c0_b0.bm", file_crc, &view)
               .ok() &&
           bix::WahCodec::DecodeToWah(view.payload, out);
  };
  bix::WahBitvector wah;
  if (!verify_decode(&wah)) {
    state.SkipWithError("blob image does not verify");
    return;
  }
  for (auto _ : state) {
    if (inflate) {
      benchmark::DoNotOptimize(wah.ToBitvector());
    } else {
      benchmark::DoNotOptimize(verify_decode(&wah));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
  state.counters["image_bytes"] = static_cast<double>(image.size());
}
BENCHMARK_CAPTURE(BM_WahBlobFetch, verify_decode, false);
BENCHMARK_CAPTURE(BM_WahBlobFetch, inflate, true);

}  // namespace
