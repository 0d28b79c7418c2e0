// In-memory WAH-compressed bitmap index source.
//
// Holds every stored bitmap of an index in WAH-compressed form and serves
// the shared evaluation algorithms by inflating per fetch — the in-memory
// analogue of the paper's cBS scheme, and the stepping stone to fully
// compressed execution (see bitmap/wah_bitvector.h).  Memory footprint
// shrinks by the bitmaps' compressibility while queries keep working
// unchanged.

#ifndef BIX_CORE_COMPRESSED_SOURCE_H_
#define BIX_CORE_COMPRESSED_SOURCE_H_

#include <cstdint>
#include <vector>

#include "bitmap/wah_bitvector.h"
#include "core/bitmap_index.h"
#include "core/bitmap_source.h"

namespace bix {

class WahCompressedSource final : public BitmapSource {
 public:
  /// Compresses every stored bitmap of `index` (the index itself is no
  /// longer needed afterwards).
  explicit WahCompressedSource(const BitmapIndex& index);

  // BitmapSource:
  const BaseSequence& base() const override { return base_; }
  Encoding encoding() const override { return encoding_; }
  size_t num_records() const override { return non_null_.size(); }
  uint32_t cardinality() const override { return cardinality_; }
  const Bitvector& non_null() const override { return non_null_; }
  Bitvector Fetch(int component, uint32_t slot,
                  EvalStats* stats) const override;
  /// Zero-decode fetch for the compressed-domain engine: hands out the
  /// stored WAH bitmap itself, counting the same one bitmap scan as Fetch.
  const WahBitvector* FetchWah(int component, uint32_t slot,
                               EvalStats* stats) const override;
  const WahBitvector* NonNullWah() const override { return &non_null_wah_; }

  /// Compressed bitmap bytes (excluding the dense non-null bitmap).
  int64_t CompressedBytes() const;
  /// Bytes the same bitmaps occupy densely.
  int64_t UncompressedBytes() const;

  /// Direct access to a compressed bitmap (for compressed-form operator
  /// pipelines that bypass the dense evaluation path).
  const WahBitvector& compressed(int component, uint32_t slot) const {
    return components_[static_cast<size_t>(component)]
                      [static_cast<size_t>(slot)];
  }

 private:
  uint32_t cardinality_;
  BaseSequence base_;
  Encoding encoding_;
  Bitvector non_null_;
  WahBitvector non_null_wah_;
  std::vector<std::vector<WahBitvector>> components_;
};

}  // namespace bix

#endif  // BIX_CORE_COMPRESSED_SOURCE_H_
