// Row-reordering preprocessing for run-length-friendly bitmap indexes.
//
// Word-aligned compression multiplies when rows with equal (or Gray-
// adjacent) values sit next to each other: sorting the relation before the
// build turns each bitmap's scattered bits into a handful of runs
// ("Sorting improves word-aligned bitmap indexes", arXiv 0901.3751;
// "Histogram-Aware Sorting for Enhanced Word-Aligned Compression",
// arXiv 0808.2083).  The index is built over the *permuted* rows, and the
// permutation travels with it so every query still surfaces original row
// ids.
//
// Permutation convention, used everywhere in this codebase:
//   perm[physical] = logical
// i.e. bitmap position p (the "physical" row) holds the record the caller
// knows as row perm[p].  An empty permutation means identity (unsorted).
// Rows past the permutation's length map to themselves — that is how the
// mutable index's append tail works: appended rows land physically at the
// end under an identity-extended permutation until a compaction re-sorts.
//
// Space discipline (the row-identity contract):
//   * bitmaps, foundsets fetched from them, and tombstone masks live in
//     PHYSICAL space;
//   * everything user-visible — query results, aggregate foundset inputs
//     paired with an unsorted index, row ids passed to Delete — lives in
//     LOGICAL space;
//   * RemapToLogical / RemapToPhysical cross between the two.

#ifndef BIX_CORE_ROW_ORDER_H_
#define BIX_CORE_ROW_ORDER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "bitmap/bitvector.h"
#include "core/base_sequence.h"
#include "core/bitmap_source.h"
#include "core/status.h"

namespace bix {

enum class RowOrder {
  kNone,  // insertion order (identity permutation)
  kLex,   // lexicographic by value rank, NULLs last
  kGray,  // reflected mixed-radix Gray order over the component digits
};

std::string_view ToString(RowOrder order);
bool ParseRowOrder(std::string_view name, RowOrder* out);

/// Computes the sort permutation for one column of value ranks (kNullValue
/// allowed; NULLs sort last).  Returns perm with perm[physical] = logical;
/// empty for kNone.  The sort is stable, so equal keys keep insertion
/// order and the result is deterministic.
///
/// kLex orders by the rank itself.  kGray decomposes each rank into the
/// base sequence's digits (most-significant first) and orders by the
/// reflected mixed-radix Gray code: whenever the prefix parity is odd the
/// next digit's direction flips, so consecutive rows differ in few digits
/// and every component's bitmaps — not just the most significant one —
/// see long runs.
std::vector<uint32_t> ComputeRowOrder(std::span<const uint32_t> values,
                                      uint32_t cardinality,
                                      const BaseSequence& base,
                                      RowOrder order);

/// One attribute participating in a multi-column sort.
struct OrderColumn {
  std::span<const uint32_t> values;  // ranks in [0, cardinality) or kNullValue
  uint32_t cardinality = 0;
};

/// Histogram-aware column ordering (arXiv 0808.2083 heuristic): columns
/// with fewer distinct values first — their runs survive the longest under
/// a lexicographic sort — breaking ties toward the more skewed histogram
/// (larger top-1 frequency), then input position.  Returns column indices
/// in comparison order.
std::vector<size_t> HistogramColumnOrder(std::span<const OrderColumn> columns);

/// Multi-attribute sort permutation: compares rows column by column in
/// HistogramColumnOrder, each column's rank acting as one mixed-radix
/// digit (kGray applies the reflected-parity rule across columns).  All
/// columns must have equal length.
std::vector<uint32_t> ComputeMultiColumnRowOrder(
    std::span<const OrderColumn> columns, RowOrder order);

/// True when perm is empty or maps every position to itself.
bool IsIdentityPermutation(std::span<const uint32_t> perm);

/// inverse[logical] = physical, the left/right inverse of perm.
std::vector<uint32_t> InvertPermutation(std::span<const uint32_t> perm);

/// permuted[p] = values[perm[p]] — the column in physical (build) order.
std::vector<uint32_t> ApplyPermutation(std::span<const uint32_t> values,
                                       std::span<const uint32_t> perm);

/// Remaps a physical-space bitvector (a foundset fetched or evaluated over
/// the permuted bitmaps) into logical row ids: out[perm[p]] = in[p].
/// Positions at or past perm.size() map to themselves (the identity-
/// extended append tail).  perm empty returns the input unchanged.
/// perm must be a permutation of [0, perm.size()) no longer than
/// `physical` (ComputeRowOrder builds one; the sidecar decoder rejects
/// anything else); the remap then scatters min(popcount, n - popcount)
/// bits.
Bitvector RemapToLogical(const Bitvector& physical,
                         std::span<const uint32_t> perm);

/// The inverse direction: out[p] = in[perm[p]].  Use to feed a logical
/// foundset to physical-space consumers (e.g. the bit-sliced aggregates
/// over a sorted index).
Bitvector RemapToPhysical(const Bitvector& logical,
                          std::span<const uint32_t> perm);

/// Reads the value column back out of an index's stored bitmaps, in the
/// source's own (physical) row order; rows off the non-null bitmap come
/// back as kNullValue.  This is compaction's re-sort reader: the mutable
/// index has no base relation to consult, but the bitmaps are a lossless
/// encoding of the rank column under both encodings.  Returns Corruption
/// when the bitmaps are not a consistent encoding (e.g. a non-null row
/// with no equality slice set).
Status DecodeIndexValues(const BitmapSource& source,
                         std::vector<uint32_t>* values);

}  // namespace bix

#endif  // BIX_CORE_ROW_ORDER_H_
