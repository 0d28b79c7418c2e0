#include "core/row_order.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "core/bitmap_index.h"
#include "core/check.h"

namespace bix {

namespace {

/// Reflected mixed-radix Gray comparison of two digit tuples (most-
/// significant digit first).  Odd digits flip the direction of every
/// less-significant position — the classic reflection that makes
/// neighboring tuples differ in one digit by one step.
bool GrayLess(const uint32_t* a, const uint32_t* b, size_t width) {
  bool descending = false;
  for (size_t i = 0; i < width; ++i) {
    if (a[i] != b[i]) return descending ? a[i] > b[i] : a[i] < b[i];
    if (a[i] & 1) descending = !descending;
  }
  return false;
}

}  // namespace

std::string_view ToString(RowOrder order) {
  switch (order) {
    case RowOrder::kNone: return "none";
    case RowOrder::kLex: return "lex";
    case RowOrder::kGray: return "gray";
  }
  return "?";
}

bool ParseRowOrder(std::string_view name, RowOrder* out) {
  if (name == "none") {
    *out = RowOrder::kNone;
  } else if (name == "lex") {
    *out = RowOrder::kLex;
  } else if (name == "gray") {
    *out = RowOrder::kGray;
  } else {
    return false;
  }
  return true;
}

std::vector<uint32_t> ComputeRowOrder(std::span<const uint32_t> values,
                                      uint32_t cardinality,
                                      const BaseSequence& base,
                                      RowOrder order) {
  if (order == RowOrder::kNone || values.empty()) return {};
  const size_t n = values.size();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  if (order == RowOrder::kLex) {
    std::stable_sort(perm.begin(), perm.end(),
                     [&values](uint32_t a, uint32_t b) {
                       const bool a_null = values[a] == kNullValue;
                       const bool b_null = values[b] == kNullValue;
                       if (a_null != b_null) return b_null;  // NULLs last
                       if (a_null) return false;
                       return values[a] < values[b];
                     });
    return perm;
  }

  // kGray: order by the digit tuple the index will actually store, most-
  // significant component first, so run formation reaches every component.
  const size_t width = static_cast<size_t>(base.num_components());
  std::vector<uint32_t> digits(n * width, 0);
  std::vector<uint32_t> scratch;
  for (size_t r = 0; r < n; ++r) {
    if (values[r] == kNullValue) continue;
    BIX_CHECK_MSG(values[r] < cardinality, "value rank out of range");
    base.Decompose(values[r], &scratch);  // least-significant first
    for (size_t i = 0; i < width; ++i) {
      digits[r * width + i] = scratch[width - 1 - i];
    }
  }
  std::stable_sort(perm.begin(), perm.end(),
                   [&](uint32_t a, uint32_t b) {
                     const bool a_null = values[a] == kNullValue;
                     const bool b_null = values[b] == kNullValue;
                     if (a_null != b_null) return b_null;
                     if (a_null) return false;
                     return GrayLess(&digits[a * width], &digits[b * width],
                                     width);
                   });
  return perm;
}

std::vector<size_t> HistogramColumnOrder(
    std::span<const OrderColumn> columns) {
  struct ColumnStat {
    size_t index = 0;
    size_t distinct = 0;
    size_t top = 0;  // largest bucket (histogram skew proxy)
  };
  std::vector<ColumnStat> stats;
  stats.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    const OrderColumn& col = columns[i];
    // Bucket cardinality holds the NULLs.
    std::vector<size_t> counts(static_cast<size_t>(col.cardinality) + 1, 0);
    for (uint32_t v : col.values) {
      const size_t bucket =
          v == kNullValue ? col.cardinality : static_cast<size_t>(v);
      BIX_CHECK_MSG(bucket <= col.cardinality, "value rank out of range");
      ++counts[bucket];
    }
    ColumnStat s;
    s.index = i;
    for (size_t c : counts) {
      if (c > 0) ++s.distinct;
      s.top = std::max(s.top, c);
    }
    stats.push_back(s);
  }
  std::stable_sort(stats.begin(), stats.end(),
                   [](const ColumnStat& a, const ColumnStat& b) {
                     if (a.distinct != b.distinct) {
                       return a.distinct < b.distinct;
                     }
                     return a.top > b.top;
                   });
  std::vector<size_t> order;
  order.reserve(stats.size());
  for (const ColumnStat& s : stats) order.push_back(s.index);
  return order;
}

std::vector<uint32_t> ComputeMultiColumnRowOrder(
    std::span<const OrderColumn> columns, RowOrder order) {
  if (order == RowOrder::kNone || columns.empty() ||
      columns[0].values.empty()) {
    return {};
  }
  const size_t n = columns[0].values.size();
  for (const OrderColumn& col : columns) {
    BIX_CHECK_MSG(col.values.size() == n, "column lengths differ");
  }
  const std::vector<size_t> col_order = HistogramColumnOrder(columns);

  // Each column contributes one mixed-radix digit; NULL sorts as one past
  // the largest rank so it lands last within its column position.
  const size_t width = columns.size();
  std::vector<uint32_t> digits(n * width);
  for (size_t i = 0; i < width; ++i) {
    const OrderColumn& col = columns[col_order[i]];
    for (size_t r = 0; r < n; ++r) {
      digits[r * width + i] =
          col.values[r] == kNullValue ? col.cardinality : col.values[r];
    }
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (order == RowOrder::kLex) {
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(
          &digits[a * width], &digits[a * width] + width, &digits[b * width],
          &digits[b * width] + width);
    });
  } else {
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      return GrayLess(&digits[a * width], &digits[b * width], width);
    });
  }
  return perm;
}

bool IsIdentityPermutation(std::span<const uint32_t> perm) {
  for (size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != i) return false;
  }
  return true;
}

std::vector<uint32_t> InvertPermutation(std::span<const uint32_t> perm) {
  std::vector<uint32_t> inverse(perm.size());
  for (size_t p = 0; p < perm.size(); ++p) {
    BIX_CHECK_MSG(perm[p] < perm.size(), "not a permutation");
    inverse[perm[p]] = static_cast<uint32_t>(p);
  }
  return inverse;
}

std::vector<uint32_t> ApplyPermutation(std::span<const uint32_t> values,
                                       std::span<const uint32_t> perm) {
  if (perm.empty()) return std::vector<uint32_t>(values.begin(), values.end());
  BIX_CHECK(perm.size() == values.size());
  std::vector<uint32_t> permuted(values.size());
  for (size_t p = 0; p < perm.size(); ++p) permuted[p] = values[perm[p]];
  return permuted;
}

Bitvector RemapToLogical(const Bitvector& physical,
                         std::span<const uint32_t> perm) {
  if (perm.empty()) return physical;
  const size_t n = physical.size();
  BIX_CHECK(perm.size() <= n);
  // perm is a bijection on [0, perm.size()) and the tail maps to itself,
  // so the zero bits land exactly on the complement of where the set bits
  // land.  Start from whichever answer is nearer (all zeros, or all ones
  // when most bits are set) and toggle the images of the minority bits:
  // min(|F|, n - |F|) scattered writes instead of |F|.  A full word reads
  // its 64 images straight from perm rather than peeling bits one by one.
  const size_t set = physical.Count();
  const bool complement = set > n - set;
  Bitvector logical(n, complement);
  std::span<uint64_t> out = logical.mutable_words();
  std::span<const uint64_t> in = physical.words();
  const uint64_t flip = complement ? ~uint64_t{0} : 0;
  const size_t tail = n & 63;
  for (size_t w = 0; w < in.size(); ++w) {
    uint64_t bits = in[w] ^ flip;
    if (w + 1 == in.size() && tail != 0) bits &= (uint64_t{1} << tail) - 1;
    if (bits == 0) continue;
    const size_t base = w << 6;
    if (bits == ~uint64_t{0} && base + 64 <= perm.size()) {
      const uint32_t* images = perm.data() + base;
      for (size_t i = 0; i < 64; ++i) {
        out[images[i] >> 6] ^= uint64_t{1} << (images[i] & 63);
      }
    } else {
      do {
        const size_t p = base + static_cast<size_t>(__builtin_ctzll(bits));
        const size_t l = p < perm.size() ? perm[p] : p;
        out[l >> 6] ^= uint64_t{1} << (l & 63);
        bits &= bits - 1;
      } while (bits != 0);
    }
  }
  return logical;
}

Bitvector RemapToPhysical(const Bitvector& logical,
                          std::span<const uint32_t> perm) {
  if (perm.empty()) return logical;
  Bitvector physical = Bitvector::Zeros(logical.size());
  for (size_t p = 0; p < physical.size(); ++p) {
    const size_t l = p < perm.size() ? perm[p] : p;
    if (logical.Get(l)) physical.Set(p);
  }
  return physical;
}

Status DecodeIndexValues(const BitmapSource& source,
                         std::vector<uint32_t>* values) {
  const size_t n = source.num_records();
  const BaseSequence& base = source.base();
  const Encoding encoding = source.encoding();
  const Bitvector& non_null = source.non_null();

  std::vector<uint64_t> acc(n, 0);
  uint64_t weight = 1;
  // Fetch through the view when the source offers one; `held` keeps a
  // fetched copy alive otherwise.
  Bitvector held;
  auto fetch = [&](int c, uint32_t slot) -> const Bitvector* {
    const Bitvector* view = source.FetchView(c, slot, nullptr);
    if (view == nullptr) {
      held = source.Fetch(c, slot, nullptr);
      view = &held;
    }
    return view;
  };

  std::vector<uint8_t> digit_known(n, 0);
  std::vector<uint32_t> digit(n, 0);
  for (int c = 0; c < base.num_components(); ++c) {
    const uint32_t b = base.base(c);
    const uint32_t stored = NumStoredBitmaps(encoding, b);
    std::fill(digit_known.begin(), digit_known.end(), 0);
    std::fill(digit.begin(), digit.end(), 0);

    if (encoding == Encoding::kEquality && b == 2) {
      // One stored slice, E^1; digit 0 is its complement over non-null.
      fetch(c, 0)->ForEachSetBit([&](size_t r) { digit[r] = 1; });
      for (size_t r = 0; r < n; ++r) digit_known[r] = 1;
    } else if (encoding == Encoding::kEquality) {
      Status s = Status::OK();
      for (uint32_t j = 0; j < stored && s.ok(); ++j) {
        fetch(c, j)->ForEachSetBit([&](size_t r) {
          if (digit_known[r]) {
            s = Status::Corruption(
                "row " + std::to_string(r) + " sets two equality slices of "
                "component " + std::to_string(c));
            return;
          }
          digit_known[r] = 1;
          digit[r] = j;
        });
      }
      if (!s.ok()) return s;
      for (size_t r = 0; r < n; ++r) {
        if (non_null.Get(r) && !digit_known[r]) {
          return Status::Corruption(
              "non-null row " + std::to_string(r) +
              " sets no equality slice of component " + std::to_string(c));
        }
      }
    } else {
      // Range: B^v holds digit <= v for v in [0, b-2]; the first slice a
      // row appears in is its digit, and rows in none carry the implicit
      // all-ones B^{b-1}.
      for (uint32_t v = 0; v < stored; ++v) {
        fetch(c, v)->ForEachSetBit([&](size_t r) {
          if (!digit_known[r]) {
            digit_known[r] = 1;
            digit[r] = v;
          }
        });
      }
      for (size_t r = 0; r < n; ++r) {
        if (!digit_known[r]) digit[r] = b - 1;
      }
    }

    for (size_t r = 0; r < n; ++r) {
      acc[r] += static_cast<uint64_t>(digit[r]) * weight;
    }
    weight *= b;
  }

  values->assign(n, kNullValue);
  const uint64_t cardinality = source.cardinality();
  for (size_t r = 0; r < n; ++r) {
    if (!non_null.Get(r)) continue;
    if (acc[r] >= cardinality) {
      return Status::Corruption(
          "row " + std::to_string(r) + " decodes to rank " +
          std::to_string(acc[r]) + " outside cardinality " +
          std::to_string(cardinality));
    }
    (*values)[r] = static_cast<uint32_t>(acc[r]);
  }
  return Status::OK();
}

}  // namespace bix
