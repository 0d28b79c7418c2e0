// Fuzz-style round-trip harness for the WAH codec and its run-at-a-time
// kernels.  Bit patterns are built from adversarial run segments — fills
// and literal noise with lengths chosen around the 31-bit group and 32/64
// word boundaries — then pushed through compress -> op -> decompress and
// checked against the dense reference, including the counting forms
// (Count, AndCount, and Count of the k-ary results) and the canonical-
// encoding invariant (equal bit contents always have equal code words).
// The stored-payload validator (TryFromCodeWords / WahCodec::DecodeToWah) is
// pinned against a reference copy of its original per-word loop.

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "bitmap/wah_kernels.h"
#include "compress/wah_codec.h"

namespace bix {
namespace {

// Lengths that straddle the group size (31), the code-word size (32), and
// the dense backing-word size (64).
const size_t kEdgeLengths[] = {0,  1,  2,  29, 30, 31, 32, 33,
                               61, 62, 63, 64, 65, 92, 93, 124};

enum class Segment { kZeros, kOnes, kNoise, kAlternating };

Bitvector BuildPattern(std::mt19937_64& rng, size_t target_bits) {
  Bitvector out(target_bits);
  size_t bit = 0;
  while (bit < target_bits) {
    size_t len = rng() % 3 == 0 ? 1 + rng() % 200
                                : kEdgeLengths[rng() % 16];
    len = std::min(len, target_bits - bit);
    if (len == 0) len = 1;
    switch (static_cast<Segment>(rng() % 4)) {
      case Segment::kZeros:
        break;
      case Segment::kOnes:
        for (size_t i = 0; i < len; ++i) out.Set(bit + i);
        break;
      case Segment::kNoise:
        for (size_t i = 0; i < len; ++i) {
          if (rng() & 1) out.Set(bit + i);
        }
        break;
      case Segment::kAlternating:
        // Alternating full groups: ones-fill, zeros-fill, ones-fill, ...
        for (size_t i = 0; i < len; ++i) {
          if (((bit + i) / 31) % 2 == 0) out.Set(bit + i);
        }
        break;
    }
    bit += len;
  }
  return out;
}

// Every encoding the codec emits must be canonical: re-compressing the
// decompressed bits reproduces it exactly.
void ExpectCanonical(const WahBitvector& w, const std::string& what) {
  EXPECT_TRUE(WahBitvector::FromBitvector(w.ToBitvector()) == w)
      << what << ": non-canonical encoding (size=" << w.size() << ")";
}

TEST(WahFuzzTest, RoundTrip) {
  std::mt19937_64 rng(20260801);
  for (size_t len : kEdgeLengths) {
    for (int rep = 0; rep < 8; ++rep) {
      Bitvector dense = BuildPattern(rng, len);
      WahBitvector wah = WahBitvector::FromBitvector(dense);
      EXPECT_TRUE(wah.ToBitvector() == dense) << "len=" << len;
      EXPECT_EQ(wah.Count(), dense.Count()) << "len=" << len;
      ExpectCanonical(wah, "round-trip len=" + std::to_string(len));
    }
  }
  for (int rep = 0; rep < 200; ++rep) {
    size_t len = rng() % 2048;
    Bitvector dense = BuildPattern(rng, len);
    WahBitvector wah = WahBitvector::FromBitvector(dense);
    ASSERT_TRUE(wah.ToBitvector() == dense) << "len=" << len;
    ASSERT_EQ(wah.Count(), dense.Count()) << "len=" << len;
    ExpectCanonical(wah, "round-trip len=" + std::to_string(len));
  }
}

TEST(WahFuzzTest, FillFactoryMatchesDense) {
  for (size_t len : kEdgeLengths) {
    for (bool value : {false, true}) {
      WahBitvector fill = WahBitvector::Fill(len, value);
      Bitvector dense(len, value);
      EXPECT_TRUE(fill.ToBitvector() == dense)
          << "len=" << len << " value=" << value;
      EXPECT_EQ(fill.Count(), value ? len : 0);
      ExpectCanonical(fill, "Fill len=" + std::to_string(len));
    }
  }
}

TEST(WahFuzzTest, BinaryOpsMatchDenseReference) {
  std::mt19937_64 rng(20260802);
  for (int rep = 0; rep < 300; ++rep) {
    size_t len = rep < 64 ? kEdgeLengths[rep % 16] : rng() % 1024;
    Bitvector da = BuildPattern(rng, len);
    Bitvector db = BuildPattern(rng, len);
    WahBitvector a = WahBitvector::FromBitvector(da);
    WahBitvector b = WahBitvector::FromBitvector(db);
    const std::string ctx = "len=" + std::to_string(len);

    Bitvector ref_and = da;
    ref_and.AndWith(db);
    Bitvector ref_or = da;
    ref_or.OrWith(db);
    Bitvector ref_xor = da;
    ref_xor.XorWith(db);
    Bitvector ref_not = da;
    ref_not.NotInPlace();
    Bitvector ref_andnot = da;
    {
      Bitvector nb = db;
      nb.NotInPlace();
      ref_andnot.AndWith(nb);
    }

    WahBitvector got_and = WahBitvector::And(a, b);
    WahBitvector got_or = WahBitvector::Or(a, b);
    WahBitvector got_xor = WahBitvector::Xor(a, b);
    WahBitvector got_andnot = WahBitvector::AndNot(a, b);
    WahBitvector got_not = a.Not();

    ASSERT_TRUE(got_and.ToBitvector() == ref_and) << ctx;
    ASSERT_TRUE(got_or.ToBitvector() == ref_or) << ctx;
    ASSERT_TRUE(got_xor.ToBitvector() == ref_xor) << ctx;
    ASSERT_TRUE(got_andnot.ToBitvector() == ref_andnot) << ctx;
    ASSERT_TRUE(got_not.ToBitvector() == ref_not) << ctx;
    ExpectCanonical(got_and, "And " + ctx);
    ExpectCanonical(got_or, "Or " + ctx);
    ExpectCanonical(got_xor, "Xor " + ctx);
    ExpectCanonical(got_andnot, "AndNot " + ctx);
    ExpectCanonical(got_not, "Not " + ctx);

    // Counting forms never materialize and must agree with the dense
    // popcounts, including the partial tail group.
    ASSERT_EQ(WahBitvector::AndCount(a, b), ref_and.Count()) << ctx;
  }
}

// AndCount with a ones-fill covering the final (partial) group: the fill x
// fill fast path must not count bits past num_bits.
TEST(WahFuzzTest, AndCountTailCases) {
  for (size_t len : {31u, 32u, 33u, 62u, 63u, 64u, 65u}) {
    Bitvector all(len, true);
    WahBitvector a = WahBitvector::FromBitvector(all);
    EXPECT_EQ(WahBitvector::AndCount(a, a), len) << "len=" << len;

    Bitvector tail_only(len);
    for (size_t i = (len / 31) * 31; i < len; ++i) tail_only.Set(i);
    WahBitvector t = WahBitvector::FromBitvector(tail_only);
    EXPECT_EQ(WahBitvector::AndCount(a, t), tail_only.Count())
        << "len=" << len;
    EXPECT_EQ(WahBitvector::AndCount(t, t), tail_only.Count())
        << "len=" << len;
  }
}

TEST(WahFuzzTest, KAryKernelsMatchDenseFold) {
  std::mt19937_64 rng(20260803);
  for (int rep = 0; rep < 120; ++rep) {
    size_t len = rep < 32 ? kEdgeLengths[rep % 16] : rng() % 700;
    size_t k = 1 + rng() % 6;
    std::vector<Bitvector> dense;
    std::vector<WahBitvector> wah;
    for (size_t i = 0; i < k; ++i) {
      dense.push_back(BuildPattern(rng, len));
      wah.push_back(WahBitvector::FromBitvector(dense.back()));
    }
    Bitvector ref_or(len);
    Bitvector ref_and(len, true);
    for (const Bitvector& d : dense) {
      ref_or.OrWith(d);
      ref_and.AndWith(d);
    }
    const std::string ctx =
        "len=" + std::to_string(len) + " k=" + std::to_string(k);

    WahBitvector got_or = OrOfMany(wah);
    WahBitvector got_and = AndOfMany(wah);
    ASSERT_TRUE(got_or.ToBitvector() == ref_or) << ctx;
    ASSERT_TRUE(got_and.ToBitvector() == ref_and) << ctx;
    ExpectCanonical(got_or, "OrOfMany " + ctx);
    ExpectCanonical(got_and, "AndOfMany " + ctx);
    ASSERT_EQ(got_or.Count(), ref_or.Count()) << ctx;
    ASSERT_EQ(got_and.Count(), ref_and.Count()) << ctx;
  }
}

// Fills straddling the 2^30-group fill-count ceiling force multi-word
// fills; keep this one modest (a few hundred MB of *logical* bits is only a
// handful of code words physically).
TEST(WahFuzzTest, LongFillRunsStayExact) {
  const size_t kBig = size_t{40} * 31 * 1000;  // many groups, tiny encoding
  WahBitvector ones = WahBitvector::Fill(kBig, true);
  WahBitvector zeros = WahBitvector::Fill(kBig, false);
  EXPECT_EQ(ones.Count(), kBig);
  EXPECT_EQ(zeros.Count(), 0u);
  EXPECT_EQ(WahBitvector::AndCount(ones, ones), kBig);
  EXPECT_EQ(WahBitvector::AndCount(ones, zeros), 0u);
  WahBitvector x = WahBitvector::Xor(ones, zeros);
  EXPECT_EQ(x.Count(), kBig);
  EXPECT_TRUE(x == ones);
  EXPECT_TRUE(zeros.Not() == ones);
  const WahBitvector* ops[] = {&ones, &zeros, &ones};
  EXPECT_EQ(WahBitvector::OrOfMany(ops).Count(), kBig);
  EXPECT_EQ(WahBitvector::AndOfMany(ops).Count(), 0u);
}

// The validator as it was first written: one branch per word on fill vs
// literal, the tail rule applied to the literal that completes the final
// group, and the running total checked after every word.  Kept here as the
// reference the branch-free rewrite must agree with.
bool ReferenceValidCodeWords(const std::vector<uint32_t>& words,
                             size_t num_bits) {
  constexpr uint64_t kGroup = 31;
  const uint64_t want_groups = (num_bits + kGroup - 1) / kGroup;
  uint64_t groups = 0;
  for (uint32_t word : words) {
    if ((word & 0x80000000u) != 0) {
      if ((word & 0x3FFFFFFFu) == 0) return false;
      groups += word & 0x3FFFFFFFu;
    } else {
      ++groups;
      if (groups == want_groups) {
        uint32_t tail =
            static_cast<uint32_t>(num_bits - (want_groups - 1) * kGroup);
        if (tail < kGroup && (word >> tail) != 0) return false;
      }
    }
    if (groups > want_groups) return false;
  }
  if (groups != want_groups) return false;
  if (num_bits % kGroup != 0 && !words.empty() &&
      (words.back() & 0x80000000u) != 0 && (words.back() & 0x40000000u) != 0) {
    return false;
  }
  return true;
}

// Dense bits of a stream the reference accepted, expanded word by word.
Bitvector ReferenceBits(const std::vector<uint32_t>& words, size_t num_bits) {
  Bitvector out(num_bits);
  size_t bit = 0;
  for (uint32_t word : words) {
    if ((word & 0x80000000u) != 0) {
      size_t span = size_t{word & 0x3FFFFFFFu} * 31;
      if ((word & 0x40000000u) != 0) {
        for (size_t i = bit; i < std::min(bit + span, num_bits); ++i) {
          out.Set(i);
        }
      }
      bit += span;
    } else {
      for (size_t i = 0; i < 31 && bit + i < num_bits; ++i) {
        if ((word >> i) & 1) out.Set(bit + i);
      }
      bit += 31;
    }
  }
  return out;
}

uint32_t RandomWord(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return static_cast<uint32_t>(rng());  // anything at all
    case 1:
    case 2: {  // fill with a small count, zero included
      uint32_t value = (rng() & 1) ? 0x40000000u : 0;
      return 0x80000000u | value | static_cast<uint32_t>(rng() % 5);
    }
    case 3:  // fill near the count ceiling
      return 0x80000000u | static_cast<uint32_t>(rng() & 0x7FFFFFFFu);
    case 4:  // sparse literal
      return uint32_t{1} << (rng() % 31);
    default:  // dense literal noise
      return static_cast<uint32_t>(rng()) & 0x7FFFFFFFu;
  }
}

// num_bits near the stream's own group total (so a good share of streams
// is accepted), occasionally anywhere.
size_t NumBitsFor(std::mt19937_64& rng, const std::vector<uint32_t>& words) {
  uint64_t groups = 0;
  for (uint32_t word : words) {
    groups += (word & 0x80000000u) != 0 ? (word & 0x3FFFFFFFu) : 1;
  }
  if (rng() % 16 == 0) return rng() % 4096;
  int64_t target_groups = static_cast<int64_t>(groups) +
                          static_cast<int64_t>(rng() % 3) - 1;
  if (target_groups <= 0) return rng() % 31;
  uint64_t full = static_cast<uint64_t>(target_groups - 1) * 31;
  return static_cast<size_t>(full + 1 + rng() % 31);  // tail of 1..31 bits
}

// One case: the validator must agree with the reference, and an accepted
// stream must carry exactly the reference bits.
void CheckAgainstReference(const std::vector<uint32_t>& words,
                           size_t num_bits, int64_t* accepted) {
  const bool want = ReferenceValidCodeWords(words, num_bits);
  WahBitvector got;
  const bool ok = WahBitvector::TryFromCodeWords(
      std::vector<uint32_t>(words), num_bits, &got);
  ASSERT_EQ(ok, want) << "num_bits=" << num_bits
                      << " words=" << words.size();
  if (!want) {
    ASSERT_TRUE(got.empty() && got.code_words().empty());
    return;
  }
  ++*accepted;
  ASSERT_EQ(got.size(), num_bits);
  ASSERT_EQ(got.code_words(), words);
  // Near-ceiling fills describe billions of bits; equal code words already
  // pin those, so only small streams are expanded.
  if (num_bits <= (size_t{1} << 16)) {
    ASSERT_TRUE(got.ToBitvector() == ReferenceBits(words, num_bits))
        << "num_bits=" << num_bits;
  }
}

std::vector<uint8_t> Payload(const std::vector<uint32_t>& words,
                             uint64_t num_bits) {
  std::vector<uint8_t> out(8 + 4 * words.size());
  std::memcpy(out.data(), &num_bits, 8);
  if (!words.empty()) {
    std::memcpy(out.data() + 8, words.data(), 4 * words.size());
  }
  return out;
}

TEST(WahValidatorTest, BranchFreeCheckMatchesReferenceLoop) {
  std::mt19937_64 rng(20261019);
  int64_t cases = 0;
  int64_t accepted = 0;
  // Random streams of 0..12 words.
  for (int rep = 0; rep < 700000; ++rep, ++cases) {
    std::vector<uint32_t> words(rng() % 13);
    for (uint32_t& w : words) w = RandomWord(rng);
    CheckAgainstReference(words, NumBitsFor(rng, words), &accepted);
  }
  // Canonical encodings, then one adversarial edit each: a zero-count fill,
  // an extra or missing group, set bits past num_bits in the last literal,
  // a ones fill over the partial final group, or num_bits moved by one.
  for (int rep = 0; rep < 300000; ++rep) {
    size_t len = rep % 4 == 0 ? kEdgeLengths[rng() % 16] : rng() % 400;
    WahBitvector canon = WahBitvector::FromBitvector(BuildPattern(rng, len));
    std::vector<uint32_t> words = canon.code_words();
    size_t num_bits = len;
    CheckAgainstReference(words, num_bits, &accepted);
    ++cases;
    switch (rng() % 7) {
      case 0:  // zero-count fill somewhere
        words.insert(words.begin() + static_cast<std::ptrdiff_t>(
                                         rng() % (words.size() + 1)),
                     0x80000000u | ((rng() & 1) ? 0x40000000u : 0));
        break;
      case 1:  // group overflow: one literal too many
        words.push_back(static_cast<uint32_t>(rng()) & 0x7FFFFFFFu);
        break;
      case 2:  // group shortfall
        if (!words.empty()) words.pop_back();
        break;
      case 3: {  // stray bit past num_bits in the last literal
        const uint32_t tail = static_cast<uint32_t>(num_bits % 31);
        if (tail != 0 && !words.empty() &&
            (words.back() & 0x80000000u) == 0) {
          words.back() |= uint32_t{1} << (tail + rng() % (31 - tail));
        }
        break;
      }
      case 4:  // ones fill over the (maybe partial) final group
        if (!words.empty()) words.back() = 0xC0000001u;
        break;
      case 5:  // num_bits off by one either way
        if ((rng() & 1) != 0 || num_bits == 0) {
          ++num_bits;
        } else {
          --num_bits;
        }
        break;
      default:  // one random word replaced
        if (!words.empty()) words[rng() % words.size()] = RandomWord(rng);
        break;
    }
    CheckAgainstReference(words, num_bits, &accepted);
    ++cases;
  }
  // Empty streams: accepted only at num_bits 0.
  for (size_t num_bits : {size_t{0}, size_t{1}, size_t{30}, size_t{31},
                          size_t{32}, size_t{62}, size_t{1000}}) {
    CheckAgainstReference({}, num_bits, &accepted);
    ++cases;
  }
  EXPECT_GE(cases, 1000000);
  // Both verdicts must be well represented for the agreement to mean much.
  EXPECT_GT(accepted, 100000) << "of " << cases;
  EXPECT_LT(accepted, cases - 100000);
}

TEST(WahValidatorTest, DecodeToWahMatchesReferenceOnPayloadLengths) {
  std::mt19937_64 rng(20261020);
  for (int rep = 0; rep < 20000; ++rep) {
    size_t len = rng() % 300;
    WahBitvector canon = WahBitvector::FromBitvector(BuildPattern(rng, len));
    std::vector<uint8_t> payload = Payload(canon.code_words(), len);
    WahBitvector got;
    ASSERT_TRUE(WahCodec::DecodeToWah(payload, &got)) << "len=" << len;
    ASSERT_TRUE(got == canon);
    // Any length that is not 8 + 4k bytes is rejected, whatever the words;
    // so is a payload too short to hold num_bits.
    for (size_t cut : {size_t{1}, size_t{2}, size_t{3}}) {
      WahBitvector none;
      ASSERT_FALSE(WahCodec::DecodeToWah(
          std::span<const uint8_t>(payload.data(), payload.size() - cut),
          &none))
          << "len=" << len << " cut=" << cut;
      std::vector<uint8_t> longer = payload;
      longer.resize(payload.size() + cut, 0);
      ASSERT_FALSE(WahCodec::DecodeToWah(longer, &none));
      ASSERT_TRUE(none.empty());
    }
    // Random words behind a well-formed length agree with the reference.
    std::vector<uint32_t> words(rng() % 6);
    for (uint32_t& w : words) w = RandomWord(rng);
    size_t num_bits = NumBitsFor(rng, words);
    WahBitvector parsed;
    ASSERT_EQ(WahCodec::DecodeToWah(Payload(words, num_bits), &parsed),
              ReferenceValidCodeWords(words, num_bits));
  }
  for (size_t short_len = 0; short_len < 8; ++short_len) {
    std::vector<uint8_t> tiny(short_len, 0);
    WahBitvector none;
    EXPECT_FALSE(WahCodec::DecodeToWah(tiny, &none)) << short_len;
  }
  WahBitvector empty;
  EXPECT_TRUE(WahCodec::DecodeToWah(Payload({}, 0), &empty));
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(WahCodec::DecodeToWah(Payload({}, 5), &empty));
}

}  // namespace
}  // namespace bix
