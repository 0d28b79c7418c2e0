// Stable, human-readable names for the value-parameterized design sweeps.
//
// gtest's default printer dumps a parameter struct's raw bytes, heap
// addresses of its base vector included, so the names of such tests (and
// the ctest names gtest_discover_tests builds from the printed value)
// changed from build to build.  Each sweep defines `CaseName(const Case&)`
// from the base digits, N and encoding, passes ParamName to
// INSTANTIATE_TEST_SUITE_P and prints the same text through PrintTo.

#ifndef BIX_TESTS_PARAM_NAMES_H_
#define BIX_TESTS_PARAM_NAMES_H_

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/predicate.h"

namespace bix::test {

/// "b3b3C9": the base digits, most significant first, then the cardinality.
inline std::string DesignName(const std::vector<uint32_t>& bases_msb,
                              uint32_t cardinality) {
  std::string name;
  for (uint32_t b : bases_msb) name += "b" + std::to_string(b);
  return name + "C" + std::to_string(cardinality);
}

/// "Range" / "Equality".
inline std::string EncodingName(Encoding encoding) {
  return encoding == Encoding::kRange ? "Range" : "Equality";
}

/// Name generator for INSTANTIATE_TEST_SUITE_P; finds the case's CaseName
/// by argument-dependent lookup.
template <typename Case>
std::string ParamName(const ::testing::TestParamInfo<Case>& info) {
  return CaseName(info.param);
}

}  // namespace bix::test

#endif  // BIX_TESTS_PARAM_NAMES_H_
