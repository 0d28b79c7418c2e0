// Micro-benchmark for the k-ary WAH OR fold (bitmap/wah_kernels.cc), the
// form the compressed-domain engine consumes: one dense accumulator, each
// operand folded in by the kernel its stream shape calls for — the stitch
// (code words shifted straight into accumulator words) for near-all-fill and
// all-literal streams, the group-space fold (literals placed at their 31-bit
// group slots, packed to words once) for streams that mix fills and
// literals.
//
// The grid sweeps bit density (sparse fills -> fill/literal-mixed uniform
// noise -> clustered runs -> incompressible noise) against fan-in k in
// {2, 4, 8, 16, 32}.  The sparse, clustered and 50% lanes run the stitch;
// the uniform 0.4% and 2% lanes (code words per group ~0.22 and ~0.71) run
// the group-space fold.  Each result is checked against a pairwise WAH OR
// fold — a divergence fails the run.
//
// Usage: bench_wah_merge [--smoke] [OUT.json]
//   --smoke    smaller bitmaps and fewer reps (registered as a ctest smoke)
//   OUT.json   also write every measurement as bench_json.h rows

#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "bitmap/wah_kernels.h"

using namespace bix;

namespace {

Bitvector RandomDense(size_t bits, double density, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0, 1);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (uni(rng) < density) out.Set(i);
  }
  return out;
}

Bitvector ClusteredDense(size_t bits, double density, size_t run,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0, 1);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; i += run) {
    if (uni(rng) < density) {
      for (size_t k = i; k < std::min(i + run, bits); ++k) out.Set(k);
    }
  }
  return out;
}

// Minimum over `reps` of the k-ary OR fold's wall time, in microseconds.
// Returns -1 when the fold differs from the pairwise WAH OR.
double MeasureMergeUs(const std::vector<WahBitvector>& operands, int reps) {
  std::vector<const WahBitvector*> ptrs;
  ptrs.reserve(operands.size());
  for (const WahBitvector& o : operands) ptrs.push_back(&o);
  // Pairwise WAH OR: the reference the fold must match.
  WahBitvector reference = operands[0];
  for (size_t i = 1; i < operands.size(); ++i) {
    reference = WahBitvector::Or(reference, operands[i]);
  }
  // The parity check runs once, outside the timed loop; it is also the
  // warm-up run.
  if (!(OrOfMany(operands) == reference)) return -1;
  // min-of-reps: robust against scheduler and turbo noise at the low rep
  // counts the smoke lane uses.
  double best_us = 0;
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    // Timed as the engines consume it: the result stays dense.
    Bitvector out = DenseOrOfMany(ptrs);
    const double us = 1e6 * std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    if (i == 0 || us < best_us) best_us = us;
  }
  return best_us;
}

struct Shape {
  const char* name;
  double density;
  size_t cluster_run;  // 0 = uniform
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  bench::BenchJsonWriter json;

  // Each rep frees its result, and by default glibc may hand the heap top
  // back to the kernel on that free, so the next rep's result pays fresh
  // page faults (about 16 per 64 KB smoke result) that belong to the
  // allocator's trim policy, not to the fold.  Keep freed memory in the
  // process so every rep times the same steady state.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const size_t bits = smoke ? (1 << 19) : (1 << 22);
  const int reps = smoke ? 3 : 10;
  const Shape shapes[] = {
      {"sparse 0.01%", 0.0001, 0},
      {"sparse 0.1%", 0.001, 0},
      {"uniform 0.4%", 0.004, 0},
      {"uniform 2%", 0.02, 0},
      {"clustered 10% r=2048", 0.1, 2048},
      {"noise 50%", 0.5, 0},
  };
  const size_t fanins[] = {2, 4, 8, 16, 32};

  std::printf("k-ary WAH OR fold, %zu-bit operands, us/merge%s\n\n", bits,
              smoke ? "  [smoke]" : "");
  std::printf("%-22s %4s | %10s\n", "shape", "k", "merge us");

  for (const Shape& shape : shapes) {
    for (size_t k : fanins) {
      std::vector<WahBitvector> operands;
      operands.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        const uint64_t seed = 1000 * k + i;
        Bitvector d = shape.cluster_run == 0
                          ? RandomDense(bits, shape.density, seed)
                          : ClusteredDense(bits, shape.density,
                                           shape.cluster_run, seed);
        operands.push_back(WahBitvector::FromBitvector(d));
      }
      const double us = MeasureMergeUs(operands, reps);
      if (us < 0) {
        std::printf("FAIL: fold disagrees with pairwise OR on %s k=%zu\n",
                    shape.name, k);
        return 1;
      }
      std::printf("%-22s %4zu | %10.1f\n", shape.name, k, us);
      json.Add("wah_merge",
               {{"shape", shape.name},
                {"density", shape.density},
                {"bits", static_cast<int64_t>(bits)},
                {"k", static_cast<int64_t>(k)}},
               "merge_us", us, "us");
    }
  }

  if (!json_path.empty()) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu rows -> %s\n", json.size(), json_path.c_str());
  }
  return 0;
}
