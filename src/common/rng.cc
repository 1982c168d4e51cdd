#include "common/rng.h"

#include <algorithm>
#include <numeric>

namespace stableshard {

void Rng::SampleWithoutReplacement(std::uint64_t population,
                                   std::uint64_t count,
                                   std::vector<std::uint64_t>& out) {
  SSHARD_CHECK(count <= population);
  out.clear();
  if (count == 0) return;

  // Dense case: partial Fisher-Yates with `out` as the index array. Step i
  // swaps only positions >= i, so out[i] is final once step i is done.
  if (population <= 4 * count || population <= 64) {
    out.resize(population);
    std::iota(out.begin(), out.end(), std::uint64_t{0});
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t j = i + NextBounded(population - i);
      std::swap(out[i], out[j]);
    }
    out.resize(count);
    return;
  }

  // Sparse case: rejection sampling.
  while (out.size() < count) {
    const std::uint64_t candidate = NextBounded(population);
    if (std::find(out.begin(), out.end(), candidate) == out.end()) {
      out.push_back(candidate);
    }
  }
}

}  // namespace stableshard
