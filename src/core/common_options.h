// Knobs shared by every randomized core component.
//
// LocalizerConfig, MlpcConfig, and ProbeEngineConfig each used to carry
// their own `seed` / `randomized` fields with identical
// semantics; they now embed one CommonOptions so a caller wiring a whole
// pipeline configures the trio once per component with the same vocabulary
// (and so new components don't grow a fourth copy).
#pragma once

#include <cstdint>

namespace sdnprobe::core {

struct CommonOptions {
  // Randomized SDNProbe (§V-C): re-draw covers / headers per restart.
  // Components without a randomized variant (e.g. ProbeEngine, which draws
  // from the caller's Rng) ignore this knob.
  bool randomized = false;
  // Master seed for the component's derived RNG streams. Ignored by
  // components that only consume caller-provided Rng state.
  std::uint64_t seed = 1;
  // Read by nothing in the library: parallelism is the pool a caller lends
  // to MlpcSolver / ProbeEngine. Kept only until a benchmark change drops
  // pipebench's writes to it.
  int threads = 1;
};

}  // namespace sdnprobe::core
