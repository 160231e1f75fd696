// CPU kernel tile autotuning. The cache-block sizes of the tiled CPU
// engine (blas/kernels/) are tuned by measuring the real GEMM wall-clock
// on this host: cache topology is not part of the simulated model.
#pragma once

#include <vector>

#include "blas/kernels/tiling.hpp"

namespace sympack::gpu {

struct TileTiming {
  blas::kernels::TileConfig config;
  double gflops = 0.0;  // measured tiled-GEMM throughput
};

/// Time a candidate grid of MC/KC/NC cache-block configurations on a
/// `problem`-cubed double-precision GEMM; returns candidates sorted
/// best-first. `reps` timed repetitions per candidate.
std::vector<TileTiming> sweep_tile_configs(int problem = 384, int reps = 3);

/// The best configuration from sweep_tile_configs, ready to assign to
/// SolverOptions::kernel_tiles (or kernels::set_config).
blas::kernels::TileConfig best_tile_config(int problem = 384);

}  // namespace sympack::gpu
