// Timed levels of the supernodal elimination tree, shared by the ready
// queues of the factorization and the triangular solve (DESIGN.md §4m).
//
// Every supernode k gets one cost c(k): the time of its POTRF (w³/3
// flops) and TRSM (r·w² flops; w = width, r = rows below the diagonal
// block) at the model's CPU rates, plus one signal (RPC + pull latency),
// because one level of the tree also costs one message. From it:
//
//   blevel(k) = c(k) + blevel(parent(k))            (root: c(root))
//   height(k) = c(k) + max over children of height(child)  (leaf: c(k))
//
// The bottom level is the chain from k up to the root: the factorization
// and the forward solve sweep run leaves to root, so it is the work a
// task still has ahead of it. The height is the chain from k down to its
// deepest leaf: the backward sweep runs root to leaves. The parent of a
// supernode holds its first below-row and has the larger index, so one
// descending sweep resolves the bottom levels and one ascending sweep
// the heights. The latency term keeps deep chains of small panels from
// ranking below a few heavy ones in latency-bound runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pgas/machine_model.hpp"
#include "symbolic/view.hpp"

namespace sympack::core::taskrt {

struct TreeLevels {
  std::vector<double> cost;    // c(k), simulated seconds
  std::vector<double> blevel;  // chain up to the root, seconds
  std::vector<double> height;  // longest chain down to a leaf, seconds
};

inline TreeLevels tree_levels(const symbolic::SymbolicView& sym,
                              const pgas::MachineModel& model) {
  const sparse::idx_t ns = sym.num_snodes();
  const double level_s = model.rpc_overhead_s + model.net_latency_s;
  TreeLevels t;
  t.cost.resize(static_cast<std::size_t>(ns));
  t.blevel.assign(static_cast<std::size_t>(ns), 0.0);
  t.height.assign(static_cast<std::size_t>(ns), 0.0);
  std::vector<sparse::idx_t> parent(static_cast<std::size_t>(ns), -1);
  for (sparse::idx_t k = ns - 1; k >= 0; --k) {
    const auto& sn = sym.snode(k);
    const double w = static_cast<double>(sn.width());
    const double r = static_cast<double>(sn.nrows_below());
    t.cost[k] = w * w * w / 3.0 / (model.cpu_potrf_Gflops * 1e9) +
                r * w * w / (model.cpu_trsm_Gflops * 1e9) + level_s;
    t.blevel[k] = t.cost[k];
    if (!sn.below.empty()) {
      parent[k] = sym.snode_of(sn.below.front());
      t.blevel[k] += t.blevel[parent[k]];
    }
  }
  // height[] first collects the tallest child, then adds c(k) once all
  // children (smaller indices) have reported.
  for (sparse::idx_t k = 0; k < ns; ++k) {
    t.height[k] += t.cost[k];
    if (parent[k] >= 0) {
      t.height[parent[k]] = std::max(t.height[parent[k]], t.height[k]);
    }
  }
  return t;
}

/// A level in whole picoseconds, the ready queue's int64 priority;
/// clamped at 2^61 so callers can stack a class offset above it.
inline std::int64_t level_priority(double level_s) {
  constexpr double kMax = static_cast<double>(std::int64_t{1} << 61);
  return static_cast<std::int64_t>(std::min(level_s * 1e12, kMax));
}

}  // namespace sympack::core::taskrt
