// Block-to-process mapping (paper §3.3). Blocks are identified by the
// coordinate pair (i, j): i = supernode owning the block's rows, j =
// supernode owning the block's columns. The paper's map is 2D
// block-cyclic over a near-square process grid; 1D row- and
// column-cyclic maps are provided for the mapping ablation, which the
// paper calls out as introducing serial bottlenecks. The default is the
// subtree layer: whole bottom subtrees of the elimination tree on single
// ranks, the 2D grid for the panels above them (DESIGN.md §4l).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sparse/types.hpp"
#include "symbolic/symbolic.hpp"

namespace sympack::symbolic {

using sparse::idx_t;

class Mapping {
 public:
  enum class Kind {
    k2dBlockCyclic,
    kRowCyclic,
    kColCyclic,
    /// Subtree-to-subcube: each elimination-tree subtree is assigned a
    /// contiguous rank range proportional to its factorization cost
    /// (the locality-aware mapping of PaStiX/MUMPS lineage); within a
    /// panel's range, block rows are dealt cyclically.
    kProportional,
    /// Geist & Ng's layer L0: a layer of disjoint subtrees is dealt to
    /// the ranks by LPT on their task counts; every block of a panel
    /// inside a layer subtree lives on that subtree's rank, the panels
    /// above the layer use the 2D block-cyclic grid.
    kSubtreeLayer,
  };

  /// kSubtreeLayer's balance tolerance ε: the layer is accepted once the
  /// heaviest rank's task count is at most (1 + ε) × the average. Larger
  /// ε stops the split earlier (fewer, larger subtrees, fewer messages)
  /// at the price of rank imbalance and, on flan, peak memory (+5.0% at
  /// 0.2). The sweep over {0.02, 0.05, 0.1, 0.2} in DESIGN.md §4l picked
  /// 0.1: fastest factor on thermal and flan, inside every e2ebench bound.
  static constexpr double kLayerImbalance = 0.1;

  /// kSubtreeLayer gives way to the plain 2D grid when its busiest rank
  /// carries more than (1 + this) times the flops of the grid's busiest
  /// rank: there the factorization is flop-bound and the messages the
  /// layer saves no longer pay for the imbalance. flan_proxy(1.0) on 4
  /// ranks has +9.7% and runs 7.5% slower under the layer; bones_proxy(1.0)
  /// on 8 ranks has +5.4% and runs 7% faster (DESIGN.md §4l).
  static constexpr double kLayerFlopExcess = 0.075;

  /// A grid kind. Tree kinds (kProportional, kSubtreeLayer) need the
  /// supernodal tree and must come from build(); a tree kind constructed
  /// here throws std::logic_error on first use.
  Mapping(int nranks, Kind kind = Kind::k2dBlockCyclic);

  /// The one factory for every kind: grid kinds ignore `sym`, tree kinds
  /// read its supernodal tree. kSubtreeLayer falls back to the plain 2D
  /// grid (kind() == k2dBlockCyclic) when no layer balances, e.g. on one
  /// rank or with fewer leaves than ranks, or when the layer's busiest
  /// rank exceeds the grid's flops by more than kLayerFlopExcess.
  static Mapping build(int nranks, Kind kind, const Symbolic& sym);

  /// Recovery from the death of rank `dead`: this map with every block of
  /// the dead rank dealt over the survivors, so nothing waits for its
  /// restart and the work it lost is redone in parallel. Under
  /// kSubtreeLayer its layer panels with no finished block (`started[k]`
  /// == 0) are dealt to the survivors by the same layer search (the part
  /// of that region above its new layer joins the grid); every other
  /// block (i, j) of the dead rank goes to survivor (i + j) mod the
  /// survivor count.
  [[nodiscard]] Mapping without(int dead, const std::vector<char>& started,
                                const Symbolic& sym) const;

  /// Process owning block (i, j).
  [[nodiscard]] int operator()(idx_t i, idx_t j) const;

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] int grid_rows() const { return pr_; }
  [[nodiscard]] int grid_cols() const { return pc_; }
  [[nodiscard]] Kind kind() const { return kind_; }

  static Kind parse(const std::string& name);
  /// Canonical short name of a kind ("2d", "row", "col", "proportional",
  /// "subtree-layer"); round-trips through parse().
  static const char* kind_name(Kind kind);

 private:
  friend struct MappingTestPeer;

  /// operator() before the hand-over of dead ranks' blocks.
  [[nodiscard]] int place(idx_t i, idx_t j) const;

  static Mapping proportional(int nranks, const Symbolic& sym);
  static Mapping subtree_layer(int nranks, const Symbolic& sym);

  int nranks_;
  Kind kind_;
  int pr_ = 1;
  int pc_ = 1;
  /// Tree kinds: per panel-supernode rank range [lo, hi) dealt by block
  /// row. kSubtreeLayer ranges are [r, r + 1) inside the layer and empty
  /// above it (those panels use the grid).
  std::shared_ptr<const std::vector<std::pair<int, int>>> ranges_;
  /// One per rank death (without()), in order: the dead rank and the
  /// ranks alive after it, over which its blocks are dealt.
  struct HandOver {
    int dead;
    std::vector<int> heirs;
  };
  std::shared_ptr<const std::vector<HandOver>> hand_overs_;
};

}  // namespace sympack::symbolic
