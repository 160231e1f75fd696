// Tests for the symbolic phase: supernode detection, amalgamation,
// width splitting, panel structures, Algorithm-2 block partitioning,
// the structural invariants the numeric phase relies on (validated by
// Symbolic::validate), the block-to-process mappings, and the task graph
// counts.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "ordering/etree.hpp"
#include "ordering/graph.hpp"
#include "ordering/nd.hpp"
#include "ordering/ordering.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "symbolic/mapping.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/taskgraph.hpp"

namespace sympack::symbolic {
namespace {

using sparse::CscMatrix;

Symbolic analyze_matrix(const CscMatrix& a, const SymbolicOptions& opts = {}) {
  const auto parent = ordering::elimination_tree(a);
  return analyze(a, parent, opts);
}

CscMatrix ordered(const CscMatrix& a) {
  return sparse::permute_symmetric(
      a, ordering::compute_ordering(a, ordering::Method::kNestedDissection));
}

TEST(Supernodes, DenseMatrixIsOneSupernode) {
  const auto a = sparse::dense_spd(10, 1);
  SymbolicOptions opts;
  opts.amalgamate = false;
  opts.max_width = 0;
  const auto sym = analyze_matrix(a, opts);
  EXPECT_EQ(sym.num_snodes(), 1);
  EXPECT_EQ(sym.snode(0).width(), 10);
  EXPECT_TRUE(sym.snode(0).below.empty());
  EXPECT_TRUE(sym.snode(0).blocks.empty());
}

TEST(Supernodes, TridiagonalWithoutAmalgamation) {
  const auto a = sparse::tridiagonal(6);
  SymbolicOptions opts;
  opts.amalgamate = false;
  const auto sym = analyze_matrix(a, opts);
  // Tridiagonal: count(j) = 2 for all but last, so no two adjacent
  // columns satisfy count(j-1) == count(j)+1 until the very end.
  EXPECT_GT(sym.num_snodes(), 1);
  sym.validate(a);
}

TEST(Supernodes, AmalgamationReducesSupernodeCount) {
  const auto a = ordered(sparse::grid2d_laplacian(12, 12));
  SymbolicOptions no_amal;
  no_amal.amalgamate = false;
  SymbolicOptions amal;
  amal.amalgamate = true;
  const auto sym0 = analyze_matrix(a, no_amal);
  const auto sym1 = analyze_matrix(a, amal);
  EXPECT_LT(sym1.num_snodes(), sym0.num_snodes());
  sym0.validate(a);
  sym1.validate(a);
}

TEST(Supernodes, AmalgamationAddsBoundedPadding) {
  const auto a = ordered(sparse::grid2d_laplacian(16, 16));
  SymbolicOptions no_amal;
  no_amal.amalgamate = false;
  SymbolicOptions amal;
  amal.amalgamate = true;
  amal.relax_small = 4;
  amal.relax_ratio = 0.1;
  const auto nnz0 = analyze_matrix(a, no_amal).factor_nnz();
  const auto nnz1 = analyze_matrix(a, amal).factor_nnz();
  EXPECT_GE(nnz1, nnz0);          // padding only adds entries
  EXPECT_LT(nnz1, 3 * nnz0);      // ... but not unboundedly
}

// The etree postorder compute_ordering applies puts every chain next to
// its parent, so amalgamation finds merges the raw ND order hides.
TEST(Supernodes, PostorderedOrderingMergesMoreChains) {
  const auto a = sparse::thermal_proxy(0.005);
  const auto raw = sparse::permute_symmetric(
      a, ordering::nested_dissection(ordering::build_graph(a)));
  const auto post = ordered(a);
  const auto sym_raw = analyze_matrix(raw);
  const auto sym_post = analyze_matrix(post);
  sym_raw.validate(raw);
  sym_post.validate(post);
  EXPECT_LT(sym_post.num_snodes(), sym_raw.num_snodes());
}

TEST(Supernodes, MaxWidthSplitsPanels) {
  const auto a = sparse::dense_spd(40, 3);
  SymbolicOptions opts;
  opts.max_width = 16;
  const auto sym = analyze_matrix(a, opts);
  EXPECT_GE(sym.num_snodes(), 3);
  for (const auto& sn : sym.snodes()) EXPECT_LE(sn.width(), 16);
  sym.validate(a);
}

TEST(Supernodes, SnodeOfColumnConsistent) {
  const auto a = ordered(sparse::grid3d_laplacian(4, 4, 4));
  const auto sym = analyze_matrix(a);
  for (idx_t s = 0; s < sym.num_snodes(); ++s) {
    for (idx_t j = sym.snode(s).first; j <= sym.snode(s).last; ++j) {
      EXPECT_EQ(sym.snode_of(j), s);
    }
  }
}

struct MatrixCase {
  const char* name;
  CscMatrix (*make)();
};

class SymbolicSweep : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(SymbolicSweep, ValidateInvariantsHold) {
  const auto a = GetParam().make();
  for (const bool amalgamate : {false, true}) {
    for (const idx_t width : {idx_t{0}, idx_t{8}, idx_t{64}}) {
      SymbolicOptions opts;
      opts.amalgamate = amalgamate;
      opts.max_width = width;
      const auto sym = analyze_matrix(a, opts);
      ASSERT_NO_THROW(sym.validate(a))
          << GetParam().name << " amal=" << amalgamate << " width=" << width;
    }
  }
}

TEST_P(SymbolicSweep, FactorNnzAtLeastDiagonalAndMatrix) {
  const auto a = GetParam().make();
  const auto sym = analyze_matrix(a);
  EXPECT_GE(sym.factor_nnz(), a.nnz_stored());
  EXPECT_GT(sym.flops(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrices, SymbolicSweep,
    ::testing::Values(
        MatrixCase{"grid2d", [] { return ordered(sparse::grid2d_laplacian(9, 11)); }},
        MatrixCase{"grid3d", [] { return ordered(sparse::grid3d_laplacian(4, 3, 4)); }},
        MatrixCase{"thermal", [] { return ordered(sparse::thermal_irregular(8, 8, 0.5, 3)); }},
        MatrixCase{"random", [] { return ordered(sparse::random_spd(80, 4.0, 7)); }},
        MatrixCase{"natural_grid", [] { return sparse::grid2d_laplacian(10, 10); }},
        MatrixCase{"arrow", [] { return sparse::arrow(20); }},
        MatrixCase{"tridiag", [] { return sparse::tridiagonal(30); }},
        MatrixCase{"elasticity", [] { return ordered(sparse::elasticity3d(3, 3, 2)); }}),
    [](const auto& info) { return info.param.name; });

TEST(Blocks, PartitionMatchesAlgorithm2OnArrow) {
  // Arrow matrix under natural ordering: every column's below-structure
  // is exactly the final row.
  const auto a = sparse::arrow(8);
  SymbolicOptions opts;
  opts.amalgamate = false;
  const auto sym = analyze_matrix(a, opts);
  const idx_t last_snode = sym.snode_of(7);
  for (idx_t s = 0; s + 1 < sym.num_snodes(); ++s) {
    ASSERT_EQ(sym.snode(s).blocks.size(), 1u);
    EXPECT_EQ(sym.snode(s).blocks[0].target, last_snode);
  }
}

TEST(Blocks, FindBlockLocatesTargets) {
  const auto a = ordered(sparse::grid2d_laplacian(10, 10));
  const auto sym = analyze_matrix(a);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    for (std::size_t b = 0; b < sn.blocks.size(); ++b) {
      EXPECT_EQ(sym.find_block(k, sn.blocks[b].target),
                static_cast<idx_t>(b));
    }
    EXPECT_EQ(sym.find_block(k, sym.num_snodes() + 5), -1);
  }
}

TEST(Mapping, GridIsNearSquare) {
  Mapping m4(4);
  EXPECT_EQ(m4.grid_rows(), 2);
  EXPECT_EQ(m4.grid_cols(), 2);
  Mapping m6(6);
  EXPECT_EQ(m6.grid_rows() * m6.grid_cols(), 6);
  Mapping m7(7);  // prime: 1 x 7
  EXPECT_EQ(m7.grid_rows() * m7.grid_cols(), 7);
  Mapping m1(1);
  EXPECT_EQ(m1(5, 9), 0);
}

TEST(Mapping, TwoDCoversAllRanksAndIsCyclic) {
  Mapping m(6);
  std::set<int> seen;
  for (idx_t i = 0; i < 12; ++i) {
    for (idx_t j = 0; j < 12; ++j) {
      const int r = m(i, j);
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 6);
      seen.insert(r);
      EXPECT_EQ(m(i + m.grid_rows(), j), r);  // cyclic in rows
      EXPECT_EQ(m(i, j + m.grid_cols()), r);  // cyclic in cols
    }
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Mapping, RowAndColCyclicVariants) {
  Mapping row(4, Mapping::Kind::kRowCyclic);
  Mapping col(4, Mapping::Kind::kColCyclic);
  EXPECT_EQ(row(5, 0), row(5, 3));  // row-cyclic ignores j
  EXPECT_EQ(col(0, 5), col(3, 5));  // col-cyclic ignores i
  EXPECT_EQ(row(5, 0), 1);
  EXPECT_EQ(col(0, 5), 1);
}

TEST(Mapping, Parse) {
  EXPECT_EQ(Mapping::parse("2d"), Mapping::Kind::k2dBlockCyclic);
  EXPECT_EQ(Mapping::parse("row"), Mapping::Kind::kRowCyclic);
  EXPECT_EQ(Mapping::parse("col"), Mapping::Kind::kColCyclic);
  EXPECT_THROW(Mapping::parse("diag"), std::invalid_argument);
}

TEST(TaskGraphT, CountsConsistentOnGrid) {
  const auto a = ordered(sparse::grid2d_laplacian(12, 12));
  const auto sym = analyze_matrix(a);
  Mapping map(4);
  TaskGraph tg(sym, map);

  // Total factor tasks = one D per snode + one F per block.
  idx_t expect_f = 0, expect_u = 0;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const idx_t nb = static_cast<idx_t>(sym.snode(k).blocks.size());
    expect_f += 1 + nb;
    expect_u += nb * (nb + 1) / 2;
  }
  EXPECT_EQ(tg.total_factor_tasks(), expect_f);
  EXPECT_EQ(tg.total_updates(), expect_u);

  // Per-rank totals sum to the global totals.
  idx_t sum_f = 0, sum_u = 0;
  for (int r = 0; r < 4; ++r) {
    sum_f += tg.owned_factor_tasks(r);
    sum_u += tg.owned_update_tasks(r);
  }
  EXPECT_EQ(sum_f, expect_f);
  EXPECT_EQ(sum_u, expect_u);

  // Update counts per block sum to the number of updates.
  idx_t sum_uc = 0;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    for (BlockSlot s = 0; s <= static_cast<idx_t>(sym.snode(k).blocks.size());
         ++s) {
      sum_uc += tg.update_count(k, s);
    }
  }
  EXPECT_EQ(sum_uc, expect_u);
}

TEST(TaskGraphT, FirstSupernodeHasNoIncomingUpdates) {
  const auto a = ordered(sparse::grid2d_laplacian(8, 8));
  const auto sym = analyze_matrix(a);
  TaskGraph tg(sym, Mapping(2));
  EXPECT_EQ(tg.update_count(0, 0), 0);
}

TEST(TaskGraphT, RecipientsExcludeOwnerAndConsumersIncludeThem) {
  const auto a = ordered(sparse::grid2d_laplacian(14, 14));
  const auto sym = analyze_matrix(a);
  Mapping map(6);
  TaskGraph tg(sym, map);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    for (BlockSlot slot = 0;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const int owner = tg.owner(k, slot);
      const auto recips = tg.recipients(k, slot);
      for (int r : recips) {
        EXPECT_NE(r, owner);
        EXPECT_GE(r, 0);
        EXPECT_LT(r, 6);
      }
      // recipients == consumers \ {owner}
      auto cons = tg.consumers(k, slot);
      std::set<int> cset(cons.begin(), cons.end());
      cset.erase(owner);
      EXPECT_EQ(std::set<int>(recips.begin(), recips.end()), cset);
    }
  }
}

TEST(TaskGraphT, DiagonalRecipientsAreFTaskOwners) {
  const auto a = ordered(sparse::grid2d_laplacian(10, 10));
  const auto sym = analyze_matrix(a);
  Mapping map(4);
  TaskGraph tg(sym, map);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    std::set<int> expect;
    for (const auto& blk : sn.blocks) {
      const int o = map(blk.target, k);
      if (o != map(k, k)) expect.insert(o);
    }
    const auto recips = tg.recipients(k, 0);
    EXPECT_EQ(std::set<int>(recips.begin(), recips.end()), expect);
  }
}

TEST(TaskGraphT, SingleRankOwnsEverything) {
  const auto a = ordered(sparse::grid2d_laplacian(9, 9));
  const auto sym = analyze_matrix(a);
  TaskGraph tg(sym, Mapping(1));
  EXPECT_EQ(tg.owned_factor_tasks(0), tg.total_factor_tasks());
  EXPECT_EQ(tg.owned_update_tasks(0), tg.total_updates());
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    EXPECT_TRUE(tg.recipients(k, 0).empty());
  }
}

}  // namespace
}  // namespace sympack::symbolic

namespace sympack::symbolic {

/// The subtree layer's per-panel rank ranges, for the layer tests.
struct MappingTestPeer {
  /// The rank owning every block of panel j when j lies in a layer
  /// subtree, -1 when j is above the layer (or the map has no layer).
  static int layer_rank(const Mapping& map, idx_t j) {
    if (map.kind() != Mapping::Kind::kSubtreeLayer) return -1;
    const auto& [lo, hi] = (*map.ranges_)[j];
    return hi > lo ? lo : -1;
  }
};

namespace {

TEST(ProportionalMapping, RangesCoverAllRanksAndRespectTree) {
  const auto a = sparse::permute_symmetric(
      sparse::grid2d_laplacian(16, 16),
      ordering::compute_ordering(sparse::grid2d_laplacian(16, 16),
                                 ordering::Method::kNestedDissection));
  const auto parent = ordering::elimination_tree(a);
  const auto sym = analyze(a, parent);
  const int P = 8;
  const auto map = Mapping::build(P, Mapping::Kind::kProportional, sym);
  EXPECT_EQ(map.kind(), Mapping::Kind::kProportional);

  std::set<int> owners;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    for (idx_t i = k; i < sym.num_snodes(); ++i) {
      const int o = map(i, k);
      EXPECT_GE(o, 0);
      EXPECT_LT(o, P);
      owners.insert(o);
    }
  }
  EXPECT_EQ(owners.size(), static_cast<std::size_t>(P));  // all ranks used

  // Tree property: a child panel's owner set is contained in its
  // parent's range, so subtree work stays within its subcube. Verify via
  // the column owner of each supernode vs its parent's spread.
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto& sn = sym.snode(k);
    if (sn.below.empty()) continue;
    const idx_t p = sym.snode_of(sn.below.front());
    // All owners of panel k blocks must be owners reachable in panel p.
    std::set<int> kowners, powners;
    for (idx_t i = 0; i < sym.num_snodes(); ++i) {
      kowners.insert(map(i, k));
      powners.insert(map(i, p));
    }
    for (int o : kowners) EXPECT_TRUE(powners.count(o)) << "snode " << k;
  }
}

TEST(ProportionalMapping, SingleRankDegenerate) {
  const auto a = sparse::tridiagonal(12);
  const auto sym = analyze(a, ordering::elimination_tree(a));
  const auto map = Mapping::build(1, Mapping::Kind::kProportional, sym);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) EXPECT_EQ(map(k, k), 0);
}

TEST(ProportionalMapping, ParseName) {
  EXPECT_EQ(Mapping::parse("proportional"), Mapping::Kind::kProportional);
  EXPECT_EQ(Mapping::parse("subtree"), Mapping::Kind::kProportional);
}

TEST(ProportionalMapping, UnbuiltProportionalThrows) {
  Mapping m(4, Mapping::Kind::kProportional);
  EXPECT_THROW((void)m(0, 0), std::logic_error);
}

// ---- Subtree layer (Geist & Ng's L0 under a 2D top).

constexpr auto kLayer = Mapping::Kind::kSubtreeLayer;

int layer_rank(const Mapping& map, idx_t j) {
  return MappingTestPeer::layer_rank(map, j);
}

/// Parent supernode of panel k, or -1 at a root.
idx_t snode_parent(const Symbolic& sym, idx_t k) {
  const auto& sn = sym.snode(k);
  return sn.below.empty() ? -1 : sym.snode_of(sn.below.front());
}

/// Every owner of panel k's blocks (diagonal first).
std::vector<int> panel_owners(const Symbolic& sym, const Mapping& map,
                              idx_t k) {
  std::vector<int> owners{map(k, k)};
  for (const auto& blk : sym.snode(k).blocks) {
    owners.push_back(map(blk.target, k));
  }
  return owners;
}

struct LayerProblem {
  const char* name;
  CscMatrix a;
  int nranks;
};

std::vector<LayerProblem> layer_problems() {
  std::vector<LayerProblem> v;
  v.push_back({"grid2d_24", ordered(sparse::grid2d_laplacian(24, 24)), 8});
  v.push_back({"grid3d_8", ordered(sparse::grid3d_laplacian(8, 8, 8)), 16});
  v.push_back({"thermal", ordered(sparse::thermal_proxy(0.005)), 8});
  v.push_back({"flan", ordered(sparse::flan_proxy(0.02)), 8});
  v.push_back({"bones", ordered(sparse::bones_proxy(0.02)), 6});
  return v;
}

TEST(SubtreeLayerMapping, OwnersInRangeAndSubtreesOnOneRank) {
  for (const auto& pb : layer_problems()) {
    SCOPED_TRACE(pb.name);
    const auto sym = analyze_matrix(pb.a);
    const auto map = Mapping::build(pb.nranks, kLayer, sym);
    ASSERT_EQ(map.kind(), kLayer) << "layer fell back to 2D";
    std::set<int> layer_ranks;
    for (idx_t k = 0; k < sym.num_snodes(); ++k) {
      const int r = layer_rank(map, k);
      for (const int o : panel_owners(sym, map, k)) {
        EXPECT_GE(o, 0);
        EXPECT_LT(o, pb.nranks);
        if (r >= 0) {
          EXPECT_EQ(o, r) << "panel " << k;  // one owner
        }
      }
      // Closed under descendants: a layer panel's parent is above the
      // layer or in the same subtree, so every child of a layer panel
      // shares its rank; and the top is closed under ancestors.
      const idx_t p = snode_parent(sym, k);
      if (p >= 0 && layer_rank(map, p) >= 0) {
        EXPECT_EQ(r, layer_rank(map, p));
      }
      if (r < 0 && p >= 0) {
        EXPECT_LT(layer_rank(map, p), 0);
      }
      if (r >= 0) layer_ranks.insert(r);
    }
    EXPECT_EQ(layer_ranks.size(), static_cast<std::size_t>(pb.nranks));
  }
}

TEST(SubtreeLayerMapping, LptLoadWithinToleranceOrFallback) {
  for (const auto& pb : layer_problems()) {
    SCOPED_TRACE(pb.name);
    const auto sym = analyze_matrix(pb.a);
    const auto map = Mapping::build(pb.nranks, kLayer, sym);
    if (map.kind() == Mapping::Kind::k2dBlockCyclic) continue;  // fallback
    // Task-count load per rank: 1 + blocks per layer panel.
    std::vector<double> load(static_cast<std::size_t>(pb.nranks), 0.0);
    double total = 0.0;
    for (idx_t k = 0; k < sym.num_snodes(); ++k) {
      const int r = layer_rank(map, k);
      if (r < 0) continue;
      const double tasks = 1.0 + static_cast<double>(sym.snode(k).blocks.size());
      load[static_cast<std::size_t>(r)] += tasks;
      total += tasks;
    }
    const double avg = total / pb.nranks;
    for (const double l : load) {
      EXPECT_LE(l, (1.0 + Mapping::kLayerImbalance) * avg + 1e-9);
    }
  }
}

TEST(SubtreeLayerMapping, FallsBackTo2dOnOneRankAndOnAChain) {
  const auto grid = analyze_matrix(ordered(sparse::grid2d_laplacian(12, 12)));
  EXPECT_EQ(Mapping::build(1, kLayer, grid).kind(),
            Mapping::Kind::k2dBlockCyclic);
  // A tridiagonal matrix in natural order: the supernodal tree is one
  // chain, a single leaf for four ranks.
  SymbolicOptions chain_opts;
  chain_opts.amalgamate = false;
  const auto chain = analyze_matrix(sparse::tridiagonal(12), chain_opts);
  ASSERT_GT(chain.num_snodes(), 1);
  const auto map = Mapping::build(4, kLayer, chain);
  EXPECT_EQ(map.kind(), Mapping::Kind::k2dBlockCyclic);
  const Mapping grid2d(4);
  for (idx_t j = 0; j < chain.num_snodes(); ++j) {
    for (idx_t i = j; i < chain.num_snodes(); ++i) {
      EXPECT_EQ(map(i, j), grid2d(i, j));
    }
  }
}

TEST(SubtreeLayerMapping, Deterministic) {
  const auto sym = analyze_matrix(ordered(sparse::thermal_proxy(0.005)));
  const auto a = Mapping::build(8, kLayer, sym);
  const auto b = Mapping::build(8, kLayer, sym);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    EXPECT_EQ(layer_rank(a, k), layer_rank(b, k));
    EXPECT_EQ(panel_owners(sym, a, k), panel_owners(sym, b, k));
  }
}

TEST(SubtreeLayerMapping, ParseAndKindNameRoundTrip) {
  for (const auto kind :
       {Mapping::Kind::k2dBlockCyclic, Mapping::Kind::kRowCyclic,
        Mapping::Kind::kColCyclic, Mapping::Kind::kProportional, kLayer}) {
    EXPECT_EQ(Mapping::parse(Mapping::kind_name(kind)), kind);
  }
  EXPECT_STREQ(Mapping::kind_name(kLayer), "subtree-layer");
  EXPECT_EQ(Mapping::parse("subtree"), Mapping::Kind::kProportional);
}

TEST(SubtreeLayerMapping, UnbuiltLayerThrows) {
  Mapping m(4, kLayer);
  EXPECT_THROW((void)m(0, 0), std::logic_error);
}

// Flop-bound trees keep the grid: on flan_proxy(1.0) at 4 ranks the
// layer's busiest rank would carry 9.7% more flops than the grid's
// (beyond kLayerFlopExcess), at 16 ranks it carries fewer.
TEST(SubtreeLayerMapping, FallsBackTo2dWhereTheLayerIsFlopBound) {
  const auto sym = analyze_matrix(ordered(sparse::flan_proxy(1.0)));
  EXPECT_EQ(Mapping::build(4, kLayer, sym).kind(),
            Mapping::Kind::k2dBlockCyclic);
  EXPECT_EQ(Mapping::build(16, kLayer, sym).kind(), kLayer);
}

/// Panels with a block whose owner differs between two maps.
std::set<idx_t> moved_panels(const Symbolic& sym, const Mapping& a,
                             const Mapping& b) {
  std::set<idx_t> moved;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    if (panel_owners(sym, a, k) != panel_owners(sym, b, k)) moved.insert(k);
  }
  return moved;
}

// After a death the dead rank owns nothing; every other rank keeps its
// blocks. The dead rank's unstarted layer panels are spread over several
// survivors (whole panels where a new layer balances, the grid above
// it); its started panels deal their blocks (i, j) over the survivors by
// (i + j).
TEST(SubtreeLayerMapping, WithoutDealsTheDeadRanksBlocksOverSurvivors) {
  const auto sym = analyze_matrix(ordered(sparse::thermal_proxy(0.005)));
  const int nranks = 8;
  const int dead = 3;
  const auto map = Mapping::build(nranks, kLayer, sym);
  ASSERT_EQ(map.kind(), kLayer);
  // Started: the dead rank's layer leaves (no child in its subtree).
  std::vector<char> started(static_cast<std::size_t>(sym.num_snodes()), 0);
  std::vector<char> has_child(started.size(), 0);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const idx_t p = snode_parent(sym, k);
    if (p >= 0 && layer_rank(map, k) == dead) has_child[p] = 1;
  }
  std::vector<int> heirs;
  for (int r = 0; r < nranks; ++r) {
    if (r != dead) heirs.push_back(r);
  }
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    started[k] = layer_rank(map, k) == dead && has_child[k] == 0;
  }
  const auto after = map.without(dead, started, sym);
  EXPECT_EQ(after.kind(), kLayer);
  std::set<int> unstarted_owners;
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto before = panel_owners(sym, map, k);
    const auto now = panel_owners(sym, after, k);
    for (std::size_t b = 0; b < now.size(); ++b) {
      EXPECT_NE(now[b], dead) << "panel " << k;
      if (before[b] != dead) {
        EXPECT_EQ(now[b], before[b]) << "panel " << k;
      }
    }
    if (layer_rank(map, k) != dead) continue;
    if (started[k] != 0) {
      const auto& sn = sym.snode(k);
      EXPECT_EQ(after(k, k), heirs[static_cast<std::size_t>(2 * k) % 7]);
      for (const auto& blk : sn.blocks) {
        EXPECT_EQ(after(blk.target, k),
                  heirs[static_cast<std::size_t>(blk.target + k) % 7]);
      }
    } else {
      if (layer_rank(after, k) >= 0) {
        EXPECT_EQ(std::set<int>(now.begin(), now.end()).size(), 1u);
      }
      unstarted_owners.insert(now.begin(), now.end());
    }
  }
  EXPECT_GT(unstarted_owners.size(), 1u);

  // A second death hands the second victim's blocks on and leaves the
  // first hand-over in place.
  const auto twice = after.without(5, started, sym);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    const auto now = panel_owners(sym, after, k);
    const auto later = panel_owners(sym, twice, k);
    for (std::size_t b = 0; b < now.size(); ++b) {
      EXPECT_NE(later[b], dead);
      EXPECT_NE(later[b], 5);
      if (now[b] != 5) {
        EXPECT_EQ(later[b], now[b]);
      }
    }
  }

  // The grid kinds only hand the dead rank's blocks over.
  const Mapping grid(nranks);
  const auto grid_after = grid.without(dead, started, sym);
  EXPECT_EQ(grid_after.kind(), Mapping::Kind::k2dBlockCyclic);
  for (const idx_t k : moved_panels(sym, grid, grid_after)) {
    const auto before = panel_owners(sym, grid, k);
    const auto now = panel_owners(sym, grid_after, k);
    for (std::size_t b = 0; b < now.size(); ++b) {
      EXPECT_NE(now[b], dead);
      if (before[b] != dead) {
        EXPECT_EQ(now[b], before[b]);
      }
    }
  }
}

}  // namespace
}  // namespace sympack::symbolic
