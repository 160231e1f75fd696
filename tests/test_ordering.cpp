// Tests for the ordering module: graph construction, elimination tree,
// postorder, column counts, and the three fill-reducing orderings
// (RCM, AMD, nested dissection). Property-style sweeps check that every
// ordering is a permutation and that fill-reducing methods beat the
// natural ordering on structured problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ordering/amd.hpp"
#include "ordering/etree.hpp"
#include "ordering/graph.hpp"
#include "ordering/nd.hpp"
#include "ordering/ordering.hpp"
#include "ordering/rcm.hpp"
#include "sparse/coo.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "support/random.hpp"

namespace sympack::ordering {
namespace {

using sparse::CscMatrix;

// Reference fill computation: dense symbolic Cholesky on the permuted
// pattern. O(n^3) — small matrices only.
idx_t dense_symbolic_fill(const CscMatrix& a) {
  const idx_t n = a.n();
  std::vector<bool> pat(static_cast<std::size_t>(n) * n, false);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      pat[static_cast<std::size_t>(j) * n + a.rowind()[p]] = true;
    }
  }
  idx_t nnz = 0;
  for (idx_t k = 0; k < n; ++k) {
    for (idx_t i = k; i < n; ++i) nnz += pat[static_cast<std::size_t>(k) * n + i];
    for (idx_t i = k + 1; i < n; ++i) {
      if (!pat[static_cast<std::size_t>(k) * n + i]) continue;
      for (idx_t j = k + 1; j <= i; ++j) {
        if (pat[static_cast<std::size_t>(k) * n + j]) {
          pat[static_cast<std::size_t>(j) * n + i] = true;
        }
      }
    }
  }
  return nnz;
}

TEST(Graph, BuildFromCsc) {
  const auto a = sparse::grid2d_laplacian(3, 2);
  const Graph g = build_graph(a);
  EXPECT_EQ(g.n, 6);
  EXPECT_EQ(g.edges(), 7);  // 2x3 grid: 3+4 edges
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 3);
}

TEST(Graph, InducedSubgraph) {
  const auto a = sparse::grid2d_laplacian(3, 3);
  const Graph g = build_graph(a);
  // Take the middle row of the grid: vertices 3,4,5 form a path.
  const Graph sub = induced_subgraph(g, {3, 4, 5});
  EXPECT_EQ(sub.n, 3);
  EXPECT_EQ(sub.edges(), 2);
  EXPECT_EQ(sub.degree(1), 2);
}

TEST(Graph, InducedSubgraphScratchMapIsResetAndMatches) {
  const auto a = sparse::grid2d_laplacian(4, 4);
  const Graph g = build_graph(a);
  const std::vector<idx_t> vertices = {5, 1, 6, 9, 10, 2};
  std::vector<idx_t> local(g.n, -1);
  const Graph with_map = induced_subgraph(g, vertices, local);
  const Graph fresh = induced_subgraph(g, vertices);
  EXPECT_EQ(with_map.adjptr, fresh.adjptr);
  EXPECT_EQ(with_map.adjind, fresh.adjind);
  EXPECT_EQ(local, std::vector<idx_t>(g.n, -1));
}

TEST(Graph, PseudoPeripheralLevelsAreTheRootsBfs) {
  for (const auto& a : {sparse::tridiagonal(9), sparse::grid2d_laplacian(7, 5),
                        sparse::thermal_proxy(0.005)}) {
    const Graph g = build_graph(a);
    std::vector<idx_t> levels;
    const idx_t root = pseudo_peripheral(g, 0, levels);
    EXPECT_EQ(root, pseudo_peripheral(g, 0));
    EXPECT_EQ(levels, bfs_levels(g, root));
  }
}

TEST(Graph, BfsLevels) {
  const auto a = sparse::tridiagonal(5);
  const Graph g = build_graph(a);
  const auto level = bfs_levels(g, 0);
  for (idx_t v = 0; v < 5; ++v) EXPECT_EQ(level[v], v);
}

TEST(Graph, PseudoPeripheralOnPath) {
  const auto a = sparse::tridiagonal(9);
  const Graph g = build_graph(a);
  const idx_t v = pseudo_peripheral(g, 4);
  EXPECT_TRUE(v == 0 || v == 8);
}

TEST(Graph, ConnectedComponents) {
  // Two disjoint paths via a block-diagonal matrix.
  sparse::CooBuilder b(6);
  for (int i = 0; i < 6; ++i) b.add(i, i, 2.0);
  b.add(1, 0, -1.0);
  b.add(2, 1, -1.0);
  b.add(4, 3, -1.0);
  b.add(5, 4, -1.0);
  const Graph g = build_graph(b.build());
  const auto [comp, count] = connected_components(g);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_EQ(comp[3], comp[5]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(Etree, TridiagonalIsAPath) {
  const auto a = sparse::tridiagonal(6);
  const auto parent = elimination_tree(a);
  for (idx_t j = 0; j + 1 < 6; ++j) EXPECT_EQ(parent[j], j + 1);
  EXPECT_EQ(parent[5], -1);
}

TEST(Etree, ArrowMatrixAllPointToLast) {
  const auto a = sparse::arrow(5);
  const auto parent = elimination_tree(a);
  for (idx_t j = 0; j + 1 < 5; ++j) EXPECT_EQ(parent[j], 4);
}

TEST(Etree, ValidForGeneratedMatrices) {
  for (const auto& a :
       {sparse::grid2d_laplacian(6, 5), sparse::grid3d_laplacian(3, 4, 3),
        sparse::thermal_irregular(7, 7, 0.4, 3),
        sparse::random_spd(60, 4.0, 5)}) {
    const auto parent = elimination_tree(a);
    EXPECT_TRUE(is_valid_etree(parent));
  }
}

TEST(Etree, PostorderVisitsChildrenFirst) {
  const auto a = sparse::grid2d_laplacian(5, 4);
  const auto parent = elimination_tree(a);
  const auto post = postorder(parent);
  ASSERT_EQ(post.size(), parent.size());
  std::vector<idx_t> position(post.size());
  for (std::size_t k = 0; k < post.size(); ++k) position[post[k]] = k;
  for (std::size_t j = 0; j < parent.size(); ++j) {
    if (parent[j] >= 0) {
      EXPECT_LT(position[j], position[parent[j]]);
    }
  }
}

TEST(Etree, PostorderIsPermutation) {
  const auto a = sparse::random_spd(40, 3.0, 9);
  const auto post = postorder(elimination_tree(a));
  EXPECT_TRUE(sparse::is_permutation(post));
}

TEST(Etree, ColumnCountsTridiagonal) {
  const auto a = sparse::tridiagonal(5);
  const auto parent = elimination_tree(a);
  const auto counts = column_counts(a, parent);
  // Tridiagonal L: each column has diag + 1 subdiagonal, except last.
  for (idx_t j = 0; j + 1 < 5; ++j) EXPECT_EQ(counts[j], 2);
  EXPECT_EQ(counts[4], 1);
  EXPECT_EQ(factor_nnz(counts), 9);
}

TEST(Etree, ColumnCountsMatchDenseSymbolic) {
  for (const auto& a :
       {sparse::grid2d_laplacian(5, 5), sparse::thermal_irregular(6, 6, 0.5, 7),
        sparse::random_spd(40, 3.0, 21), sparse::arrow(12)}) {
    const auto parent = elimination_tree(a);
    const auto counts = column_counts(a, parent);
    EXPECT_EQ(factor_nnz(counts), dense_symbolic_fill(a));
  }
}

TEST(Etree, FlopsPositive) {
  const auto a = sparse::grid2d_laplacian(4, 4);
  const auto counts = column_counts(a, elimination_tree(a));
  EXPECT_GT(factor_flops(counts), 0.0);
}

struct OrderingCase {
  Method method;
  const char* name;
};

class OrderingSweep : public ::testing::TestWithParam<OrderingCase> {};

TEST_P(OrderingSweep, ProducesPermutationOnVariedGraphs) {
  const auto method = GetParam().method;
  for (const auto& a :
       {sparse::grid2d_laplacian(7, 6), sparse::grid3d_laplacian(3, 3, 4),
        sparse::thermal_irregular(8, 8, 0.4, 17),
        sparse::random_spd(70, 4.0, 23), sparse::tridiagonal(15),
        sparse::arrow(10), sparse::dense_spd(8, 2)}) {
    const auto perm = compute_ordering(a, method);
    EXPECT_TRUE(sparse::is_permutation(perm))
        << method_name(method) << " on n=" << a.n();
  }
}

TEST_P(OrderingSweep, HandlesDisconnectedGraphs) {
  sparse::CooBuilder b(8);
  for (int i = 0; i < 8; ++i) b.add(i, i, 2.0);
  b.add(1, 0, -1.0);
  b.add(2, 1, -1.0);
  b.add(5, 4, -1.0);
  b.add(7, 6, -1.0);
  const auto a = b.build();
  const auto perm = compute_ordering(a, GetParam().method);
  EXPECT_TRUE(sparse::is_permutation(perm));
}

TEST_P(OrderingSweep, SingletonGraph) {
  const auto a = sparse::tridiagonal(1);
  const auto perm = compute_ordering(a, GetParam().method);
  ASSERT_EQ(perm.size(), 1u);
  EXPECT_EQ(perm[0], 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, OrderingSweep,
    ::testing::Values(OrderingCase{Method::kNatural, "natural"},
                      OrderingCase{Method::kRcm, "rcm"},
                      OrderingCase{Method::kAmd, "amd"},
                      OrderingCase{Method::kNestedDissection, "nd"}),
    [](const auto& info) { return info.param.name; });

TEST(Amd, ArrowMatrixOrdersHubLast) {
  // Minimum degree on an arrow matrix must defer the hub: eliminating the
  // hub first creates a dense clique; eliminating leaves first creates no
  // fill at all.
  const auto a = sparse::arrow(20);
  const auto perm = amd(build_graph(a));
  EXPECT_EQ(perm.back(), 19);
  const auto stats = evaluate_ordering(a, perm);
  EXPECT_EQ(stats.factor_nnz, 2 * 20 - 1);  // no fill
}

TEST(Amd, ReducesFillVersusNaturalOnGrid) {
  const auto a = sparse::grid2d_laplacian(16, 16);
  const auto natural = evaluate_ordering(a, sparse::identity_permutation(a.n()));
  const auto ordered = evaluate_ordering(a, compute_ordering(a, Method::kAmd));
  EXPECT_LT(ordered.factor_nnz, natural.factor_nnz);
  EXPECT_LT(ordered.flops, natural.flops);
}

TEST(NestedDissection, ReducesFillVersusNaturalOnGrid) {
  const auto a = sparse::grid2d_laplacian(16, 16);
  const auto natural = evaluate_ordering(a, sparse::identity_permutation(a.n()));
  const auto ordered =
      evaluate_ordering(a, compute_ordering(a, Method::kNestedDissection));
  EXPECT_LT(ordered.factor_nnz, natural.factor_nnz);
}

TEST(NestedDissection, CompetitiveWithAmdOnLargerGrid) {
  // ND's asymptotic advantage shows on bigger grids; here we only require
  // it to stay within a reasonable factor of AMD (shape check, both far
  // better than natural).
  const auto a = sparse::grid2d_laplacian(24, 24);
  const auto nd_stats =
      evaluate_ordering(a, compute_ordering(a, Method::kNestedDissection));
  const auto amd_stats =
      evaluate_ordering(a, compute_ordering(a, Method::kAmd));
  const auto nat =
      evaluate_ordering(a, sparse::identity_permutation(a.n()));
  EXPECT_LT(nd_stats.factor_nnz, nat.factor_nnz);
  EXPECT_LT(nd_stats.factor_nnz, 3 * amd_stats.factor_nnz);
}

// nested_dissection(build_graph(proxy)) pinned bit for bit: FNV-1a of the
// permutation, captured before its scratch-map and BFS-reuse
// optimizations. Any change of the separators or leaf orders flips it.
std::uint64_t permutation_hash(const std::vector<idx_t>& perm) {
  std::uint64_t h = 14695981039346656037ull;
  for (const idx_t v : perm) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof v; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(NestedDissection, ProxyPermutationsMatchCapture) {
  struct Row {
    const char* name;
    CscMatrix a;
    std::uint64_t hash;
  };
  const Row rows[] = {
      {"flan0.02", sparse::flan_proxy(0.02), 0x8e30ecf7eb7123a5ull},
      {"bones0.02", sparse::bones_proxy(0.02), 0x8223ab69b0087625ull},
      {"thermal0.005", sparse::thermal_proxy(0.005), 0x771671f667ffa441ull},
      {"flan0.25", sparse::flan_proxy(0.25), 0x54ee2932bfd23ec1ull},
      {"bones0.25", sparse::bones_proxy(0.25), 0x85561a1f2228e021ull},
      {"thermal0.1", sparse::thermal_proxy(0.1), 0x76a9720adf78d375ull},
      {"flan1", sparse::flan_proxy(1.0), 0xebe08a37720c5865ull},
      {"bones1", sparse::bones_proxy(1.0), 0xc6b35f8ee65f6611ull},
      {"thermal1", sparse::thermal_proxy(1.0), 0x27ae8dc36e971d99ull},
  };
  for (const Row& r : rows) {
    const std::uint64_t h =
        permutation_hash(nested_dissection(build_graph(r.a)));
    EXPECT_EQ(h, r.hash) << r.name << " actual=0x" << std::hex << h << "ull";
  }
}

TEST(Rcm, ReducesBandwidthOnShuffledPath) {
  // A path shuffled by a random permutation has terrible bandwidth; RCM
  // restores a path-like numbering.
  const auto a = sparse::tridiagonal(50);
  support::Xoshiro256 rng(31);
  auto shuffle = sparse::identity_permutation(50);
  for (idx_t k = 49; k > 0; --k) {
    std::swap(shuffle[k], shuffle[rng.next_below(k + 1)]);
  }
  const auto shuffled = sparse::permute_symmetric(a, shuffle);
  auto bandwidth = [](const CscMatrix& m) {
    idx_t bw = 0;
    for (idx_t j = 0; j < m.n(); ++j) {
      for (idx_t p = m.colptr()[j]; p < m.colptr()[j + 1]; ++p) {
        bw = std::max(bw, m.rowind()[p] - j);
      }
    }
    return bw;
  };
  const auto perm = rcm(build_graph(shuffled));
  const auto restored = sparse::permute_symmetric(shuffled, perm);
  EXPECT_LE(bandwidth(restored), 2);
  EXPECT_GT(bandwidth(shuffled), 10);
}

TEST(OrderingApi, ParseAndName) {
  EXPECT_EQ(parse_method("natural"), Method::kNatural);
  EXPECT_EQ(parse_method("rcm"), Method::kRcm);
  EXPECT_EQ(parse_method("amd"), Method::kAmd);
  EXPECT_EQ(parse_method("nd"), Method::kNestedDissection);
  EXPECT_EQ(parse_method("SCOTCH"), Method::kNestedDissection);
  EXPECT_THROW(parse_method("bogus"), std::invalid_argument);
  EXPECT_EQ(method_name(Method::kAmd), "amd");
}

TEST(OrderingApi, EvaluateOrderingIdentityMatchesDirect) {
  const auto a = sparse::grid2d_laplacian(6, 6);
  const auto stats =
      evaluate_ordering(a, sparse::identity_permutation(a.n()));
  const auto counts = column_counts(a, elimination_tree(a));
  EXPECT_EQ(stats.factor_nnz, factor_nnz(counts));
}

// ------------------------------------------------------------------
// compute_ordering renumbers ND and AMD in an etree postorder: the fill
// is that of the raw ordering, and every subtree is a contiguous column
// range (what relaxed amalgamation needs to merge chains).

struct PostorderCase {
  const char* matrix;
  Method method;
};

CscMatrix postorder_case_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  if (name == "thermal") return sparse::thermal_proxy(0.005);
  return sparse::random_spd(400, 6.0, 17);
}

std::vector<idx_t> raw_ordering(const CscMatrix& a, Method method) {
  const Graph g = build_graph(a);
  return method == Method::kAmd ? amd(g) : nested_dissection(g);
}

class PostorderedOrdering : public ::testing::TestWithParam<PostorderCase> {};

TEST_P(PostorderedOrdering, EverySubtreeIsAContiguousColumnRange) {
  const auto a = postorder_case_matrix(GetParam().matrix);
  const auto perm = compute_ordering(a, GetParam().method);
  const auto parent = elimination_tree(sparse::permute_symmetric(a, perm));
  // Subtree size and smallest member, accumulated child to parent
  // (parent[j] > j). Subtree(j) holds size[j] distinct columns <= j, so
  // it is the range [j - size[j] + 1, j] iff its minimum is that.
  const idx_t n = a.n();
  std::vector<idx_t> size(n, 1);
  std::vector<idx_t> lowest(n);
  for (idx_t j = 0; j < n; ++j) lowest[j] = j;
  for (idx_t j = 0; j < n; ++j) {
    if (parent[j] < 0) continue;
    size[parent[j]] += size[j];
    lowest[parent[j]] = std::min(lowest[parent[j]], lowest[j]);
  }
  for (idx_t j = 0; j < n; ++j) {
    ASSERT_EQ(lowest[j], j - size[j] + 1) << "subtree of column " << j;
  }
}

TEST_P(PostorderedOrdering, FillEqualsRawOrdering) {
  const auto a = postorder_case_matrix(GetParam().matrix);
  const auto post = evaluate_ordering(a, compute_ordering(a, GetParam().method));
  const auto raw = evaluate_ordering(a, raw_ordering(a, GetParam().method));
  EXPECT_EQ(post.factor_nnz, raw.factor_nnz);
  EXPECT_EQ(post.flops, raw.flops);
}

TEST_P(PostorderedOrdering, GraphEtreeMatchesPermutedMatrixEtree) {
  const auto a = postorder_case_matrix(GetParam().matrix);
  const Graph g = build_graph(a);
  for (const auto& perm : {raw_ordering(a, GetParam().method),
                           compute_ordering(a, GetParam().method)}) {
    EXPECT_EQ(elimination_tree(g, perm),
              elimination_tree(sparse::permute_symmetric(a, perm)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProxiesAndRandom, PostorderedOrdering,
    ::testing::Values(PostorderCase{"flan", Method::kNestedDissection},
                      PostorderCase{"bones", Method::kNestedDissection},
                      PostorderCase{"thermal", Method::kNestedDissection},
                      PostorderCase{"random", Method::kNestedDissection},
                      PostorderCase{"flan", Method::kAmd},
                      PostorderCase{"bones", Method::kAmd},
                      PostorderCase{"thermal", Method::kAmd},
                      PostorderCase{"random", Method::kAmd}),
    [](const ::testing::TestParamInfo<PostorderCase>& info) {
      return std::string(info.param.matrix) + "_" +
             method_name(info.param.method);
    });

}  // namespace
}  // namespace sympack::ordering
