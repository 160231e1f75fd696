// Tests for the sparse-matrix substrate: CSC invariants, COO assembly,
// Matrix Market / Rutherford-Boeing round trips, generators, vector
// helpers, and symmetric permutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csc.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/permute.hpp"
#include "sparse/rb_io.hpp"
#include "support/random.hpp"

namespace sympack::sparse {
namespace {

CscMatrix small_example() {
  // 4x4 SPD:
  //  [ 4 -1  0 -1 ]
  //  [-1  4 -1  0 ]
  //  [ 0 -1  4 -1 ]
  //  [-1  0 -1  4 ]
  CooBuilder b(4);
  for (int i = 0; i < 4; ++i) b.add(i, i, 4.0);
  b.add(1, 0, -1.0);
  b.add(2, 1, -1.0);
  b.add(3, 2, -1.0);
  b.add(3, 0, -1.0);
  return b.build();
}

TEST(Csc, BasicAccessors) {
  const auto a = small_example();
  EXPECT_EQ(a.n(), 4);
  EXPECT_EQ(a.nnz_stored(), 8);
  EXPECT_EQ(a.nnz_full(), 12);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);  // mirrored access
  EXPECT_DOUBLE_EQ(a.at(2, 0), 0.0);
  EXPECT_TRUE(a.has_entry(3, 0));
  EXPECT_FALSE(a.has_entry(2, 0));
}

TEST(Csc, SymvMatchesDense) {
  const auto a = small_example();
  const auto d = a.to_dense();
  std::vector<double> x = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> y(4), y_ref(4, 0.0);
  a.symv(x.data(), y.data());
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) y_ref[i] += d[j * 4 + i] * x[j];
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-14);
}

TEST(Csc, ToDenseIsSymmetric) {
  const auto a = thermal_irregular(8, 8, 0.3, 42);
  const auto d = a.to_dense();
  const auto n = a.n();
  for (idx_t i = 0; i < n; ++i) {
    for (idx_t j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(d[i * n + j], d[j * n + i]);
    }
  }
}

TEST(Csc, ValidateCatchesUnsortedRows) {
  std::vector<idx_t> colptr = {0, 3, 4};
  std::vector<idx_t> rowind = {0, 1, 1, 1};  // duplicate row in col 0
  std::vector<double> vals = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(CscMatrix(2, colptr, rowind, vals), std::runtime_error);
}

TEST(Csc, ValidateCatchesUpperTriangleEntry) {
  std::vector<idx_t> colptr = {0, 1, 3};
  std::vector<idx_t> rowind = {0, 0, 1};  // (0,1) is upper triangle
  std::vector<double> vals = {1.0, 2.0, 3.0};
  EXPECT_THROW(CscMatrix(2, colptr, rowind, vals), std::runtime_error);
}

TEST(Csc, ValidateCatchesMissingDiagonal) {
  std::vector<idx_t> colptr = {0, 2, 3};
  std::vector<idx_t> rowind = {0, 1, 1};
  std::vector<double> vals = {1.0, 2.0, 3.0};
  CscMatrix ok(2, colptr, rowind, vals);  // fine: both diagonals present
  std::vector<idx_t> colptr2 = {0, 1, 1};
  std::vector<idx_t> rowind2 = {0};
  std::vector<double> vals2 = {1.0};
  EXPECT_THROW(CscMatrix(2, colptr2, rowind2, vals2), std::runtime_error);
}

TEST(Csc, ShiftDiagonal) {
  auto a = small_example();
  a.shift_diagonal(1.5);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 5.5);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
}

TEST(Csc, Norm1) {
  const auto a = small_example();
  EXPECT_DOUBLE_EQ(a.norm1(), 6.0);  // every column sums |4|+|{-1}|*2
}

TEST(Coo, SumsDuplicates) {
  CooBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(2, 1, 2.0);
  b.add(1, 2, 3.0);  // mirrored to (2,1)
  b.add(1, 1, 5.0);
  b.add(2, 2, 5.0);
  const auto a = b.build();
  EXPECT_DOUBLE_EQ(a.at(2, 1), 5.0);
}

TEST(Coo, InsertsMissingDiagonals) {
  CooBuilder b(2);
  b.add(1, 0, -1.0);
  b.add(0, 0, 2.0);
  const auto a = b.build();  // would throw if (1,1) were absent
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
  EXPECT_EQ(a.nnz_stored(), 3);
}

TEST(Coo, RejectsOutOfRange) {
  CooBuilder b(2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, -1, 1.0), std::out_of_range);
}

TEST(MatrixMarket, RoundTrip) {
  const auto a = thermal_irregular(6, 7, 0.4, 7);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const auto b = read_matrix_market(ss);
  ASSERT_EQ(b.n(), a.n());
  ASSERT_EQ(b.nnz_stored(), a.nnz_stored());
  for (idx_t j = 0; j < a.n(); ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      EXPECT_DOUBLE_EQ(b.at(a.rowind()[p], j), a.values()[p]);
    }
  }
}

TEST(MatrixMarket, ReadsGeneralSymmetricInput) {
  // Both triangles stored; reader keeps the lower one.
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real general\n"
     << "% comment\n"
     << "2 2 4\n"
     << "1 1 2.0\n"
     << "2 1 -1.0\n"
     << "1 2 -1.0\n"
     << "2 2 2.0\n";
  const auto a = read_matrix_market(ss);
  EXPECT_EQ(a.n(), 2);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_EQ(a.nnz_stored(), 3);
}

std::string mm_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)read_matrix_market(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(MatrixMarket, RejectsNonsymmetricGeneralInput) {
  // A 3x3 general matrix with a full diagonal plus `offdiag`.
  const auto general = [](const std::vector<std::string>& offdiag) {
    std::string text = "%%MatrixMarket matrix coordinate real general\n3 3 " +
                       std::to_string(3 + offdiag.size()) +
                       "\n1 1 2.0\n2 2 2.0\n3 3 2.0\n";
    for (const auto& e : offdiag) text += e + "\n";
    return text;
  };
  ASSERT_EQ(mm_error(general({"2 1 -1.0", "1 2 -1.0"})), "");
  // Mismatched values, named by the lower entry of the pair.
  EXPECT_NE(mm_error(general({"2 1 -1.0", "1 2 -0.5"})).find("(2, 1)"),
            std::string::npos);
  // A lower entry without its mirror...
  EXPECT_NE(mm_error(general({"2 1 -1.0", "1 2 -1.0", "3 1 -1.0"}))
                .find("(3, 1) has no equal entry (1, 3)"),
            std::string::npos);
  // ...and an upper entry without its mirror.
  EXPECT_NE(mm_error(general({"2 1 -1.0", "1 2 -1.0", "2 3 -1.0"}))
                .find("(2, 3) has no equal entry (3, 2)"),
            std::string::npos);
  // A general pattern matrix is checked for structural symmetry.
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate pattern general\n"
                     "2 2 3\n1 1\n2 2\n2 1\n")
                .find("(2, 1)"),
            std::string::npos);
}

TEST(MatrixMarket, RejectsNonFiniteValues) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999"}) {
    const std::string msg =
        mm_error(std::string("%%MatrixMarket matrix coordinate real "
                             "symmetric\n2 2 2\n1 1 2.0\n2 1 ") +
                 bad + "\n");
    EXPECT_NE(msg.find("non-finite"), std::string::npos) << bad;
    EXPECT_NE(msg.find("(2, 1)"), std::string::npos) << bad;
  }
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate real symmetric\n"
                     "1 1 1\n1 1 2.0x\n")
                .find("malformed value"),
            std::string::npos);
}

TEST(MatrixMarket, RejectsEntryOutsideTheMatrix) {
  // An upper entry of a general matrix is range-checked too, although
  // only its lower mirror is stored.
  for (const char* bad : {"3 1 1.0", "1 3 1.0", "0 1 1.0", "1 -2 1.0"}) {
    EXPECT_NE(mm_error(std::string("%%MatrixMarket matrix coordinate real "
                                   "general\n2 2 2\n1 1 2.0\n") +
                       bad + "\n")
                  .find("outside the matrix"),
              std::string::npos)
        << bad;
  }
}

TEST(MatrixMarket, ReadsPattern) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern symmetric\n"
     << "3 3 4\n"
     << "1 1\n2 2\n3 3\n3 1\n";
  const auto a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(2, 0), 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream ss;
  ss << "not a matrix\n";
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsRectangular) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n1 1 1.0\n";
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncated) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1.0\n";
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(RutherfordBoeing, RoundTrip) {
  const auto a = grid2d_laplacian(5, 4);
  std::stringstream ss;
  write_rutherford_boeing(ss, a, "test matrix", "T1");
  const auto b = read_rutherford_boeing(ss);
  ASSERT_EQ(b.n(), a.n());
  ASSERT_EQ(b.nnz_stored(), a.nnz_stored());
  for (idx_t j = 0; j < a.n(); ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      EXPECT_NEAR(b.at(a.rowind()[p], j), a.values()[p], 1e-14);
    }
  }
}

TEST(RutherfordBoeing, RejectsUnsupportedType) {
  std::stringstream ss;
  ss << "title                                                                   KEY\n"
     << "3 1 1 1\n"
     << "rua 2 2 2 0\n"
     << "(x) (x) (x)\n";
  EXPECT_THROW(read_rutherford_boeing(ss), std::runtime_error);
}

TEST(Generators, Grid2dShape) {
  const auto a = grid2d_laplacian(4, 3);
  EXPECT_EQ(a.n(), 12);
  // Interior node degree 4 + shift.
  EXPECT_NEAR(a.at(5, 5), 4.01, 1e-12);
  // Corner degree 2.
  EXPECT_NEAR(a.at(0, 0), 2.01, 1e-12);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 0), -1.0);
}

TEST(Generators, Grid3dSevenPointCounts) {
  const auto a = grid3d_laplacian(3, 3, 3);
  EXPECT_EQ(a.n(), 27);
  // Each of the 27 nodes has a diagonal; edges: 3 directions * 2*3*3*... =
  // 54 grid edges for a 3^3 grid: 2*3*3 per direction * 3 = 54.
  EXPECT_EQ(a.nnz_stored(), 27 + 54);
}

TEST(Generators, Grid3d27PointDenser) {
  const auto a7 = grid3d_laplacian(4, 4, 4, Stencil3D::kSevenPoint);
  const auto a27 = grid3d_laplacian(4, 4, 4, Stencil3D::kTwentySevenPoint);
  EXPECT_GT(a27.nnz_stored(), 2 * a7.nnz_stored());
}

TEST(Generators, ElasticityHasThreeDofBlocks) {
  const auto a = elasticity3d(2, 2, 2);
  EXPECT_EQ(a.n(), 24);
  // dofs of the same node couple through shared edges only in the
  // off-diagonal; diagonal must be strongly dominant.
  for (idx_t j = 0; j < a.n(); ++j) EXPECT_GT(a.at(j, j), 0.0);
}

TEST(Generators, AllGeneratorsProduceValidatedSpd) {
  // validate() runs in each constructor; additionally check diagonal
  // dominance which implies SPD for these generators.
  for (const auto& a :
       {grid2d_laplacian(7, 5, Stencil2D::kNinePoint),
        grid3d_laplacian(4, 3, 5), elasticity3d(3, 2, 2),
        thermal_irregular(9, 9, 0.5, 3), random_spd(40, 4.0, 11),
        tridiagonal(10), arrow(8), dense_spd(6, 5)}) {
    std::vector<double> offdiag_sum(a.n(), 0.0);
    for (idx_t j = 0; j < a.n(); ++j) {
      for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
        const idx_t i = a.rowind()[p];
        if (i != j) {
          offdiag_sum[j] += std::fabs(a.values()[p]);
          offdiag_sum[i] += std::fabs(a.values()[p]);
        }
      }
    }
    for (idx_t j = 0; j < a.n(); ++j) {
      EXPECT_GT(a.at(j, j), offdiag_sum[j] - 1e-9)
          << "column " << j << " not diagonally dominant";
    }
  }
}

TEST(Generators, DeterministicForSeed) {
  const auto a = thermal_irregular(10, 10, 0.4, 99);
  const auto b = thermal_irregular(10, 10, 0.4, 99);
  EXPECT_EQ(a.nnz_stored(), b.nnz_stored());
  for (std::size_t p = 0; p < a.values().size(); ++p) {
    EXPECT_DOUBLE_EQ(a.values()[p], b.values()[p]);
  }
}

TEST(Generators, ProxySuiteSizes) {
  const auto flan = flan_proxy(0.02);
  const auto bones = bones_proxy(0.02);
  const auto thermal = thermal_proxy(0.02);
  EXPECT_GT(flan.n(), 0);
  EXPECT_GT(bones.n(), 0);
  EXPECT_GT(thermal.n(), 0);
  EXPECT_EQ(bones.n() % 3, 0);  // 3 dofs per node
  // thermal is the sparsest (nnz/n smallest), flan the densest — the
  // regime relationship from Table 1.
  const double d_flan =
      static_cast<double>(flan.nnz_stored()) / static_cast<double>(flan.n());
  const double d_thermal = static_cast<double>(thermal.nnz_stored()) /
                           static_cast<double>(thermal.n());
  EXPECT_GT(d_flan, d_thermal);
}

TEST(Generators, RejectsEmpty) {
  EXPECT_THROW(grid2d_laplacian(0, 3), std::invalid_argument);
  EXPECT_THROW(grid3d_laplacian(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(random_spd(0, 1.0, 1), std::invalid_argument);
}

TEST(DenseVec, DotNormAxpy) {
  std::vector<double> x = {1.0, 2.0, 2.0};
  std::vector<double> y = {1.0, 0.0, -1.0};
  EXPECT_DOUBLE_EQ(dot(x, y), -1.0);
  EXPECT_DOUBLE_EQ(norm2(x), 3.0);
  EXPECT_DOUBLE_EQ(norm_inf(y), 1.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
}

TEST(DenseVec, ResidualZeroForExactSolution) {
  const auto a = grid2d_laplacian(6, 6);
  const auto b = rhs_for_ones(a);
  const std::vector<double> ones(a.n(), 1.0);
  EXPECT_LT(relative_residual(a, ones, b), 1e-14);
}

TEST(DenseVec, ResidualLargeForWrongSolution) {
  const auto a = grid2d_laplacian(6, 6);
  const auto b = rhs_for_ones(a);
  std::vector<double> zeros(a.n(), 0.0);
  EXPECT_GT(relative_residual(a, zeros, b), 1e-3);
}

TEST(Permute, InverseRoundTrip) {
  std::vector<idx_t> perm = {2, 0, 3, 1};
  const auto inv = invert_permutation(perm);
  EXPECT_EQ(inv[2], 0);
  EXPECT_EQ(inv[0], 1);
  for (idx_t k = 0; k < 4; ++k) EXPECT_EQ(inv[perm[k]], k);
}

TEST(Permute, DetectsNonPermutation) {
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 3}));
  EXPECT_TRUE(is_permutation({1, 0, 2}));
  EXPECT_THROW(invert_permutation({0, 0}), std::invalid_argument);
}

TEST(Permute, SymmetricPermutePreservesValues) {
  const auto a = thermal_irregular(5, 5, 0.4, 13);
  support::Xoshiro256 rng(77);
  auto perm = identity_permutation(a.n());
  // Fisher-Yates shuffle.
  for (idx_t k = a.n() - 1; k > 0; --k) {
    std::swap(perm[k], perm[rng.next_below(k + 1)]);
  }
  const auto b = permute_symmetric(a, perm);
  EXPECT_EQ(b.nnz_stored(), a.nnz_stored());
  for (idx_t jn = 0; jn < a.n(); ++jn) {
    for (idx_t in = jn; in < a.n(); ++in) {
      EXPECT_DOUBLE_EQ(b.at(in, jn), a.at(perm[in], perm[jn]));
    }
  }
}

// The route permute_symmetric took before its count-and-scatter rewrite:
// every permuted entry through CooBuilder's global sort.
CscMatrix permute_via_coo(const CscMatrix& a, const std::vector<idx_t>& perm) {
  const auto iperm = invert_permutation(perm);
  CooBuilder builder(a.n());
  for (idx_t j = 0; j < a.n(); ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      builder.add(iperm[a.rowind()[p]], iperm[j], a.values()[p]);
    }
  }
  return builder.build();
}

TEST(Permute, SymmetricPermuteMatchesCooPathBitwise) {
  const CscMatrix matrices[] = {
      grid2d_laplacian(9, 7),    grid3d_laplacian(5, 4, 3),
      elasticity3d(3, 3, 2),     thermal_irregular(12, 10, 0.3, 5),
      random_spd(150, 6.0, 11),  tridiagonal(40),
      arrow(30),                 dense_spd(12, 3),
      flan_proxy(0.02),          bones_proxy(0.02),
      thermal_proxy(0.005),
  };
  support::Xoshiro256 rng(2024);
  for (const CscMatrix& a : matrices) {
    auto shuffled = identity_permutation(a.n());
    for (idx_t k = a.n() - 1; k > 0; --k) {
      std::swap(shuffled[k], shuffled[rng.next_below(k + 1)]);
    }
    auto reversed = identity_permutation(a.n());
    std::reverse(reversed.begin(), reversed.end());
    for (const auto& perm :
         {identity_permutation(a.n()), reversed, shuffled}) {
      const CscMatrix fast = permute_symmetric(a, perm);
      const CscMatrix ref = permute_via_coo(a, perm);
      EXPECT_EQ(fast.colptr(), ref.colptr());
      EXPECT_EQ(fast.rowind(), ref.rowind());
      ASSERT_EQ(fast.values().size(), ref.values().size());
      EXPECT_EQ(std::memcmp(fast.values().data(), ref.values().data(),
                            fast.values().size() * sizeof(double)),
                0);
    }
  }
}

TEST(Permute, VectorRoundTrip) {
  std::vector<double> x = {10.0, 20.0, 30.0, 40.0};
  std::vector<idx_t> perm = {3, 1, 0, 2};
  const auto px = permute_vector(x, perm);
  EXPECT_DOUBLE_EQ(px[0], 40.0);
  const auto back = unpermute_vector(px, perm);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(back[i], x[i]);
}

TEST(Permute, Compose) {
  std::vector<idx_t> p1 = {2, 0, 1};
  std::vector<idx_t> p2 = {1, 2, 0};
  const auto c = compose(p1, p2);
  EXPECT_EQ(c[0], p1[p2[0]]);
  EXPECT_EQ(c[1], p1[p2[1]]);
  EXPECT_EQ(c[2], p1[p2[2]]);
}

}  // namespace
}  // namespace sympack::sparse
