// End-to-end correctness tests for the symPACK solver: the distributed
// fan-out factorization must reproduce the reference Cholesky factor, and
// factorize+solve must give tiny residuals — across matrices, rank
// counts, orderings, scheduling policies, GPU on/off, and the threaded
// runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "blas/blas.hpp"
#include "core/solver.hpp"
#include "legacy_options.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "support/random.hpp"

namespace sympack::core {
namespace {

using sparse::CscMatrix;
using sparse::idx_t;

pgas::Runtime::Config cluster(int nranks, int per_node = 4) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = per_node;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  return cfg;
}

double solve_residual(pgas::Runtime& rt, const CscMatrix& a,
                      SolverOptions opts = {}) {
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  return sparse::relative_residual(a, x, b);
}

// Reference: dense Cholesky of the permuted matrix, compared entry-wise
// against the solver's assembled factor.
void expect_factor_matches_dense(pgas::Runtime& rt, const CscMatrix& a,
                                 SolverOptions opts = {}) {
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto ap = sparse::permute_symmetric(a, solver.permutation());
  auto dense = ap.to_dense();
  const auto n = static_cast<int>(a.n());
  ASSERT_EQ(blas::potrf(blas::UpLo::kLower, n, dense.data(), n), 0);
  const auto l = solver.dense_factor();
  double max_err = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      max_err = std::max(max_err, std::fabs(l[i + static_cast<std::size_t>(j) * n] -
                                            dense[i + static_cast<std::size_t>(j) * n]));
    }
  }
  EXPECT_LT(max_err, 1e-8) << "factor mismatch vs dense reference";
}

TEST(Solver, FactorMatchesDenseReferenceSingleRank) {
  pgas::Runtime rt(cluster(1));
  expect_factor_matches_dense(rt, sparse::grid2d_laplacian(8, 8));
}

TEST(Solver, FactorMatchesDenseReferenceFourRanks) {
  pgas::Runtime rt(cluster(4));
  expect_factor_matches_dense(rt, sparse::grid2d_laplacian(9, 7));
}

TEST(Solver, FactorMatchesDenseIrregularSixRanks) {
  pgas::Runtime rt(cluster(6, 2));
  expect_factor_matches_dense(rt, sparse::thermal_irregular(7, 8, 0.5, 5));
}

TEST(Solver, TinyMatrices) {
  pgas::Runtime rt(cluster(2));
  for (idx_t n : {1, 2, 3}) {
    const auto a = sparse::tridiagonal(n);
    EXPECT_LT(solve_residual(rt, a), 1e-12) << "n=" << n;
  }
}

TEST(Solver, DenseBlockMatrix) {
  pgas::Runtime rt(cluster(3, 3));
  EXPECT_LT(solve_residual(rt, sparse::dense_spd(30, 7)), 1e-12);
}

struct SolverCase {
  const char* name;
  int nranks;
  CscMatrix (*make)();
};

class SolverSweep : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverSweep, ResidualTiny) {
  const auto& p = GetParam();
  pgas::Runtime rt(cluster(p.nranks));
  EXPECT_LT(solve_residual(rt, p.make()), 1e-11) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    MatricesAndRanks, SolverSweep,
    ::testing::Values(
        SolverCase{"grid2d_r1", 1, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid2d_r2", 2, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid2d_r4", 4, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid2d_r8", 8, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid2d_r13", 13, [] { return sparse::grid2d_laplacian(12, 12); }},
        SolverCase{"grid3d_r4", 4, [] { return sparse::grid3d_laplacian(5, 5, 5); }},
        SolverCase{"grid3d27_r6", 6,
                   [] {
                     return sparse::grid3d_laplacian(
                         4, 4, 4, sparse::Stencil3D::kTwentySevenPoint);
                   }},
        SolverCase{"thermal_r4", 4, [] { return sparse::thermal_irregular(12, 12, 0.4, 11); }},
        SolverCase{"elastic_r4", 4, [] { return sparse::elasticity3d(3, 3, 3); }},
        SolverCase{"random_r5", 5, [] { return sparse::random_spd(150, 5.0, 13); }},
        SolverCase{"arrow_r3", 3, [] { return sparse::arrow(40); }},
        SolverCase{"tridiag_r4", 4, [] { return sparse::tridiagonal(100); }}),
    [](const auto& info) { return info.param.name; });

class OrderingSweep2
    : public ::testing::TestWithParam<ordering::Method> {};

TEST_P(OrderingSweep2, AllOrderingsGiveCorrectSolve) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.ordering = GetParam();
  EXPECT_LT(solve_residual(rt, sparse::grid2d_laplacian(10, 11), opts), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Orderings, OrderingSweep2,
                         ::testing::Values(ordering::Method::kNatural,
                                           ordering::Method::kRcm,
                                           ordering::Method::kAmd,
                                           ordering::Method::kNestedDissection),
                         [](const auto& info) {
                           return ordering::method_name(info.param);
                         });

class PolicySweep : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicySweep, AllPoliciesGiveCorrectSolve) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.policy = GetParam();
  EXPECT_LT(solve_residual(rt, sparse::thermal_irregular(10, 10, 0.4, 3), opts),
            1e-11);
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep,
                         ::testing::Values(Policy::kFifo, Policy::kLifo,
                                           Policy::kPriority,
                                           Policy::kBottomLevel),
                         [](const auto& info) {
                           std::string n = policy_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

class MappingSweep
    : public ::testing::TestWithParam<symbolic::Mapping::Kind> {};

TEST_P(MappingSweep, AllMappingsGiveCorrectSolve) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.mapping = GetParam();
  EXPECT_LT(solve_residual(rt, sparse::grid2d_laplacian(11, 9), opts), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Mappings, MappingSweep,
    ::testing::Values(symbolic::Mapping::Kind::k2dBlockCyclic,
                      symbolic::Mapping::Kind::kRowCyclic,
                      symbolic::Mapping::Kind::kColCyclic));

TEST(Solver, GpuOffAndOnAgree) {
  const auto a = sparse::grid3d_laplacian(4, 4, 4);
  pgas::Runtime rt(cluster(4));
  SolverOptions cpu_opts;
  cpu_opts.gpu.enabled = false;
  SolverOptions gpu_opts;
  gpu_opts.gpu.enabled = true;
  // Force plenty of offload with tiny thresholds.
  gpu_opts.gpu.potrf_threshold = 4;
  gpu_opts.gpu.trsm_threshold = 4;
  gpu_opts.gpu.syrk_threshold = 4;
  gpu_opts.gpu.gemm_threshold = 4;
  gpu_opts.gpu.device_resident_threshold = 64;
  EXPECT_LT(solve_residual(rt, a, cpu_opts), 1e-11);
  EXPECT_LT(solve_residual(rt, a, gpu_opts), 1e-11);
}

TEST(Solver, GpuOffloadActuallyHappens) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.gpu.potrf_threshold = 16;
  opts.gpu.trsm_threshold = 16;
  opts.gpu.syrk_threshold = 16;
  opts.gpu.gemm_threshold = 16;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid3d_laplacian(5, 5, 5);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto& ops = solver.report().total_ops;
  std::uint64_t gpu_total = 0, cpu_total = 0;
  for (int i = 0; i < 4; ++i) {
    gpu_total += ops.gpu[i];
    cpu_total += ops.cpu[i];
  }
  EXPECT_GT(gpu_total, 0u);
  EXPECT_GT(cpu_total, 0u);  // small blocks stay on the CPU (hybrid!)
}

// Each solve restarts the device clocks with the rank clocks, so an
// offloaded solve kernel never queues behind the factorization's (or an
// earlier solve's) last kernel: repeated solves take the same time.
TEST(Solver, OffloadedSolvesDoNotQueueBehindEarlierPhases) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.gpu.potrf_threshold = opts.gpu.trsm_threshold =
      opts.gpu.syrk_threshold = opts.gpu.gemm_threshold = 0;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid3d_laplacian(5, 5, 5);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  (void)solver.solve(b);
  const double first_s = solver.report().solve_sim_s;
  (void)solver.solve(b);
  EXPECT_EQ(solver.report().solve_sim_s, first_s);
  EXPECT_LT(first_s, solver.report().factor_sim_s);
}

TEST(Solver, DefaultThresholdsKeepMajorityOnCpu) {
  // Fig. 6's qualitative shape: with realistic thresholds, most calls
  // run on the CPU, the few large ones on the GPU.
  pgas::Runtime rt(cluster(4));
  SymPackSolver solver(rt, SolverOptions{});
  const auto a = sparse::grid3d_laplacian(6, 6, 6);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto& ops = solver.report().total_ops;
  std::uint64_t gpu_total = 0, cpu_total = 0;
  for (int i = 0; i < 4; ++i) {
    gpu_total += ops.gpu[i];
    cpu_total += ops.cpu[i];
  }
  EXPECT_GT(cpu_total, gpu_total);
}

TEST(Solver, DeviceOomFallsBackToCpu) {
  pgas::Runtime::Config cfg = cluster(2);
  cfg.device_memory_bytes = 256;  // nothing but the tiniest scratch fits
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.gpu.potrf_threshold = 4;
  opts.gpu.trsm_threshold = 4;
  opts.gpu.syrk_threshold = 4;
  opts.gpu.gemm_threshold = 4;
  opts.gpu.fallback = GpuFallback::kCpu;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(10, 10);
  solver.symbolic_factorize(a);
  solver.factorize();
  EXPECT_GT(solver.report().gpu_fallbacks, 0u);
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
}

TEST(Solver, DeviceOomThrowOptionThrows) {
  pgas::Runtime::Config cfg = cluster(2);
  cfg.device_memory_bytes = 256;
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.gpu.potrf_threshold = 4;
  opts.gpu.trsm_threshold = 4;
  opts.gpu.syrk_threshold = 4;
  opts.gpu.gemm_threshold = 4;
  opts.gpu.fallback = GpuFallback::kThrow;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(sparse::grid2d_laplacian(10, 10));
  EXPECT_THROW(solver.factorize(), pgas::DeviceOom);
}

TEST(Solver, IndefiniteMatrixThrows) {
  pgas::Runtime rt(cluster(2));
  auto a = sparse::grid2d_laplacian(6, 6);
  a.shift_diagonal(-10.0);  // make it indefinite
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  EXPECT_THROW(solver.factorize(), std::runtime_error);
}

// A failed pivot is a typed error naming the caller's column (the factor
// runs in the permuted ordering), for both placements of the update task
// and both drive modes; the runtime stays usable for a fresh solver.
using NpdParam = std::tuple<Variant, bool>;  // (variant, threaded)
class NotPositiveDefinite : public ::testing::TestWithParam<NpdParam> {};

TEST_P(NotPositiveDefinite, NamesTheCallersColumnAndRuntimeStaysUsable) {
  const auto [variant, threaded] = GetParam();
  pgas::Runtime::Config cfg = cluster(4);
  cfg.threaded = threaded;
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.variant = variant;
  const CscMatrix good = sparse::grid2d_laplacian(10, 10);
  CscMatrix bad = good;
  constexpr idx_t kColumn = 37;
  for (idx_t p = bad.colptr()[kColumn]; p < bad.colptr()[kColumn + 1]; ++p) {
    if (bad.rowind()[p] == kColumn) bad.values()[p] = -50.0;
  }
  {
    SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(bad);
    // The ordering moves the column, so the permuted index would differ.
    const auto& perm = solver.permutation();
    ASSERT_NE(perm[kColumn], kColumn);
    try {
      solver.factorize();
      FAIL() << "factorize() accepted an indefinite matrix";
    } catch (const NotPositiveDefiniteError& e) {
      EXPECT_EQ(e.column(), kColumn);
      EXPECT_NE(std::string(e.what()).find("column 37)"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_LT(solve_residual(rt, good, opts), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndDriveModes, NotPositiveDefinite,
    ::testing::Combine(::testing::Values(Variant::kFanOut, Variant::kFanIn),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<NpdParam>& info) {
      std::string n = std::get<0>(info.param) == Variant::kFanOut ? "fanout"
                                                                  : "fanin";
      return n + (std::get<1>(info.param) ? "_threaded" : "_sequential");
    });

// A NaN or infinite entry is a typed error naming the caller's entry, at
// analysis and at refactorization, in both drive modes; a rejected
// refactorize leaves the previous factor in service.
class NonFiniteInput : public ::testing::TestWithParam<bool> {};  // threaded

TEST_P(NonFiniteInput, NamesTheEntryAndKeepsTheFactor) {
  pgas::Runtime::Config cfg = cluster(4);
  cfg.threaded = GetParam();
  pgas::Runtime rt(cfg);
  const CscMatrix good = sparse::grid2d_laplacian(10, 10);
  constexpr idx_t kColumn = 37;
  const idx_t below = good.colptr()[kColumn] + 1;  // first off-diagonal
  ASSERT_LT(below, good.colptr()[kColumn + 1]);
  const idx_t row = good.rowind()[below];
  ASSERT_NE(row, kColumn);

  CscMatrix nan_entry = good;
  nan_entry.values()[below] = std::nan("");
  SymPackSolver solver(rt, SolverOptions{});
  try {
    solver.symbolic_factorize(nan_entry);
    FAIL() << "symbolic_factorize() accepted a NaN";
  } catch (const NonFiniteValueError& e) {
    EXPECT_EQ(e.row(), row);
    EXPECT_EQ(e.column(), kColumn);
    const std::string where =
        "(" + std::to_string(row) + ", " + std::to_string(kColumn) + ")";
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }

  solver.symbolic_factorize(good);
  solver.factorize();
  CscMatrix inf_entry = good;
  for (idx_t p = good.colptr()[kColumn]; p < good.colptr()[kColumn + 1]; ++p) {
    if (good.rowind()[p] == kColumn) {
      inf_entry.values()[p] = std::numeric_limits<double>::infinity();
    }
  }
  try {
    solver.refactorize(inf_entry);
    FAIL() << "refactorize() accepted an infinite diagonal";
  } catch (const NonFiniteValueError& e) {
    EXPECT_EQ(e.row(), kColumn);
    EXPECT_EQ(e.column(), kColumn);
    EXPECT_NE(std::string(e.what()).find("inf"), std::string::npos)
        << e.what();
  }
  const auto b = sparse::rhs_for_ones(good);
  EXPECT_LT(sparse::relative_residual(good, solver.solve(b), b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(DriveModes, NonFiniteInput, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "threaded"
                                                         : "sequential");
                         });

TEST(Solver, MultipleRhs) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(9, 9);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const idx_t n = a.n();
  const int nrhs = 3;
  support::Xoshiro256 rng(21);
  std::vector<double> xs(static_cast<std::size_t>(n) * nrhs);
  for (auto& v : xs) v = rng.next_in(-1, 1);
  std::vector<double> b(xs.size());
  for (int c = 0; c < nrhs; ++c) {
    a.symv(xs.data() + static_cast<std::size_t>(c) * n,
           b.data() + static_cast<std::size_t>(c) * n);
  }
  const auto x = solver.solve(b, nrhs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(x[i], xs[i], 1e-8);
  }
}

TEST(Solver, RepeatedFactorizationsReuseSymbolic) {
  // The PEXSI-style use case the paper motivates: many factorizations of
  // matrices with identical structure.
  pgas::Runtime rt(cluster(4));
  auto a = sparse::grid2d_laplacian(10, 10);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  for (int rep = 0; rep < 3; ++rep) {
    solver.factorize();
    const auto b = sparse::rhs_for_ones(a);
    const auto x = solver.solve(b);
    EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
  }
}

TEST(Solver, ThreadedRuntimeProducesCorrectResults) {
  pgas::Runtime::Config cfg = cluster(4);
  cfg.threaded = true;
  pgas::Runtime rt(cfg);
  EXPECT_LT(solve_residual(rt, sparse::grid2d_laplacian(12, 12)), 1e-11);
}

TEST(Solver, ThreadedIrregularStress) {
  pgas::Runtime::Config cfg = cluster(8, 4);
  cfg.threaded = true;
  pgas::Runtime rt(cfg);
  EXPECT_LT(solve_residual(rt, sparse::thermal_irregular(14, 14, 0.5, 9)),
            1e-11);
}

TEST(Solver, ReportPopulated) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(12, 12);
  // Legacy rendezvous transport: the gets assertion below needs pulls,
  // which the eager default elides for blocks this small.
  SolverOptions opts;
  opts.comm = legacy_comm();
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  (void)solver.solve(b);
  const Report& r = solver.report();
  EXPECT_EQ(r.n, a.n());
  EXPECT_GE(r.factor_nnz, a.nnz_stored());
  EXPECT_GT(r.num_supernodes, 0);
  EXPECT_GT(r.factor_sim_s, 0.0);
  EXPECT_GT(r.solve_sim_s, 0.0);
  EXPECT_GT(r.factor_flops, 0.0);
  // 4 ranks on one node exchange messages.
  EXPECT_GT(r.comm.rpcs_sent, 0u);
  EXPECT_GT(r.comm.gets, 0u);
}

TEST(Solver, SimulatedTimeDecreasesWithMoreNodes) {
  // The essence of Figures 7-12: strong scaling in simulated time. Uses
  // a compute-heavy 27-point 3D problem (protocol-only) so the problem
  // is large enough to scale, like the paper's matrices.
  const auto a = sparse::grid3d_laplacian(
      10, 10, 10, sparse::Stencil3D::kTwentySevenPoint);
  auto run = [&](int nranks, int per_node) {
    pgas::Runtime rt(cluster(nranks, per_node));
    SolverOptions opts;
    opts.numeric = false;
    SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    return solver.report().factor_sim_s;
  };
  const double t1 = run(4, 4);    // 1 node
  const double t16 = run(64, 4);  // 16 nodes
  EXPECT_LT(t16, t1);
}

TEST(Solver, ProtocolOnlyModeMatchesTaskScheduleShape) {
  // numeric=false runs the full protocol and produces comparable
  // simulated times without touching values.
  const auto a = sparse::grid2d_laplacian(14, 14);
  double t_numeric = 0.0, t_dry = 0.0;
  pgas::CommStats comm_numeric, comm_dry;
  {
    pgas::Runtime rt(cluster(4));
    SymPackSolver solver(rt, SolverOptions{});
    solver.symbolic_factorize(a);
    solver.factorize();
    t_numeric = solver.report().factor_sim_s;
    comm_numeric = solver.report().comm;
  }
  {
    pgas::Runtime rt(cluster(4));
    SolverOptions opts;
    opts.numeric = false;
    SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    t_dry = solver.report().factor_sim_s;
    comm_dry = solver.report().comm;
  }
  EXPECT_GT(t_dry, 0.0);
  EXPECT_NEAR(t_dry / t_numeric, 1.0, 0.25);  // same cost model
  EXPECT_EQ(comm_numeric.rpcs_sent, comm_dry.rpcs_sent);
  EXPECT_EQ(comm_numeric.gets, comm_dry.gets);
  EXPECT_EQ(comm_numeric.bytes_from_host, comm_dry.bytes_from_host);
}

TEST(Solver, ProtocolOnlySolveRuns) {
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.numeric = false;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(10, 10);
  solver.symbolic_factorize(a);
  solver.factorize();
  std::vector<double> b(a.n(), 1.0);
  (void)solver.solve(b);
  EXPECT_GT(solver.report().solve_sim_s, 0.0);
}

TEST(Solver, ApiMisuseThrows) {
  pgas::Runtime rt(cluster(2));
  SymPackSolver solver(rt, SolverOptions{});
  EXPECT_THROW(solver.factorize(), std::logic_error);
  solver.symbolic_factorize(sparse::tridiagonal(5));
  EXPECT_THROW(solver.solve({1, 2, 3, 4, 5}), std::logic_error);
  solver.factorize();
  EXPECT_THROW(solver.solve({1, 2, 3}), std::invalid_argument);  // wrong size
}

TEST(Solver, PolicyParseRoundTrip) {
  EXPECT_EQ(parse_policy("fifo"), Policy::kFifo);
  EXPECT_EQ(parse_policy("lifo"), Policy::kLifo);
  EXPECT_EQ(parse_policy("priority"), Policy::kPriority);
  EXPECT_THROW(parse_policy("bogus"), std::invalid_argument);
  for (Policy p : {Policy::kFifo, Policy::kLifo, Policy::kPriority,
                   Policy::kCriticalPath, Policy::kBottomLevel,
                   Policy::kAuto}) {
    EXPECT_EQ(parse_policy(policy_name(p)), p) << policy_name(p);
  }
  EXPECT_EQ(policy_name(Policy::kBottomLevel), "bottom-level");
  EXPECT_EQ(SolverOptions{}.policy, Policy::kBottomLevel);
}

}  // namespace
}  // namespace sympack::core

namespace sympack::core {
namespace {

// ------------------------------------------------------------------
// Blocked multi-RHS solve: a panel sweep (rhs_panel = w) must reproduce
// w independent per-vector sweeps — the columns are mathematically
// independent, so the only differences are kernel-dispatch crossovers
// (panel GEMMs may take the tiled path where single columns don't),
// which perturb at rounding level only.

const char* kParityProxies[] = {"flan", "bones", "thermal"};

CscMatrix parity_proxy(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

struct ParityCase {
  const char* proxy;
  Policy policy;
};

class MultiRhsParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(MultiRhsParity, BlockedSolveMatchesPerVectorSweeps) {
  const ParityCase& p = GetParam();
  pgas::Runtime rt(cluster(8));
  SolverOptions opts;
  opts.policy = p.policy;
  constexpr int kPanel = 4;  // w
  opts.solve.rhs_panel = kPanel;
  SymPackSolver solver(rt, opts);
  const CscMatrix a = parity_proxy(p.proxy);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto n = static_cast<std::size_t>(a.n());
  support::Xoshiro256 rng(7);
  for (const int nrhs : {1, 3, kPanel, kPanel + 1}) {
    std::vector<double> b(n * static_cast<std::size_t>(nrhs));
    for (auto& v : b) v = rng.next_in(-1, 1);
    const auto blocked = solver.solve(b, nrhs);
    for (int c = 0; c < nrhs; ++c) {
      // Baseline: one independent single-RHS sweep per column (nrhs=1
      // always runs the historical per-vector path).
      const std::vector<double> bc(b.begin() + c * n,
                                   b.begin() + (c + 1) * n);
      const auto xc = solver.solve(bc, 1);
      double scale = 1.0;
      for (const double v : xc) scale = std::max(scale, std::fabs(v));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(blocked[i + c * n], xc[i], 1e-9 * scale)
            << p.proxy << " nrhs=" << nrhs << " col=" << c << " row=" << i;
      }
      EXPECT_LT(sparse::relative_residual(a, xc, bc), 1e-10);
      const std::vector<double> xb(blocked.begin() + c * n,
                                   blocked.begin() + (c + 1) * n);
      EXPECT_LT(sparse::relative_residual(a, xb, bc), 1e-10);
    }
  }
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const char* proxy : kParityProxies) {
    for (Policy policy : {Policy::kFifo, Policy::kLifo, Policy::kPriority,
                          Policy::kCriticalPath, Policy::kBottomLevel}) {
      cases.push_back({proxy, policy});
    }
  }
  return cases;
}

std::string parity_name(const ::testing::TestParamInfo<ParityCase>& info) {
  std::string n = info.param.proxy;
  n += '_';
  n += policy_name(info.param.policy);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(Proxies, MultiRhsParity,
                         ::testing::ValuesIn(parity_cases()), parity_name);

TEST(Solver, RhsPanelUnboundedFusesAllColumns) {
  // rhs_panel = 0: one sweep carries every column; must still match the
  // per-vector result.
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(11, 10);
  SolverOptions fused;
  fused.solve.rhs_panel = 0;
  SymPackSolver solver(rt, fused);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto n = static_cast<std::size_t>(a.n());
  const int nrhs = 6;
  support::Xoshiro256 rng(3);
  std::vector<double> b(n * nrhs);
  for (auto& v : b) v = rng.next_in(-1, 1);
  const auto x = solver.solve(b, nrhs);
  for (int c = 0; c < nrhs; ++c) {
    const std::vector<double> bc(b.begin() + c * n, b.begin() + (c + 1) * n);
    const auto xc = solver.solve(bc, 1);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(x[i + c * n], xc[i], 1e-9) << "col=" << c;
    }
  }
}

TEST(Solver, RefactorizeReusesSymbolicWithNewValues) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(10, 10);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x1 = solver.solve(b);

  // Same pattern, scaled values: A2 = 2A, so x2 = x1 / 2.
  CscMatrix a2 = a;
  for (double& v : a2.values()) v *= 2.0;
  solver.refactorize(a2);
  const auto x2 = solver.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    ASSERT_NEAR(x2[i], 0.5 * x1[i], 1e-9);
  }

  // A different sparsity pattern must be rejected.
  EXPECT_THROW(solver.refactorize(sparse::grid2d_laplacian(10, 11)),
               std::invalid_argument);
  EXPECT_THROW(solver.refactorize(sparse::tridiagonal(100)),
               std::invalid_argument);
}

TEST(ProportionalMappingSolve, CorrectEndToEnd) {
  pgas::Runtime::Config cfg;
  cfg.nranks = 6;
  cfg.ranks_per_node = 3;
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.mapping = symbolic::Mapping::Kind::kProportional;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(13, 12);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
}

TEST(ProportionalMappingSolve, FanInVariantToo) {
  pgas::Runtime::Config cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 4;
  pgas::Runtime rt(cfg);
  SolverOptions opts;
  opts.mapping = symbolic::Mapping::Kind::kProportional;
  opts.variant = Variant::kFanIn;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::thermal_irregular(9, 9, 0.4, 3);
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
}

}  // namespace
}  // namespace sympack::core

// ------------------------------------------------------------------
// SolveServer: request admission, panel batching, sweep pipelining, and
// numeric refactorization on top of a cached factor.

#include "core/solve_server.hpp"

namespace sympack::core {
namespace {

using sparse::CscMatrix;

TEST(SolveServer, DrainMatchesDirectSolves) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(12, 11);
  SolverOptions opts;
  opts.solve.rhs_panel = 4;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);

  // Mixed-size submissions; panels cut across request boundaries
  // (3 + 1 + 5 = 9 columns -> panels of 4, 4, 1).
  const auto n = static_cast<std::size_t>(a.n());
  support::Xoshiro256 rng(11);
  std::vector<std::vector<double>> bs;
  for (const int nrhs : {3, 1, 5}) {
    std::vector<double> b(n * static_cast<std::size_t>(nrhs));
    for (auto& v : b) v = rng.next_in(-1, 1);
    EXPECT_TRUE(server.submit(b, nrhs));
    bs.push_back(std::move(b));
  }
  EXPECT_EQ(server.queued(), 9);
  const auto xs = server.drain();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(server.queued(), 0);

  for (std::size_t r = 0; r < bs.size(); ++r) {
    const int nrhs = static_cast<int>(bs[r].size() / n);
    const auto direct = solver.solve(bs[r], nrhs);
    ASSERT_EQ(xs[r].size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(xs[r][i], direct[i], 1e-9) << "req=" << r << " i=" << i;
    }
  }

  const auto& st = server.stats();
  EXPECT_EQ(st.requests, 3);
  EXPECT_EQ(st.columns, 9);
  EXPECT_EQ(st.panels, 3);          // ceil(9 / 4)
  EXPECT_EQ(st.overlapped, 2);      // consecutive panel pairs pipelined
  EXPECT_GT(st.serve_sim_s, 0.0);
}

TEST(SolveServer, OverlapOffIsSequentialAndMatches) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(10, 10);
  SolverOptions opts;
  opts.solve.rhs_panel = 2;
  opts.solve.server_overlap = false;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);

  const auto n = static_cast<std::size_t>(a.n());
  support::Xoshiro256 rng(5);
  std::vector<double> b(n * 6);
  for (auto& v : b) v = rng.next_in(-1, 1);
  EXPECT_TRUE(server.submit(b, 6));
  const auto xs = server.drain();
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(server.stats().panels, 3);
  EXPECT_EQ(server.stats().overlapped, 0);

  const auto direct = solver.solve(b, 6);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    ASSERT_NEAR(xs[0][i], direct[i], 1e-9);
  }
}

// The pipelined server under the default policy, whose solve queues
// pop by tree level: two engines interleave the backward sweep of one
// panel with the forward sweep of the next on one rank clock, and every
// column still solves the system.
TEST(SolveServer, OverlappedDrainSolvesUnderLevelOrder) {
  pgas::Runtime rt(cluster(8));
  const auto a = sparse::thermal_irregular(16, 16, 0.4, 3);
  SolverOptions opts;
  opts.solve.rhs_panel = 4;
  ASSERT_TRUE(opts.solve.server_overlap);
  ASSERT_EQ(opts.policy, Policy::kBottomLevel);
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);

  const auto n = static_cast<std::size_t>(a.n());
  support::Xoshiro256 rng(23);
  std::vector<double> b(n * 10);
  for (auto& v : b) v = rng.next_in(-1, 1);
  EXPECT_TRUE(server.submit(b, 10));
  const auto xs = server.drain();
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(server.stats().panels, 3);      // 4 + 4 + 2 columns
  EXPECT_EQ(server.stats().overlapped, 2);  // both engines in flight
  for (std::size_t c = 0; c < 10; ++c) {
    const std::vector<double> bc(b.begin() + c * n, b.begin() + (c + 1) * n);
    const std::vector<double> xc(xs[0].begin() + c * n,
                                 xs[0].begin() + (c + 1) * n);
    EXPECT_LT(sparse::relative_residual(a, xc, bc), 1e-9) << "column " << c;
  }
}

TEST(SolveServer, AdmissionCapRejects) {
  pgas::Runtime rt(cluster(2));
  const auto a = sparse::grid2d_laplacian(8, 8);
  SolverOptions opts;
  opts.solve.server_max_queue = 2;
  SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);

  const std::vector<double> b(a.n(), 1.0);
  EXPECT_TRUE(server.submit(b));
  EXPECT_TRUE(server.submit(b));
  EXPECT_FALSE(server.submit(b));  // would exceed the cap
  EXPECT_EQ(server.queued(), 2);
  EXPECT_EQ(server.stats().rejected, 1);
  const auto xs = server.drain();
  EXPECT_EQ(xs.size(), 2u);
  // The queue drained; admission reopens.
  EXPECT_TRUE(server.submit(b));
}

TEST(SolveServer, RefactorizeServesNewValues) {
  pgas::Runtime rt(cluster(4));
  const auto a = sparse::grid2d_laplacian(9, 9);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);

  const auto b = sparse::rhs_for_ones(a);
  EXPECT_TRUE(server.submit(b));
  const auto x1 = server.drain();
  ASSERT_EQ(x1.size(), 1u);

  CscMatrix a2 = a;
  for (double& v : a2.values()) v *= 4.0;
  server.refactorize(a2);
  EXPECT_EQ(server.stats().refactorizations, 1);
  EXPECT_TRUE(server.submit(b));
  const auto x2 = server.drain();
  ASSERT_EQ(x2.size(), 1u);
  for (std::size_t i = 0; i < x1[0].size(); ++i) {
    ASSERT_NEAR(x2[0][i], 0.25 * x1[0][i], 1e-9);
  }
}

TEST(SolveServer, EmptyDrainAndMisuse) {
  pgas::Runtime rt(cluster(2));
  const auto a = sparse::grid2d_laplacian(6, 6);
  SymPackSolver solver(rt, SolverOptions{});
  solver.symbolic_factorize(a);
  SolveServer server(solver);
  EXPECT_TRUE(server.drain().empty());  // nothing queued: no-op
  EXPECT_THROW(server.submit(std::vector<double>(3), 1),
               std::invalid_argument);
  const std::vector<double> b(a.n(), 1.0);
  EXPECT_TRUE(server.submit(b));
  EXPECT_THROW(server.drain(), std::logic_error);  // not factorized
  solver.factorize();
  EXPECT_EQ(server.drain().size(), 1u);
}

TEST(SolveServer, ProtocolOnlyDrainRuns) {
  // numeric=false: the full batched solve protocol runs (panel-scaled
  // messages, overlapped sweeps) without touching values.
  pgas::Runtime rt(cluster(4));
  SolverOptions opts;
  opts.numeric = false;
  opts.solve.rhs_panel = 2;
  SymPackSolver solver(rt, opts);
  const auto a = sparse::grid2d_laplacian(10, 10);
  solver.symbolic_factorize(a);
  solver.factorize();
  SolveServer server(solver);
  const std::vector<double> b(a.n() * 4, 1.0);
  EXPECT_TRUE(server.submit(b, 4));
  const auto xs = server.drain();
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(server.stats().panels, 2);
  EXPECT_GT(server.stats().serve_sim_s, 0.0);
}

}  // namespace
}  // namespace sympack::core
