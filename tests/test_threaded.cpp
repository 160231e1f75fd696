// Threaded-mode hardening suite (the TSan CI job runs exactly these
// binaries): threaded-vs-sequential parity on the three paper proxy
// generators across all five scheduling policies, seeded-interleaving
// replay at the solver level, and the duplicate-signal device-leak
// regression for FactorEngine::handle_signal, and the fan-in aggregate
// buffer release.
//
// Parity is *numeric*, not bitwise: the threaded schedule changes the
// order scatter-adds fold update contributions into a block, so entries
// agree to rounding (1e-9) while residuals and every CommStats counter
// must match the sequential driver exactly (the task/communication
// protocol is schedule-independent). The one exception is coalescing:
// which signals share a batch follows host interleaving, so RPC counts
// may differ. The exact-counter legs therefore run uncoalesced, and one
// leg at full defaults checks everything but the RPC counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/factor.hpp"
#include "core/solver.hpp"
#include "core/trace.hpp"
#include "ordering/etree.hpp"
#include "ordering/ordering.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "symbolic/taskgraph.hpp"
#include "symbolic/view.hpp"

namespace sympack::core {

// White-box access to FactorEngine for the duplicate-signal regression:
// TaskGraph::recipients() deduplicates senders, so a duplicate signal
// cannot be produced through the public protocol — inject one directly.
struct FactorEngineTestPeer {
  static void inject_signal(FactorEngine& e, pgas::Rank& rank,
                            sparse::idx_t k, symbolic::BlockSlot slot) {
    e.handle_signal(rank, FactorEngine::Signal{k, slot, 0, nullptr});
  }
  static std::size_t cache_entries(const FactorEngine& e, int rank) {
    return e.per_rank_[rank].cache.size();
  }
  static void drain_cache(FactorEngine& e, pgas::Rank& rank) {
    auto& cache = e.per_rank_[rank.id()].cache;
    cache.for_each([&](sparse::idx_t, FactorEngine::RemoteFactor& rf) {
      if (!rf.device.is_null()) rank.deallocate(rf.device);
    });
    cache.clear();
  }
  /// Fan-in aggregate buffers rank `rank` still holds.
  static std::size_t aggregate_entries(const FactorEngine& e, int rank) {
    return e.per_rank_[rank].aggs.size();
  }
};

}  // namespace sympack::core

namespace sympack {
namespace {

using sparse::CscMatrix;
using sparse::idx_t;

pgas::Runtime::Config cluster(int nranks, bool threaded) {
  pgas::Runtime::Config cfg;
  cfg.nranks = nranks;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;  // one rank per device: no share-OOM fallbacks,
                          // so CommStats are schedule-independent
  cfg.device_memory_bytes = 64 << 20;
  cfg.threaded = threaded;
  return cfg;
}

CscMatrix proxy_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

struct RunResult {
  double factor_residual = 0.0;
  std::vector<double> factor;
  pgas::CommStats stats;  // factorization + solve, aggregated over ranks
  pgas::CommStats factor_stats;  // the factorization alone
  std::vector<double> x;         // the solve leg's solution
  std::uint64_t fallbacks = 0;
  std::uint64_t peak_bytes = 0;
  std::size_t device_bytes_left = 0;
};

/// The default transport minus coalescing: every CommStats counter is
/// schedule-independent.
core::CommOptions uncoalesced_comm() {
  core::CommOptions comm;
  comm.coalesce = false;
  return comm;
}

RunResult run_solver(const CscMatrix& a, int nranks, bool threaded,
                     core::Policy policy, std::uint64_t seed = 0,
                     core::CommOptions comm = uncoalesced_comm()) {
  pgas::Runtime rt(cluster(nranks, threaded));
  core::SolverOptions opts;
  opts.policy = policy;
  opts.interleave_seed = seed;
  opts.comm = comm;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  solver.factorize();
  RunResult r;
  r.factor_stats = rt.total_stats();
  const auto b = sparse::rhs_for_ones(a);
  const auto x = solver.solve(b);

  r.factor_residual = sparse::relative_residual(a, x, b);
  r.x = x;
  r.factor = solver.dense_factor();
  r.stats = rt.total_stats();
  r.fallbacks = solver.report().gpu_fallbacks;
  r.peak_bytes = rt.peak_bytes();
  for (int d = 0; d < rt.num_devices(); ++d) {
    r.device_bytes_left += rt.device_bytes_in_use(d);
  }
  return r;
}

void expect_stats_equal(const pgas::CommStats& a, const pgas::CommStats& b) {
  EXPECT_EQ(a.rpcs_sent, b.rpcs_sent);
  EXPECT_EQ(a.rpcs_executed, b.rpcs_executed);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.bytes_from_host, b.bytes_from_host);
  EXPECT_EQ(a.bytes_from_device, b.bytes_from_device);
  EXPECT_EQ(a.bytes_to_device, b.bytes_to_device);
  EXPECT_EQ(a.hd_copies, b.hd_copies);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.dropped_detected, b.dropped_detected);
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped);
  EXPECT_EQ(a.out_of_order, b.out_of_order);
  EXPECT_EQ(a.rpcs_deferred, b.rpcs_deferred);
  EXPECT_EQ(a.oom_fallbacks, b.oom_fallbacks);
}

// ------------------------------------------------------------------
// Threaded-vs-sequential parity: 3 proxy matrices x 5 policies x 8 ranks.

using ParityParam = std::tuple<std::string, core::Policy>;

class ThreadedParity : public ::testing::TestWithParam<ParityParam> {};

TEST_P(ThreadedParity, MatchesSequentialDriver) {
  const auto& [name, policy] = GetParam();
  const auto a = proxy_matrix(name);
  const int nranks = 8;

  const RunResult seq = run_solver(a, nranks, /*threaded=*/false, policy);
  const RunResult thr = run_solver(a, nranks, /*threaded=*/true, policy);

  // Both drivers solve the system.
  EXPECT_LT(seq.factor_residual, 1e-10);
  EXPECT_LT(thr.factor_residual, 1e-10);

  // Factors agree entry-wise to rounding (scatter-add order differs).
  ASSERT_EQ(seq.factor.size(), thr.factor.size());
  for (std::size_t i = 0; i < seq.factor.size(); ++i) {
    ASSERT_NEAR(seq.factor[i], thr.factor[i], 1e-9) << "entry " << i;
  }

  // The communication protocol is schedule-independent: identical
  // aggregate counters. Determinism presumes no device-OOM fallbacks.
  EXPECT_EQ(seq.fallbacks, 0u);
  EXPECT_EQ(thr.fallbacks, 0u);
  expect_stats_equal(seq.stats, thr.stats);
  // The solve leg on its own (the heap policies order its sweeps by
  // tree level, FIFO and LIFO run them FIFO): with the factorization's
  // counters equal, equal totals mean equal solve counters too, and the
  // solutions agree to rounding.
  expect_stats_equal(seq.factor_stats, thr.factor_stats);
  ASSERT_EQ(seq.x.size(), thr.x.size());
  for (std::size_t i = 0; i < seq.x.size(); ++i) {
    ASSERT_NEAR(seq.x[i], thr.x[i], 1e-9) << "x entry " << i;
  }

  // Memory sanity: everything returned to the device segments, and the
  // threaded peak stays in the same regime as the sequential one (more
  // concurrently-live fetch buffers, but bounded).
  EXPECT_EQ(seq.device_bytes_left, 0u);
  EXPECT_EQ(thr.device_bytes_left, 0u);
  EXPECT_GE(thr.peak_bytes, static_cast<std::uint64_t>(a.n()));
  EXPECT_LE(thr.peak_bytes, 8 * seq.peak_bytes);
}

std::string parity_name(const ::testing::TestParamInfo<ParityParam>& info) {
  return std::get<0>(info.param) + "_" +
         core::policy_name(std::get<1>(info.param)).substr(0, 4) +
         (core::policy_name(std::get<1>(info.param)).size() > 4 ? "p" : "");
}

INSTANTIATE_TEST_SUITE_P(
    MatricesAndPolicies, ThreadedParity,
    ::testing::Combine(::testing::Values("flan", "bones", "thermal"),
                       ::testing::Values(core::Policy::kFifo,
                                         core::Policy::kLifo,
                                         core::Policy::kPriority,
                                         core::Policy::kCriticalPath,
                                         core::Policy::kBottomLevel)),
    parity_name);

// Full library defaults, coalescing included, on every proxy: the
// batches (and so rpcs_sent / rpcs_executed) follow host interleaving,
// but the factor, the pulls, the bytes moved and the eager sends must
// not.
TEST(ThreadedDefaults, MatchSequentialExceptRpcCounts) {
  for (const char* name : {"flan", "bones", "thermal"}) {
    const auto a = proxy_matrix(name);
    const RunResult seq = run_solver(a, 8, /*threaded=*/false,
                                     core::SolverOptions{}.policy, 0,
                                     core::CommOptions{});
    const RunResult thr = run_solver(a, 8, /*threaded=*/true,
                                     core::SolverOptions{}.policy, 0,
                                     core::CommOptions{});
    EXPECT_LT(seq.factor_residual, 1e-10) << name;
    EXPECT_LT(thr.factor_residual, 1e-10) << name;
    ASSERT_EQ(seq.factor.size(), thr.factor.size());
    for (std::size_t i = 0; i < seq.factor.size(); ++i) {
      ASSERT_NEAR(seq.factor[i], thr.factor[i], 1e-9)
          << name << " entry " << i;
    }
    EXPECT_GT(seq.stats.eager_sends, 0u) << name;
    EXPECT_GT(seq.stats.coalesced_signals, 0u) << name;
    EXPECT_EQ(seq.stats.gets, thr.stats.gets) << name;
    EXPECT_EQ(seq.stats.bytes_from_host, thr.stats.bytes_from_host) << name;
    EXPECT_EQ(seq.stats.bytes_from_device, thr.stats.bytes_from_device)
        << name;
    EXPECT_EQ(seq.stats.bytes_to_device, thr.stats.bytes_to_device) << name;
    EXPECT_EQ(seq.stats.eager_sends, thr.stats.eager_sends) << name;
    EXPECT_EQ(thr.device_bytes_left, 0u) << name;
  }
}

// ------------------------------------------------------------------
// Arrival-ordered progress (the runtime default): the threaded drive
// admits RPCs by arrival just like the sequential one, so both must
// still solve the system, in both variants.

TEST(ThreadedArrival, SequentialAndThreadedResidualsAgree) {
  const auto a = sparse::thermal_proxy(0.005);
  const auto b = sparse::rhs_for_ones(a);
  for (const core::Variant variant :
       {core::Variant::kFanOut, core::Variant::kFanIn}) {
    double residual[2] = {1.0, 1.0};
    for (const bool threaded : {false, true}) {
      pgas::Runtime::Config cfg = cluster(8, threaded);
      ASSERT_EQ(cfg.progress, pgas::Progress::kArrival);
      pgas::Runtime rt(cfg);
      core::SolverOptions opts;
      opts.variant = variant;
      core::SymPackSolver solver(rt, opts);
      solver.symbolic_factorize(a);
      solver.factorize();
      residual[threaded] =
          sparse::relative_residual(a, solver.solve(b), b);
      EXPECT_FALSE(rt.rank(0).has_pending_rpcs());
    }
    EXPECT_LT(residual[0], 1e-10) << core::variant_name(variant);
    EXPECT_LT(residual[1], 1e-10) << core::variant_name(variant);
    EXPECT_NEAR(residual[0], residual[1], 1e-12)
        << core::variant_name(variant);
  }
}

// A parked entry or a stale horizon must never leak from one call into
// the next: repeating factorize()/solve() on one solver reproduces the
// simulated times and every counter bit for bit, for every policy and
// both variants (sequential drive).

using RepeatParam = std::tuple<core::Variant, core::Policy>;

class ArrivalRepeat : public ::testing::TestWithParam<RepeatParam> {};

TEST_P(ArrivalRepeat, FactorizeAndSolveReproduceBitForBit) {
  const auto& [variant, policy] = GetParam();
  const auto a = sparse::bones_proxy(0.02);
  const auto b = sparse::rhs_for_ones(a);
  // A fused four-column panel as well: more messages per sweep, so more
  // room for the ready queue to reorder.
  std::vector<double> b4;
  for (int c = 1; c <= 4; ++c) {
    for (const double v : b) b4.push_back(c * v);
  }
  pgas::Runtime rt(cluster(8, /*threaded=*/false));
  core::SolverOptions opts;
  opts.variant = variant;
  opts.policy = policy;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  struct Pass {
    double factor_sim_s, solve_sim_s, solve4_sim_s;
    pgas::CommStats factor_stats, solve_stats;
    std::vector<double> x, x4;
  };
  const auto pass = [&] {
    Pass p;
    rt.reset_stats();
    solver.factorize();
    p.factor_sim_s = solver.report().factor_sim_s;
    p.factor_stats = rt.total_stats();
    rt.reset_stats();
    p.x = solver.solve(b);
    p.solve_sim_s = solver.report().solve_sim_s;
    p.solve_stats = rt.total_stats();
    p.x4 = solver.solve(b4, 4);
    p.solve4_sim_s = solver.report().solve_sim_s;
    return p;
  };
  const Pass first = pass();
  const Pass second = pass();
  EXPECT_LT(sparse::relative_residual(a, first.x, b), 1e-10);
  EXPECT_EQ(first.factor_sim_s, second.factor_sim_s);
  EXPECT_EQ(first.solve_sim_s, second.solve_sim_s);
  expect_stats_equal(first.factor_stats, second.factor_stats);
  expect_stats_equal(first.solve_stats, second.solve_stats);
  EXPECT_EQ(first.factor_stats.coalesced_signals,
            second.factor_stats.coalesced_signals);
  EXPECT_EQ(first.factor_stats.eager_sends, second.factor_stats.eager_sends);
  EXPECT_EQ(first.x, second.x);
  EXPECT_EQ(first.solve4_sim_s, second.solve4_sim_s);
  EXPECT_EQ(first.x4, second.x4);
}

std::string repeat_name(const ::testing::TestParamInfo<RepeatParam>& info) {
  std::string n = core::variant_name(std::get<0>(info.param)) + "_" +
                  core::policy_name(std::get<1>(info.param));
  std::replace(n.begin(), n.end(), '-', '_');
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndPolicies, ArrivalRepeat,
    ::testing::Combine(::testing::Values(core::Variant::kFanOut,
                                         core::Variant::kFanIn),
                       ::testing::Values(core::Policy::kFifo,
                                         core::Policy::kLifo,
                                         core::Policy::kPriority,
                                         core::Policy::kCriticalPath,
                                         core::Policy::kBottomLevel)),
    repeat_name);

// ------------------------------------------------------------------
// Seeded interleaving fuzzer at the solver level.

TEST(ThreadedFuzzer, SameSeedReplaysBitwiseIdenticalFactor) {
  const auto a = sparse::thermal_proxy(0.005);
  const RunResult r1 =
      run_solver(a, 6, /*threaded=*/false, core::Policy::kFifo, 42);
  const RunResult r2 =
      run_solver(a, 6, /*threaded=*/false, core::Policy::kFifo, 42);
  ASSERT_EQ(r1.factor.size(), r2.factor.size());
  // Same seed -> same stepping schedule -> bitwise-identical numerics.
  EXPECT_EQ(std::memcmp(r1.factor.data(), r2.factor.data(),
                        r1.factor.size() * sizeof(double)),
            0);
  expect_stats_equal(r1.stats, r2.stats);
}

TEST(ThreadedFuzzer, AdversarialSchedulesStayCorrect) {
  // The protocol must produce a correct factorization under arbitrary
  // rank-stepping orders; sweep a few fuzzer seeds and policies.
  const auto a = sparse::bones_proxy(0.02);
  for (const std::uint64_t seed : {1ull, 7ull, 0xfeedull}) {
    for (const auto policy :
         {core::Policy::kFifo, core::Policy::kCriticalPath}) {
      const RunResult r = run_solver(a, 8, /*threaded=*/false, policy, seed);
      EXPECT_LT(r.factor_residual, 1e-10)
          << "seed " << seed << " policy " << core::policy_name(policy);
      EXPECT_EQ(r.device_bytes_left, 0u);
    }
  }
}

TEST(ThreadedFuzzer, FuzzedAndRoundRobinStatsAgree) {
  // Counters are schedule-independent under the sequential fuzzer too.
  const auto a = sparse::flan_proxy(0.02);
  const RunResult plain =
      run_solver(a, 8, /*threaded=*/false, core::Policy::kFifo, 0);
  const RunResult fuzzed =
      run_solver(a, 8, /*threaded=*/false, core::Policy::kFifo, 1234);
  expect_stats_equal(plain.stats, fuzzed.stats);
}

// ------------------------------------------------------------------
// Duplicate-signal device-leak regression (satellite fix in
// FactorEngine::handle_signal): a duplicate signal used to rget into a
// fresh device allocation and drop it when cache.emplace found the
// existing entry, permanently shrinking the shared device segment.

TEST(ThreadedLeakRegression, DuplicateSignalDoesNotLeakDeviceMemory) {
  const auto a = sparse::grid3d_laplacian(4, 4, 4);
  pgas::Runtime rt(cluster(4, /*threaded=*/false));

  core::SolverOptions opts;
  opts.gpu.device_resident_threshold = 1;  // every factor block is a
                                           // "GPU block"
  const auto perm = ordering::compute_ordering(a, opts.ordering);
  const auto ap = sparse::permute_symmetric(a, perm);
  const auto parent = ordering::elimination_tree(ap);
  const auto sym = symbolic::analyze(ap, parent, opts.symbolic);
  const symbolic::TaskGraph tg(
      sym, symbolic::Mapping::build(rt.nranks(), opts.mapping, sym));
  const symbolic::ReplicatedSymbolicView sview(sym, tg, 0.0);
  const symbolic::ReplicatedTaskGraphView tgview(tg, sview);
  core::BlockStore store(sview, tgview, rt, /*numeric=*/true);
  core::Offload offload(opts.gpu, rt, /*numeric=*/true);
  store.assemble(ap);
  core::FactorEngine engine(rt, sview, tgview, store, offload, opts);

  // Find a factor block with at least one remote consumer.
  idx_t sig_k = -1;
  int recipient = -1;
  for (idx_t k = 0; k < sym.num_snodes() && recipient < 0; ++k) {
    const auto rcpts = tg.recipients(k, 0);
    if (!rcpts.empty()) {
      sig_k = k;
      recipient = rcpts.front();
    }
  }
  ASSERT_GE(recipient, 0) << "no cross-rank block in the mapping";

  pgas::Rank& rank = rt.rank(recipient);
  using Peer = core::FactorEngineTestPeer;
  ASSERT_EQ(rt.device_bytes_in_use(rank.device()), 0u);

  Peer::inject_signal(engine, rank, sig_k, 0);
  const std::size_t after_first = rt.device_bytes_in_use(rank.device());
  ASSERT_GT(after_first, 0u);  // the block was fetched into device memory
  ASSERT_EQ(Peer::cache_entries(engine, recipient), 1u);

  // A duplicate of the same signal must not grow device usage: the
  // refetched copy has to be released when the cache already holds the
  // block (pre-fix this leaked one block-sized device allocation).
  Peer::inject_signal(engine, rank, sig_k, 0);
  EXPECT_EQ(rt.device_bytes_in_use(rank.device()), after_first);
  EXPECT_EQ(Peer::cache_entries(engine, recipient), 1u);

  // Releasing the cache must return the segment to exactly zero — any
  // orphaned duplicate allocation shows up here.
  Peer::drain_cache(engine, rank);
  EXPECT_EQ(rt.device_bytes_in_use(rank.device()), 0u);
}

// Fan-in host memory: each producer's aggregate buffer is released as
// soon as its contribution has been inlined, staged or applied, so none
// survives the phase (they used to live until the engine was destroyed).
TEST(ThreadedFanIn, AggregateBuffersReleasedInBothDriveModes) {
  const auto a = sparse::grid3d_laplacian(6, 6, 6);
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded" : "sequential");
    pgas::Runtime rt(cluster(4, threaded));
    core::SolverOptions opts;
    opts.variant = core::Variant::kFanIn;
    const auto perm = ordering::compute_ordering(a, opts.ordering);
    const auto ap = sparse::permute_symmetric(a, perm);
    const auto sym = symbolic::analyze(ap, ordering::elimination_tree(ap),
                                       opts.symbolic);
    const symbolic::TaskGraph tg(
        sym, symbolic::Mapping::build(rt.nranks(), opts.mapping, sym));
    const symbolic::ReplicatedSymbolicView sview(sym, tg, 0.0);
    const symbolic::ReplicatedTaskGraphView tgview(tg, sview);
    core::BlockStore store(sview, tgview, rt, /*numeric=*/true);
    core::Offload offload(opts.gpu, rt, /*numeric=*/true);
    store.assemble(ap);
    core::FactorEngine engine(rt, sview, tgview, store, offload, opts);
    using Peer = core::FactorEngineTestPeer;
    std::size_t before = 0;
    for (int r = 0; r < rt.nranks(); ++r) {
      before += Peer::aggregate_entries(engine, r);
    }
    ASSERT_GT(before, 0u) << "no aggregated update in the run";
    engine.run();
    for (int r = 0; r < rt.nranks(); ++r) {
      EXPECT_EQ(Peer::aggregate_entries(engine, r), 0u) << "rank " << r;
    }
  }
}

// Regression for a data race TSan flagged: events() handed out a
// reference into events_ and size() read it unlocked, while the threaded
// drive mode calls record() concurrently from every rank thread. Both
// accessors now take the mutex (events() returns a snapshot copy), so
// this runs clean under -DSYMPACK_SANITIZE=thread.
TEST(ThreadedTracer, ConcurrentRecordAndReadAreRaceFree) {
  core::Tracer tracer;
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 500;

  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&tracer, w] {
      for (int i = 0; i < kEventsPerWriter; ++i) {
        tracer.record(w, "D " + std::to_string(i), i * 1e-6, i * 1e-6 + 5e-7);
      }
    });
  }
  threads.emplace_back([&tracer] {
    // Reader hammers every const accessor while the writers append.
    std::size_t seen = 0;
    while (seen < kWriters * kEventsPerWriter) {
      seen = tracer.size();
      const std::vector<core::Tracer::Event> snapshot = tracer.events();
      ASSERT_LE(snapshot.size(), static_cast<std::size_t>(kWriters) *
                                     kEventsPerWriter);
      ASSERT_FALSE(tracer.to_chrome_json().empty());
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kWriters) * kEventsPerWriter);
}

}  // namespace
}  // namespace sympack
