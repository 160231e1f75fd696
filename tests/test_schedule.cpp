// Golden-schedule regression suite.
//
// The task-runtime refactor (core/taskrt/) must not move a single task:
// for every (proxy, policy, faults on/off) combination the sequential
// driver's execution order — the exact sequence of (rank, task) pairs
// the tracer records — and the aggregated CommStats must stay
// byte-identical to the pre-refactor engines. The hashes below were
// captured on the hand-rolled engines (before taskrt existed) and are
// checked in; any scheduling change, however subtle, flips the hash.
//
// The hash folds, in record order, each traced event's rank and name
// (task ids, not timestamps — simulated times are equal in exact
// arithmetic but names are platform-proof), then the full CommStats
// counter block. Faults-on runs pin the recovery protocol's schedule
// too (ledger replays, dedup, re-requests) under a fixed injection seed.
//
// Every pre-existing table pins the options it was captured on
// explicitly (the legacy rendezvous transport unless a row says
// otherwise), so a change of library defaults never moves those hashes.
// All of them also pin the ordering and supernode partition they were
// captured on (legacy_ordered: the raw nested-dissection permutation
// and the old amalgamation thresholds). The kGoldenDefault table pins
// the default transport on that ordering; kGoldenFullDefault pins what
// a run with default SolverOptions produced end to end before progress
// became arrival-ordered. Every one of those tables runs the runtime
// with kLegacyProgress (drain the whole inbox); kGoldenArrival pins the
// full defaults, arrival-ordered progress included, as they were before
// the default map became the subtree layer. All of the tables above
// pin the 2D block-cyclic map they were captured on;
// kGoldenSubtreeLayer pins the defaults as they were before the
// default policy became bottom-level, and kGoldenBottomLevel pins the
// defaults as they are.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>

#include "core/solver.hpp"
#include "core/trace.hpp"
#include "legacy_options.hpp"
#include "pgas/runtime.hpp"
#include "sparse/generators.hpp"

namespace sympack {
namespace {

using sparse::CscMatrix;

CscMatrix proxy_matrix(const std::string& name) {
  if (name == "flan") return sparse::flan_proxy(0.02);
  if (name == "bones") return sparse::bones_proxy(0.02);
  return sparse::thermal_proxy(0.005);
}

/// True when a SYMPACK_FAULT_* environment override is present: the
/// Runtime constructor would overlay it onto our pinned fault config and
/// the golden hashes would (correctly) not reproduce.
bool fault_env_overridden() {
  static const char* kVars[] = {
      "SYMPACK_FAULT_ENABLED", "SYMPACK_FAULT_SEED",    "SYMPACK_FAULT_DROP",
      "SYMPACK_FAULT_DUP",     "SYMPACK_FAULT_DELAY",   "SYMPACK_FAULT_DELAY_S",
      "SYMPACK_FAULT_REORDER", "SYMPACK_FAULT_TRANSFER", "SYMPACK_FAULT_DEVICE",
      "SYMPACK_FAULT_KILL",    "SYMPACK_BUDDY_REPLICAS",
      "SYMPACK_DETECT_IDLE",   "SYMPACK_RESTART_DELAY_S",
      "SYMPACK_MAX_RECOVERIES",
  };
  for (const char* v : kVars) {
    if (std::getenv(v) != nullptr) return true;
  }
  return false;
}

/// Same idea for the eager/coalesce transport knobs: the solver overlays
/// them onto SolverOptions::comm, which changes the schedule by design.
/// SYMPACK_SYMBOLIC_SHARD keeps the protocol counters identical but
/// perturbs the simulated clocks (metadata pulls), so it is guarded too.
bool comm_env_overridden() {
  return std::getenv("SYMPACK_EAGER_BYTES") != nullptr ||
         std::getenv("SYMPACK_COALESCE") != nullptr ||
         std::getenv("SYMPACK_SYMBOLIC_SHARD") != nullptr;
}

void fnv_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

std::uint64_t schedule_hash(const core::Tracer& tracer,
                            const pgas::CommStats& stats) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& e : tracer.events()) {
    const std::int32_t rank = e.rank;
    fnv_mix(h, &rank, sizeof rank);
    fnv_mix(h, e.name.data(), e.name.size());
  }
  const std::uint64_t counters[] = {
      stats.rpcs_sent,      stats.rpcs_executed,      stats.gets,
      stats.puts,           stats.bytes_from_host,    stats.bytes_from_device,
      stats.bytes_to_device, stats.hd_copies,         stats.retries,
      stats.retransmits,    stats.dropped_detected,   stats.duplicates_dropped,
      stats.out_of_order,   stats.rpcs_deferred,      stats.oom_fallbacks,
  };
  fnv_mix(h, counters, sizeof counters);
  return h;
}

/// A golden row's input as it was captured: the proxy pre-ordered with
/// the raw nested dissection (legacy_options.hpp) under `opts`.
OrderedProblem legacy_problem(const std::string& proxy,
                              core::SolverOptions opts) {
  return legacy_ordered(proxy_matrix(proxy), std::move(opts));
}

std::uint64_t run_golden(const OrderedProblem& problem, bool faults,
                         pgas::Progress progress,
                         pgas::CommStats* stats_out = nullptr) {
  pgas::Runtime::Config cfg;
  cfg.progress = progress;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  if (faults) {
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xfeedbeefull;
    cfg.faults.drop_rate = 0.02;
    cfg.faults.duplicate_rate = 0.02;
    cfg.faults.delay_rate = 0.05;
    cfg.faults.reorder_rate = 0.05;
    cfg.faults.transfer_fail_rate = 0.02;
    cfg.faults.device_deny_rate = 0.05;
  }
  pgas::Runtime rt(cfg);
  core::SymPackSolver solver(rt, problem.opts);
  core::Tracer tracer;
  solver.set_tracer(&tracer);
  solver.symbolic_factorize(problem.a);
  solver.factorize();
  if (stats_out != nullptr) *stats_out = rt.total_stats();
  return schedule_hash(tracer, rt.total_stats());
}

struct Golden {
  const char* proxy;
  core::Policy policy;
  bool faults;
  std::uint64_t hash;
  core::Variant variant = core::Variant::kFanOut;
  /// Default SolverOptions (but `policy` and `variant`) on the default
  /// progress rule, instead of the legacy harness (kGoldenFanIn rows).
  bool full_default = false;
  symbolic::Mapping::Kind mapping = symbolic::Mapping::Kind::k2dBlockCyclic;
};

/// Options of a kGolden row: `policy` on the legacy transport.
core::SolverOptions legacy_opts(core::Policy policy) {
  core::SolverOptions opts;
  opts.policy = policy;
  opts.comm = legacy_comm();
  return opts;
}

// Captured on the pre-taskrt engines (commit 7619baa), sequential
// driver, 8 ranks. Regenerate only for an *intentional* schedule change
// by running with --gtest_also_run_disabled_tests and copying the
// printed table (see DISABLED_PrintTable below).
const Golden kGolden[] = {
    {"flan", core::Policy::kFifo, false, 0x67e219a50b2fd360ull},
    {"flan", core::Policy::kLifo, false, 0xa303dbffc7517104ull},
    {"flan", core::Policy::kPriority, false, 0xd62aa162eae797a6ull},
    {"flan", core::Policy::kCriticalPath, false, 0xedf0fd89526dae06ull},
    {"bones", core::Policy::kFifo, false, 0xc38644e6093ca449ull},
    {"bones", core::Policy::kLifo, false, 0x71727e5b1a11a631ull},
    {"bones", core::Policy::kPriority, false, 0x1dd70933042954ffull},
    {"bones", core::Policy::kCriticalPath, false, 0x583ff9c950d8b3f9ull},
    {"thermal", core::Policy::kFifo, false, 0x194c29fd2a19d069ull},
    {"thermal", core::Policy::kLifo, false, 0x81f2835147a17d9ull},
    {"thermal", core::Policy::kPriority, false, 0xdf5e4539dcf5ffedull},
    {"thermal", core::Policy::kCriticalPath, false, 0x99cbee1e807b2597ull},
    {"flan", core::Policy::kFifo, true, 0xbc515dae9a5af28eull},
    {"flan", core::Policy::kLifo, true, 0x68dd77823ebe2287ull},
    {"flan", core::Policy::kPriority, true, 0x4b29f2790b94e844ull},
    {"flan", core::Policy::kCriticalPath, true, 0x5207cbdbacecae95ull},
    {"bones", core::Policy::kFifo, true, 0x90474dae94051043ull},
    {"bones", core::Policy::kLifo, true, 0x93014c1c8743e936ull},
    {"bones", core::Policy::kPriority, true, 0x6d89d802e1d8af1eull},
    {"bones", core::Policy::kCriticalPath, true, 0xe790ed8b916b231full},
    {"thermal", core::Policy::kFifo, true, 0x141d9b9a632dd1d4ull},
    {"thermal", core::Policy::kLifo, true, 0x30060880d1dbde8cull},
    {"thermal", core::Policy::kPriority, true, 0xe7e9645da31b1734ull},
    {"thermal", core::Policy::kCriticalPath, true, 0xdebd2d57b69be4eaull},
};

class GoldenSchedule : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenSchedule, HashMatchesPreRefactorCapture) {
  const Golden& g = GetParam();
  if (g.faults && fault_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_FAULT_* environment override active";
  }
  if (comm_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_EAGER_BYTES/SYMPACK_COALESCE override active";
  }
  const std::uint64_t h =
      run_golden(legacy_problem(g.proxy, legacy_opts(g.policy)), g.faults,
                 kLegacyProgress);
  EXPECT_EQ(h, g.hash) << "schedule drifted: proxy=" << g.proxy
                       << " policy=" << core::policy_name(g.policy)
                       << " faults=" << (g.faults ? "on" : "off")
                       << " actual=0x" << std::hex << h << "ull";
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string n = info.param.proxy;
  n += '_';
  n += core::policy_name(info.param.policy);
  if (info.param.faults) n += "_faults";
  if (info.param.full_default) n += "_default";
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(All, GoldenSchedule, ::testing::ValuesIn(kGolden),
                         golden_name);

// Regeneration helper: prints the full golden table in source form.
TEST(GoldenScheduleTable, DISABLED_PrintTable) {
  for (const Golden& g : kGolden) {
    const std::uint64_t h =
        run_golden(legacy_problem(g.proxy, legacy_opts(g.policy)), g.faults,
                   kLegacyProgress);
    printf("    {\"%s\", core::Policy::k%s, %s, 0x%llxull},\n", g.proxy,
           g.policy == core::Policy::kFifo      ? "Fifo"
           : g.policy == core::Policy::kLifo    ? "Lifo"
           : g.policy == core::Policy::kPriority ? "Priority"
                                                 : "CriticalPath",
           g.faults ? "true" : "false", static_cast<unsigned long long>(h));
  }
}

// ------------------------------------------------------------------
// Eager + coalesced schedules are deterministic too (sequential driver):
// with a pinned threshold the fast path must not drift either. The rows
// double as a regression net for the transport itself — the hash covers
// the historical CommStats block, so an accidental extra rget or
// un-batched signal flips it.

core::SolverOptions eager_opts(core::Policy policy) {
  core::SolverOptions opts;
  opts.policy = policy;
  opts.comm.eager_bytes = 4096;
  opts.comm.coalesce = true;
  return opts;
}

// Captured with eager_bytes=4096 + coalesce on (sequential driver, 8
// ranks, fifo). Regenerate via DISABLED_PrintEagerTable.
const Golden kGoldenEager[] = {
    {"flan", core::Policy::kFifo, false, 0x34cf3f084429f975ull},
    {"bones", core::Policy::kFifo, false, 0x4dc256fe6fa820full},
    {"thermal", core::Policy::kFifo, false, 0xd612a177306949a5ull},
    {"flan", core::Policy::kFifo, true, 0xb9ad88dc509c2124ull},
    {"bones", core::Policy::kFifo, true, 0x413c247cc578f413ull},
    {"thermal", core::Policy::kFifo, true, 0xdfa3340b25e33d12ull},
};

class GoldenEagerSchedule : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenEagerSchedule, HashMatchesCapture) {
  const Golden& g = GetParam();
  if (g.faults && fault_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_FAULT_* environment override active";
  }
  if (comm_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_EAGER_BYTES/SYMPACK_COALESCE override active";
  }
  pgas::CommStats stats;
  const std::uint64_t h =
      run_golden(legacy_problem(g.proxy, eager_opts(g.policy)), g.faults,
                 kLegacyProgress, &stats);
  // The fast path actually engaged on every row.
  EXPECT_GT(stats.eager_sends, 0u);
  EXPECT_GT(stats.coalesced_signals, 0u);
  EXPECT_EQ(h, g.hash) << "eager schedule drifted: proxy=" << g.proxy
                       << " faults=" << (g.faults ? "on" : "off")
                       << " actual=0x" << std::hex << h << "ull";
}

INSTANTIATE_TEST_SUITE_P(Eager, GoldenEagerSchedule,
                         ::testing::ValuesIn(kGoldenEager), golden_name);

TEST(GoldenScheduleTable, DISABLED_PrintEagerTable) {
  for (const Golden& g : kGoldenEager) {
    const std::uint64_t h =
        run_golden(legacy_problem(g.proxy, eager_opts(g.policy)), g.faults,
                   kLegacyProgress);
    printf("    {\"%s\", core::Policy::kFifo, %s, 0x%llxull},\n", g.proxy,
           g.faults ? "true" : "false", static_cast<unsigned long long>(h));
  }
}

// ------------------------------------------------------------------
// Fan-in goldens: the aggregate placement of the update task (U_{s,j,t}
// runs on the owner of L_{s,j} and its contribution travels as one
// aggregate per producer and target block). The legacy-harness rows use
// the kGolden options, fault seed and progress rule; the full_default
// rows run default SolverOptions on the default progress rule (arrival
// order, eager + coalesced transport). Aggregated panels run their RTQ
// FIFO whatever the policy says, so each kCriticalPath row's hash equals
// the FIFO row of its proxy. Regenerate via DISABLED_PrintFanInTable.

core::SolverOptions fanin_opts(const Golden& g) {
  core::SolverOptions opts = g.full_default ? core::SolverOptions{}
                                            : legacy_opts(g.policy);
  opts.policy = g.policy;
  opts.variant = g.variant;
  opts.mapping = g.mapping;
  return opts;
}

std::uint64_t run_fanin_golden(const Golden& g) {
  const core::SolverOptions opts = fanin_opts(g);
  return g.full_default
             ? run_golden({proxy_matrix(g.proxy), opts}, g.faults,
                          pgas::Progress::kArrival)
             : run_golden(legacy_problem(g.proxy, opts), g.faults,
                          kLegacyProgress);
}

constexpr auto kFanIn = core::Variant::kFanIn;

const Golden kGoldenFanIn[] = {
    {"flan", core::Policy::kFifo, false, 0x41493cc4c8c5c815ull, kFanIn},
    {"bones", core::Policy::kFifo, false, 0xb0438c34147ea18cull, kFanIn},
    {"thermal", core::Policy::kFifo, false, 0x8d5f5fe4f3541042ull, kFanIn},
    {"flan", core::Policy::kFifo, true, 0x1e1d12d82c42a3f5ull, kFanIn},
    {"bones", core::Policy::kFifo, true, 0xaad2830b1e87781bull, kFanIn},
    {"thermal", core::Policy::kFifo, true, 0x6133c2425027d6d0ull, kFanIn},
    {"flan", core::Policy::kFifo, false, 0xfcda864c69317b7bull, kFanIn, true},
    {"bones", core::Policy::kFifo, false, 0xf6ac05b3f3ba95b4ull, kFanIn, true},
    {"thermal", core::Policy::kFifo, false,
     0x4c3fde9eebf2d04dull, kFanIn, true},
    {"flan", core::Policy::kCriticalPath, false,
     0xfcda864c69317b7bull, kFanIn, true},
    {"bones", core::Policy::kCriticalPath, false,
     0xf6ac05b3f3ba95b4ull, kFanIn, true},
    {"thermal", core::Policy::kCriticalPath, false,
     0x4c3fde9eebf2d04dull, kFanIn, true},
};

class GoldenFanInSchedule : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenFanInSchedule, HashMatchesCapture) {
  const Golden& g = GetParam();
  if (g.faults && fault_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_FAULT_* environment override active";
  }
  if (comm_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_EAGER_BYTES/SYMPACK_COALESCE override active";
  }
  const std::uint64_t h = run_fanin_golden(g);
  EXPECT_EQ(h, g.hash) << "fan-in schedule drifted: proxy=" << g.proxy
                       << " policy=" << core::policy_name(g.policy)
                       << " faults=" << (g.faults ? "on" : "off")
                       << " full_default=" << g.full_default
                       << " actual=0x" << std::hex << h << "ull";
}

INSTANTIATE_TEST_SUITE_P(FanIn, GoldenFanInSchedule,
                         ::testing::ValuesIn(kGoldenFanIn), golden_name);

constexpr auto kLayer = symbolic::Mapping::Kind::kSubtreeLayer;

// Fan-in at the true defaults: the subtree-layer map. Captured when the
// layer became the default (sequential drive, 8 ranks). Regenerate via
// DISABLED_PrintFanInTable.
const Golden kGoldenSubtreeLayerFanIn[] = {
    {"thermal", core::Policy::kFifo, false, 0xe8ea55b041886d63ull, kFanIn, true,
     kLayer},
};

INSTANTIATE_TEST_SUITE_P(SubtreeLayer, GoldenFanInSchedule,
                         ::testing::ValuesIn(kGoldenSubtreeLayerFanIn),
                         golden_name);

TEST(GoldenScheduleTable, DISABLED_PrintFanInTable) {
  const auto print = [](const Golden& g) {
    printf("    {\"%s\", core::Policy::k%s, %s, 0x%llxull, kFanIn%s%s},\n",
           g.proxy,
           g.policy == core::Policy::kFifo ? "Fifo" : "CriticalPath",
           g.faults ? "true" : "false",
           static_cast<unsigned long long>(run_fanin_golden(g)),
           g.full_default ? ", true" : "",
           g.mapping == kLayer ? ", kLayer" : "");
  };
  for (const Golden& g : kGoldenFanIn) print(g);
  for (const Golden& g : kGoldenSubtreeLayerFanIn) print(g);
}

// ------------------------------------------------------------------
// Solve-phase goldens. The solve engine is untraced (the tracer only
// attaches during factorization), so these pin the CommStats counter
// block of the solve phase alone: stats are reset after factorize and
// hashed after the sweeps. rhs_panel=1 rows pin the historical
// per-vector protocol; rhs_panel>1 rows pin the blocked panel protocol
// (fewer, larger messages — any accounting drift flips the hash).

bool solve_env_overridden() {
  return std::getenv("SYMPACK_RHS_PANEL") != nullptr ||
         std::getenv("SYMPACK_SOLVE_OVERLAP") != nullptr ||
         std::getenv("SYMPACK_SOLVE_MAX_QUEUE") != nullptr;
}

std::uint64_t comm_stats_hash(const pgas::CommStats& stats) {
  std::uint64_t h = 14695981039346656037ull;
  const std::uint64_t counters[] = {
      stats.rpcs_sent,      stats.rpcs_executed,      stats.gets,
      stats.puts,           stats.bytes_from_host,    stats.bytes_from_device,
      stats.bytes_to_device, stats.hd_copies,         stats.retries,
      stats.retransmits,    stats.dropped_detected,   stats.duplicates_dropped,
      stats.out_of_order,   stats.rpcs_deferred,      stats.oom_fallbacks,
  };
  fnv_mix(h, counters, sizeof counters);
  return h;
}

std::uint64_t run_solve_golden(const OrderedProblem& problem, int nrhs,
                               pgas::Progress progress,
                               pgas::CommStats* stats_out = nullptr) {
  pgas::Runtime::Config cfg;
  cfg.progress = progress;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 64 << 20;
  pgas::Runtime rt(cfg);
  core::SymPackSolver solver(rt, problem.opts);
  const CscMatrix& a = problem.a;
  solver.symbolic_factorize(a);
  solver.factorize();
  rt.reset_stats();  // isolate the solve phase's counters
  const std::vector<double> b(
      static_cast<std::size_t>(a.n()) * static_cast<std::size_t>(nrhs), 1.0);
  (void)solver.solve(b, nrhs);
  if (stats_out != nullptr) *stats_out = rt.total_stats();
  return comm_stats_hash(rt.total_stats());
}

struct SolveGolden {
  const char* proxy;
  int rhs_panel;
  int nrhs;
  std::uint64_t hash;
};

/// Options of a kGoldenSolve row: `rhs_panel` on the legacy transport.
core::SolverOptions legacy_solve_opts(int rhs_panel) {
  core::SolverOptions opts;
  opts.comm = legacy_comm();
  opts.solve.rhs_panel = rhs_panel;
  return opts;
}

// Captured at the introduction of the blocked multi-RHS path, 8 ranks,
// fifo, faults off. The rhs_panel=1 rows reproduce the per-vector
// protocol the engine shipped with. Regenerate via
// DISABLED_PrintSolveTable.
const SolveGolden kGoldenSolve[] = {
    {"flan", 1, 1, 0xdbb2b7b69b6cf05full},
    {"flan", 2, 4, 0xfa6dc3d8729d7305ull},
    {"bones", 1, 1, 0x19c38ef727eff95bull},
    {"bones", 2, 4, 0xe95f57d63b30a6feull},
    {"thermal", 1, 1, 0xd6b6f84d3cfde61aull},
    {"thermal", 2, 4, 0xeadcf55bc8b13c66ull},
};

class GoldenSolveSchedule : public ::testing::TestWithParam<SolveGolden> {};

TEST_P(GoldenSolveSchedule, CommStatsMatchCapture) {
  const SolveGolden& g = GetParam();
  if (comm_env_overridden() || solve_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_* comm/solve environment override active";
  }
  const std::uint64_t h = run_solve_golden(
      legacy_problem(g.proxy, legacy_solve_opts(g.rhs_panel)), g.nrhs,
      kLegacyProgress);
  EXPECT_EQ(h, g.hash) << "solve schedule drifted: proxy=" << g.proxy
                       << " rhs_panel=" << g.rhs_panel << " nrhs=" << g.nrhs
                       << " actual=0x" << std::hex << h << "ull";
}

std::string solve_golden_name(
    const ::testing::TestParamInfo<SolveGolden>& info) {
  std::string n = info.param.proxy;
  n += "_panel";
  n += std::to_string(info.param.rhs_panel);
  n += "_nrhs";
  n += std::to_string(info.param.nrhs);
  return n;
}

INSTANTIATE_TEST_SUITE_P(Solve, GoldenSolveSchedule,
                         ::testing::ValuesIn(kGoldenSolve),
                         solve_golden_name);

TEST(GoldenScheduleTable, DISABLED_PrintSolveTable) {
  for (const SolveGolden& g : kGoldenSolve) {
    const std::uint64_t h = run_solve_golden(
        legacy_problem(g.proxy, legacy_solve_opts(g.rhs_panel)), g.nrhs,
        kLegacyProgress);
    printf("    {\"%s\", %d, %d, 0x%llxull},\n", g.proxy, g.rhs_panel,
           g.nrhs, static_cast<unsigned long long>(h));
  }
}

// Structural invariant behind the batched path's win: a fused panel
// sweep moves the same payload bytes as per-vector sweeps but in
// proportionally fewer protocol messages.
TEST(SolveSchedule, PanelSweepAmortizesMessages) {
  if (comm_env_overridden() || solve_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_* comm/solve environment override active";
  }
  pgas::CommStats per_vector, blocked;
  run_solve_golden({proxy_matrix("flan"), legacy_solve_opts(1)}, 8,
                   kLegacyProgress, &per_vector);
  run_solve_golden({proxy_matrix("flan"), legacy_solve_opts(8)}, 8,
                   kLegacyProgress, &blocked);
  EXPECT_EQ(blocked.bytes_from_host, per_vector.bytes_from_host);
  // 8 columns per message instead of 1: signals and pulls collapse ~8x.
  EXPECT_LT(blocked.rpcs_sent * 4, per_vector.rpcs_sent);
  EXPECT_LT(blocked.gets * 4, per_vector.gets);
}

// ------------------------------------------------------------------
// Default-options goldens: what a user who sets nothing gets (eager +
// coalesced transport, one fused RHS panel). Factor rows hash the trace
// plus CommStats like kGolden; solve rows hash the solve phase's
// CommStats at nrhs = 4 like kGoldenSolve. kGoldenDefault was captured
// when that transport became the default (sequential drive, 8 ranks,
// faults off) and stays on the ordering it was captured on
// (legacy_ordered); its factor hashes equal the faults-off kGoldenEager
// rows because the defaults are exactly that transport at fifo.
// kGoldenFullDefault runs the proxies with default SolverOptions as
// they are, etree-postordered ordering and relax thresholds included.
// Regenerate via DISABLED_PrintDefaultTables — only for an intentional
// change of the defaults or of the schedules they produce.

struct DefaultGolden {
  const char* proxy;
  std::uint64_t factor_hash;
  std::uint64_t solve_hash;  // nrhs = 4
  bool legacy_order;         // factor legacy_ordered(proxy)
  pgas::Progress progress;   // runtime inbox rule the row was captured on
  symbolic::Mapping::Kind mapping = symbolic::Mapping::Kind::k2dBlockCyclic;
  core::Policy policy = core::Policy::kFifo;  // the default until then
};

const DefaultGolden kGoldenDefault[] = {
    {"flan", 0x34cf3f084429f975ull, 0xea5f34968d4966ccull, true,
     kLegacyProgress},
    {"bones", 0x4dc256fe6fa820full, 0x87986504f1a0eceull, true,
     kLegacyProgress},
    {"thermal", 0xd612a177306949a5ull, 0x8c83214083a98e5eull, true,
     kLegacyProgress},
};

const DefaultGolden kGoldenFullDefault[] = {
    {"flan", 0x8f8609f7e086d750ull, 0xd84f3c14affdd27bull, false,
     kLegacyProgress},
    {"bones", 0xa971d2e1106a0cdaull, 0xc433908c9582d1b9ull, false,
     kLegacyProgress},
    {"thermal", 0x99f00a016c6d6437ull, 0xfd0f90195b424c84ull, false,
     kLegacyProgress},
};

// Default SolverOptions and a default Runtime::Config: arrival-ordered
// progress (RPCs that arrive after a ready task can start wait for it).
const DefaultGolden kGoldenArrival[] = {
    {"flan", 0xcf24dc02446c8676ull, 0x470e0bccb8615cdbull, false,
     pgas::Progress::kArrival},
    {"bones", 0x32814b3e32dbcd9aull, 0x8110128b6c9d0359ull, false,
     pgas::Progress::kArrival},
    {"thermal", 0x78ce4a9c38c6ba37ull, 0x2edb70153547dcc0ull, false,
     pgas::Progress::kArrival},
};

// Default SolverOptions and a default Runtime::Config with the
// subtree-layer map (bottom subtrees whole on one rank, the 2D grid
// above them) at FIFO. Captured when the layer became the default; each
// hash differs from its kGoldenArrival row, so the layer engages on
// every proxy at 8 ranks.
const DefaultGolden kGoldenSubtreeLayer[] = {
    {"flan", 0x21b1e1983ea87bc7ull, 0xfb2bc7844bfd767full, false,
     pgas::Progress::kArrival, kLayer},
    {"bones", 0x3a8e579e6be600a1ull, 0x9f75fb0bf55b5a7full, false,
     pgas::Progress::kArrival, kLayer},
    {"thermal", 0x77ad4591618ed98bull, 0xce2dbd688f60e332ull, false,
     pgas::Progress::kArrival, kLayer},
};

constexpr auto kBottomLevel = core::Policy::kBottomLevel;

// Default SolverOptions and a default Runtime::Config as they are: the
// bottom-level ready queue on the subtree layer. Captured when
// bottom-level became the default policy; the factor hashes differ from
// the kGoldenSubtreeLayer rows, while the solve hashes equal them (the
// policy orders factorization tasks only).
const DefaultGolden kGoldenBottomLevel[] = {
    {"flan", 0x118da35a9c500cdaull, 0xfb2bc7844bfd767full, false,
     pgas::Progress::kArrival, kLayer, kBottomLevel},
    {"bones", 0x8e4ac7fd391bb8ffull, 0x9f75fb0bf55b5a7full, false,
     pgas::Progress::kArrival, kLayer, kBottomLevel},
    {"thermal", 0x69ab3a0aa3837768ull, 0xce2dbd688f60e332ull, false,
     pgas::Progress::kArrival, kLayer, kBottomLevel},
};

constexpr int kDefaultGoldenNrhs = 4;

OrderedProblem default_problem(const DefaultGolden& g) {
  core::SolverOptions opts;
  opts.mapping = g.mapping;
  opts.policy = g.policy;
  return g.legacy_order ? legacy_problem(g.proxy, opts)
                        : OrderedProblem{proxy_matrix(g.proxy), opts};
}

class GoldenDefaultSchedule : public ::testing::TestWithParam<DefaultGolden> {
};

TEST_P(GoldenDefaultSchedule, FactorHashMatchesCapture) {
  const DefaultGolden& g = GetParam();
  if (comm_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_EAGER_BYTES/SYMPACK_COALESCE override active";
  }
  pgas::CommStats stats;
  const std::uint64_t h =
      run_golden(default_problem(g), /*faults=*/false, g.progress, &stats);
  EXPECT_GT(stats.eager_sends, 0u);
  EXPECT_GT(stats.coalesced_signals, 0u);
  EXPECT_EQ(h, g.factor_hash) << "default schedule drifted: proxy=" << g.proxy
                              << " actual=0x" << std::hex << h << "ull";
}

TEST_P(GoldenDefaultSchedule, SolveCommStatsMatchCapture) {
  const DefaultGolden& g = GetParam();
  if (comm_env_overridden() || solve_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_* comm/solve environment override active";
  }
  const std::uint64_t h =
      run_solve_golden(default_problem(g), kDefaultGoldenNrhs, g.progress);
  EXPECT_EQ(h, g.solve_hash) << "default solve drifted: proxy=" << g.proxy
                             << " actual=0x" << std::hex << h << "ull";
}

std::string default_golden_name(
    const ::testing::TestParamInfo<DefaultGolden>& info) {
  return info.param.proxy;
}

INSTANTIATE_TEST_SUITE_P(Default, GoldenDefaultSchedule,
                         ::testing::ValuesIn(kGoldenDefault),
                         default_golden_name);
INSTANTIATE_TEST_SUITE_P(FullDefault, GoldenDefaultSchedule,
                         ::testing::ValuesIn(kGoldenFullDefault),
                         default_golden_name);
INSTANTIATE_TEST_SUITE_P(Arrival, GoldenDefaultSchedule,
                         ::testing::ValuesIn(kGoldenArrival),
                         default_golden_name);
INSTANTIATE_TEST_SUITE_P(SubtreeLayer, GoldenDefaultSchedule,
                         ::testing::ValuesIn(kGoldenSubtreeLayer),
                         default_golden_name);
INSTANTIATE_TEST_SUITE_P(BottomLevel, GoldenDefaultSchedule,
                         ::testing::ValuesIn(kGoldenBottomLevel),
                         default_golden_name);

// The newest table pins what a user who sets nothing gets.
TEST(GoldenDefaultTable, NewestTableIsTheDefaults) {
  const core::SolverOptions defaults;
  for (const DefaultGolden& g : kGoldenBottomLevel) {
    EXPECT_EQ(g.policy, defaults.policy);
    EXPECT_EQ(g.mapping, defaults.mapping);
    EXPECT_FALSE(g.legacy_order);
    EXPECT_EQ(g.progress, pgas::Runtime::Config{}.progress);
  }
}

TEST(GoldenScheduleTable, DISABLED_PrintDefaultTables) {
  const auto print = [](const DefaultGolden& g) {
    printf("    {\"%s\", 0x%llxull, 0x%llxull, %s,\n     %s%s%s},\n", g.proxy,
           static_cast<unsigned long long>(
               run_golden(default_problem(g), /*faults=*/false, g.progress)),
           static_cast<unsigned long long>(
               run_solve_golden(default_problem(g), kDefaultGoldenNrhs,
                                g.progress)),
           g.legacy_order ? "true" : "false",
           g.progress == kLegacyProgress ? "kLegacyProgress"
                                         : "pgas::Progress::kArrival",
           g.mapping == kLayer ? ", kLayer" : "",
           g.policy == kBottomLevel ? ", kBottomLevel" : "");
  };
  for (const DefaultGolden& g : kGoldenDefault) print(g);
  for (const DefaultGolden& g : kGoldenFullDefault) print(g);
  for (const DefaultGolden& g : kGoldenArrival) print(g);
  for (const DefaultGolden& g : kGoldenSubtreeLayer) print(g);
  for (const DefaultGolden& g : kGoldenBottomLevel) print(g);
}

}  // namespace
}  // namespace sympack
