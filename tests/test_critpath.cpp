// Tests for the trace/JSON emission fixes and the critical-path
// analyzer (core/critpath.hpp):
//
//   * Tracer::to_chrome_json with hostile task names — quotes,
//     backslashes, control characters, and names far beyond the old
//     fixed 160-byte formatting buffer — must still emit valid JSON
//     (the pre-fix serializer truncated and never escaped).
//   * A full factor + solve trace round-trips through the serializer
//     and parses.
//   * bench::JsonReport renders non-finite doubles as null, not as the
//     unparseable bare tokens nan/inf.
//   * DepTracker::satisfy asserts on a decrement below zero in debug
//     builds (a duplicate signal that escaped the dedup layer).
//   * CritPathAnalyzer on a hand-built five-task DAG: known critical
//     path, per-category breakdown, comm/wait split at a fetch-marked
//     cross-rank handoff, and the name-parse fallback for plain traces.
//   * Policy::kBottomLevel on a hand-built tree: bottom levels sum the
//     panel costs up the tree, panel tasks pop before updates, and one
//     source panel's updates pop back to back; the default holds no more
//     staged fetched copies than kCriticalPath.
//   * Policy::kAuto resolves to a concrete policy whose simulated
//     makespan is no worse than every fixed policy (the pilots are
//     protocol-only and sim-exact, so this holds by construction).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/critpath.hpp"
#include "core/factor.hpp"
#include "core/solve.hpp"
#include "core/solver.hpp"
#include "core/taskrt/dep_tracker.hpp"
#include "core/taskrt/ready_queue.hpp"
#include "core/taskrt/tree_levels.hpp"
#include "core/trace.hpp"
#include "ordering/etree.hpp"
#include "ordering/ordering.hpp"
#include "sparse/coo.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "sparse/permute.hpp"
#include "support/json.hpp"
#include "symbolic/taskgraph.hpp"
#include "symbolic/view.hpp"

namespace sympack {
namespace {

// ---------------------------------------------------------------------
// Tracer JSON emission.

TEST(TracerJson, HostileNamesStillEmitValidJson) {
  core::Tracer tracer;
  // Quote, backslash, newline, tab, a raw control byte, and padding well
  // past the old 160-byte snprintf buffer.
  std::string evil = "evil\"name\\with\nbad\tcontrols\x01";
  evil.append(200, 'x');
  tracer.record(0, evil, 0.0, 1.0);
  tracer.record(1, "plain", 0.5, 2.0);

  const std::string doc = tracer.to_chrome_json();
  std::string err;
  EXPECT_TRUE(support::json_validate(doc, &err)) << err;
  // The raw quote/control bytes must not appear unescaped.
  EXPECT_NE(doc.find("evil\\\"name\\\\with\\nbad\\tcontrols\\u0001"),
            std::string::npos);
  // Nothing got truncated: the long tail survives.
  EXPECT_NE(doc.find(std::string(200, 'x')), std::string::npos);
}

TEST(TracerJson, MetadataEventsCarryArgsAndValidate) {
  core::Tracer tracer;
  core::Tracer::Meta meta;
  meta.kind = 'U';
  meta.snode = 7;
  meta.a = 2;
  meta.b = 1;
  meta.tgt = 9;
  meta.tgt_slot = 3;
  tracer.record(0, "U 7:2:1", 1.0, 2.0, meta);
  const std::string doc = tracer.to_chrome_json();
  std::string err;
  EXPECT_TRUE(support::json_validate(doc, &err)) << err;
  EXPECT_NE(doc.find("\"cat\""), std::string::npos);
  EXPECT_NE(doc.find("\"args\""), std::string::npos);
}

TEST(TracerJson, FactorAndSolveTraceRoundTrips) {
  const auto raw = sparse::flan_proxy(0.08);
  const auto perm =
      ordering::compute_ordering(raw, ordering::Method::kNestedDissection);
  const auto a = sparse::permute_symmetric(raw, perm);

  pgas::Runtime::Config cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 2;
  pgas::Runtime rt(cfg);
  core::SolverOptions sopts;
  sopts.ordering = ordering::Method::kNatural;
  sopts.numeric = true;
  sopts.trace.metadata = true;
  core::SymPackSolver solver(rt, sopts);
  core::Tracer tracer;
  solver.set_tracer(&tracer);
  solver.symbolic_factorize(a);
  solver.factorize();
  const std::vector<double> b(static_cast<std::size_t>(a.n()), 1.0);
  (void)solver.solve(b, 1);

  ASSERT_GT(tracer.size(), 0u);
  std::string err;
  EXPECT_TRUE(support::json_validate(tracer.to_chrome_json(), &err)) << err;
}

// ---------------------------------------------------------------------
// Bench JSON report.

TEST(JsonReport, NonFiniteRendersAsNull) {
  bench::JsonReport report;
  report.add_row()
      .set("nan", std::nan(""))
      .set("pinf", std::numeric_limits<double>::infinity())
      .set("ninf", -std::numeric_limits<double>::infinity())
      .set("ok", 1.5);
  const std::string doc = report.to_string();
  std::string err;
  EXPECT_TRUE(support::json_validate(doc, &err)) << err << "\n" << doc;
  EXPECT_NE(doc.find("\"nan\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"pinf\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ninf\": null"), std::string::npos) << doc;
  // No bare nan/inf tokens anywhere (the pre-fix emitter printed them).
  EXPECT_EQ(doc.find(": nan"), std::string::npos) << doc;
  EXPECT_EQ(doc.find(": inf"), std::string::npos) << doc;
  EXPECT_EQ(doc.find(": -inf"), std::string::npos) << doc;
}

// ---------------------------------------------------------------------
// ReadyQueue::next_ready: the ready time of the task pop() returns, the
// horizon the engines hand Rank::progress().

TEST(ReadyQueue, NextReadyIsThePoppedTasksReadyTime) {
  struct Task {
    int id;
    double ready;
  };
  for (const core::Policy policy :
       {core::Policy::kFifo, core::Policy::kLifo, core::Policy::kPriority,
        core::Policy::kCriticalPath, core::Policy::kBottomLevel}) {
    core::taskrt::ReadyQueue<Task> q(policy);
    const double ready[] = {0.5, 0.1, 0.9, 0.3, 0.7};
    const std::int64_t prio[] = {2, 5, 1, 5, 3};
    for (int i = 0; i < 5; ++i) q.push(Task{i, ready[i]}, prio[i]);
    while (!q.empty()) {
      const double expect = q.next_ready();
      EXPECT_EQ(q.pop().ready, expect) << core::policy_name(policy);
    }
  }
}

// ---------------------------------------------------------------------
// Policy::kBottomLevel on a hand-built tree: two dense leaf blocks
// (columns 0-5 and 6-11) coupled to different rows of a dense root
// block (columns 12-17), split at width 3 without amalgamation, so the
// supernodal tree is A0 -> A1 -> R1 and B0 -> B1 -> R0 -> R1.

struct HandBuiltTree {
  symbolic::Symbolic sym;
  std::unique_ptr<symbolic::TaskGraph> tg;
  std::unique_ptr<symbolic::ReplicatedSymbolicView> view;
};

std::unique_ptr<HandBuiltTree> hand_built_tree() {
  sparse::CooBuilder b(18);
  auto dense = [&b](sparse::idx_t lo, sparse::idx_t hi) {
    for (sparse::idx_t j = lo; j <= hi; ++j) {
      for (sparse::idx_t i = j + 1; i <= hi; ++i) b.add(i, j, -0.1);
    }
  };
  for (sparse::idx_t j = 0; j < 18; ++j) b.add(j, j, 10.0);
  dense(0, 5);
  dense(6, 11);
  dense(12, 17);
  for (sparse::idx_t j = 0; j <= 5; ++j) {
    for (sparse::idx_t i = 15; i <= 17; ++i) b.add(i, j, -0.1);
  }
  for (sparse::idx_t j = 6; j <= 11; ++j) {
    for (sparse::idx_t i = 12; i <= 14; ++i) b.add(i, j, -0.1);
  }
  const sparse::CscMatrix a = b.build();
  symbolic::SymbolicOptions opts;
  opts.amalgamate = false;
  opts.max_width = 3;
  auto t = std::make_unique<HandBuiltTree>();
  t->sym = symbolic::analyze(a, ordering::elimination_tree(a), opts);
  t->tg = std::make_unique<symbolic::TaskGraph>(
      t->sym, symbolic::Mapping::build(1, symbolic::Mapping::Kind::k2dBlockCyclic,
                                       t->sym));
  t->view = std::make_unique<symbolic::ReplicatedSymbolicView>(t->sym, *t->tg,
                                                               0.0);
  return t;
}

TEST(BottomLevel, SumsPanelCostsUpTheTree) {
  const auto t = hand_built_tree();
  const auto& sym = *t->view;
  ASSERT_EQ(sym.num_snodes(), 6);
  const pgas::MachineModel model;
  const auto blevel = core::taskrt::tree_levels(sym, model).blevel;
  // c(k): POTRF + TRSM time at the CPU rates plus one signal.
  auto cost = [&](sparse::idx_t k) {
    const double w = static_cast<double>(sym.snode(k).width());
    const double r = static_cast<double>(sym.snode(k).nrows_below());
    return w * w * w / 3.0 / (model.cpu_potrf_Gflops * 1e9) +
           r * w * w / (model.cpu_trsm_Gflops * 1e9) + model.rpc_overhead_s +
           model.net_latency_s;
  };
  auto parent = [&](sparse::idx_t k) -> sparse::idx_t {
    const auto& below = sym.snode(k).below;
    return below.empty() ? -1 : sym.snode_of(below.front());
  };
  // The tree named above: supernodes A0 A1 B0 B1 R0 R1 are 0..5.
  EXPECT_EQ(parent(0), 1);
  EXPECT_EQ(parent(1), 5);
  EXPECT_EQ(parent(2), 3);
  EXPECT_EQ(parent(3), 4);
  EXPECT_EQ(parent(4), 5);
  EXPECT_EQ(parent(5), -1);
  for (sparse::idx_t k = 0; k < sym.num_snodes(); ++k) {
    double chain = 0.0;
    for (sparse::idx_t a = k; a >= 0; a = parent(a)) chain += cost(a);
    EXPECT_NEAR(blevel[k], chain, 1e-15) << "supernode " << k;
  }
  EXPECT_NEAR(blevel[5], cost(5), 1e-15);  // the root: its own cost
  EXPECT_GT(blevel[2], blevel[0]);         // the longer chain ranks higher
}

TEST(BottomLevel, PanelTasksFirstAndUpdatesGroupedBySource) {
  const auto t = hand_built_tree();
  const auto blevel =
      core::taskrt::tree_levels(*t->view, pgas::MachineModel{}).blevel;
  struct Task {
    bool panel;
    sparse::idx_t k;  // the supernode (panel task) or source panel (update)
    double ready;
  };
  // Updates of three source panels interleaved with panel tasks, in the
  // order a rank might see them become ready.
  const std::vector<Task> pushed = {
      {false, 0, 0}, {false, 2, 0}, {false, 0, 0}, {true, 4, 0},
      {false, 2, 0}, {true, 1, 0},  {false, 3, 0}, {false, 0, 0},
      {true, 5, 0},  {false, 3, 0}, {true, 2, 0},  {false, 2, 0}};
  core::taskrt::ReadyQueue<Task> q(core::Policy::kBottomLevel);
  for (const Task& task : pushed) {
    q.push(task, core::FactorEngine::bottom_level_priority(blevel[task.k],
                                                           task.panel));
  }
  std::vector<Task> popped;
  while (!q.empty()) popped.push_back(q.pop());
  ASSERT_EQ(popped.size(), pushed.size());

  const auto npanel = static_cast<std::size_t>(std::count_if(
      pushed.begin(), pushed.end(), [](const Task& x) { return x.panel; }));
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].panel, i < npanel) << "pop " << i;
    if (i > 0 && popped[i].panel == popped[i - 1].panel) {
      EXPECT_GE(blevel[popped[i - 1].k], blevel[popped[i].k]) << "pop " << i;
    }
  }
  // Each source panel's updates come out back to back.
  std::vector<sparse::idx_t> runs;
  for (std::size_t i = npanel; i < popped.size(); ++i) {
    if (runs.empty() || runs.back() != popped[i].k) {
      runs.push_back(popped[i].k);
    }
  }
  // B0 heads a four-level chain; A0 and B1 head three-level chains, and
  // A0's panel is taller (six rows below it against three).
  ASSERT_GT(blevel[0], blevel[3]);
  EXPECT_EQ(runs, (std::vector<sparse::idx_t>{2, 0, 3}));

  // No bottom level, however large, lifts an update over a panel task.
  EXPECT_LT(core::FactorEngine::bottom_level_priority(1e300, false),
            core::FactorEngine::bottom_level_priority(0.0, true));
}

// The default trades some of critical-path's speed for fewer live
// fetched copies: on the three proxies at 8 ranks it never holds more
// staged bytes than kCriticalPath.
TEST(BottomLevel, StagesNoMoreThanCriticalPath) {
  const std::pair<const char*, sparse::CscMatrix> proxies[] = {
      {"flan", sparse::flan_proxy(0.02)},
      {"bones", sparse::bones_proxy(0.02)},
      {"thermal", sparse::thermal_proxy(0.005)}};
  for (const auto& [name, a] : proxies) {
    auto staged = [&a](core::Policy policy) {
      pgas::Runtime rt(pgas::Runtime::Config{.nranks = 8, .ranks_per_node = 4});
      core::SolverOptions opts;
      opts.policy = policy;
      opts.numeric = false;
      core::SymPackSolver solver(rt, opts);
      solver.symbolic_factorize(a);
      solver.factorize();
      return solver.report().peak_staged_bytes;
    };
    const std::uint64_t by_default = staged(core::SolverOptions{}.policy);
    EXPECT_GT(by_default, 0u) << name;
    EXPECT_LE(by_default, staged(core::Policy::kCriticalPath)) << name;
  }
}

// ---------------------------------------------------------------------
// Solve-sweep order on the same tree: forward tasks rank by the bottom
// level of the segment they feed, backward tasks by its subtree height.

TEST(SolveLevels, HeightIsTheTallestChainBelow) {
  const auto t = hand_built_tree();
  const auto levels = core::taskrt::tree_levels(*t->view, pgas::MachineModel{});
  const auto& c = levels.cost;
  // A0 -> A1 -> R1 and B0 -> B1 -> R0 -> R1 (supernodes 0..5).
  EXPECT_NEAR(levels.height[0], c[0], 1e-15);
  EXPECT_NEAR(levels.height[1], c[1] + c[0], 1e-15);
  EXPECT_NEAR(levels.height[2], c[2], 1e-15);
  EXPECT_NEAR(levels.height[3], c[3] + c[2], 1e-15);
  EXPECT_NEAR(levels.height[4], c[4] + c[3] + c[2], 1e-15);
  EXPECT_NEAR(levels.height[5],
              c[5] + std::max(levels.height[1], levels.height[4]), 1e-15);
  // The root's bottom level is its own cost; a leaf's height is too.
  EXPECT_NEAR(levels.blevel[5], c[5], 1e-15);
  for (sparse::idx_t k = 0; k < 6; ++k) EXPECT_GT(c[k], 0.0) << k;
}

TEST(SolveLevels, ForwardRanksByBottomLevelOfTheSegmentFed) {
  const auto t = hand_built_tree();
  const auto& sym = *t->view;
  const auto levels = core::taskrt::tree_levels(sym, pgas::MachineModel{});
  for (sparse::idx_t k = 0; k < sym.num_snodes(); ++k) {
    // Y k feeds segment k.
    EXPECT_EQ(core::SolveEngine::task_priority(sym, levels, k, 0, false),
              core::taskrt::level_priority(levels.blevel[k]))
        << "Y " << k;
    // C (k, slot) folds B_{s,k} y_k into segment s.
    const auto& blocks = sym.snode(k).blocks;
    for (sparse::idx_t slot = 1;
         slot <= static_cast<sparse::idx_t>(blocks.size()); ++slot) {
      const sparse::idx_t s = blocks[slot - 1].target;
      EXPECT_EQ(core::SolveEngine::task_priority(sym, levels, k, slot, false),
                core::taskrt::level_priority(levels.blevel[s]))
          << "C " << k << ":" << slot;
    }
  }
  // B0 heads the longest chain to the root, so its Y pops before A0's.
  EXPECT_GT(core::SolveEngine::task_priority(sym, levels, 2, 0, false),
            core::SolveEngine::task_priority(sym, levels, 0, 0, false));
}

TEST(SolveLevels, BackwardRanksBySubtreeHeight) {
  const auto t = hand_built_tree();
  const auto& sym = *t->view;
  const auto levels = core::taskrt::tree_levels(sym, pgas::MachineModel{});
  for (sparse::idx_t k = 0; k < sym.num_snodes(); ++k) {
    // X k and every Z (k, slot) feed segment k.
    const auto expected = core::taskrt::level_priority(levels.height[k]);
    EXPECT_EQ(core::SolveEngine::task_priority(sym, levels, k, 0, true),
              expected)
        << "X " << k;
    const auto nslots =
        static_cast<sparse::idx_t>(sym.snode(k).blocks.size());
    for (sparse::idx_t slot = 1; slot <= nslots; ++slot) {
      EXPECT_EQ(core::SolveEngine::task_priority(sym, levels, k, slot, true),
                expected)
          << "Z " << k << ":" << slot;
    }
  }
  // R0 (over B1, B0) is taller than A1 (over A0): X R0 pops first.
  ASSERT_GT(levels.height[4], levels.height[1]);
  EXPECT_GT(core::SolveEngine::task_priority(sym, levels, 4, 0, true),
            core::SolveEngine::task_priority(sym, levels, 1, 0, true));
}

TEST(SolveLevels, FifoPopsInInsertionOrderAndHeapsByLevel) {
  const auto t = hand_built_tree();
  const auto& sym = *t->view;
  const auto levels = core::taskrt::tree_levels(sym, pgas::MachineModel{});
  struct Task {
    sparse::idx_t k;
    sparse::idx_t slot;
    double ready;
  };
  // Every forward task of the tree, leaves last.
  std::vector<Task> pushed;
  for (sparse::idx_t k = sym.num_snodes() - 1; k >= 0; --k) {
    const auto nslots =
        static_cast<sparse::idx_t>(sym.snode(k).blocks.size());
    for (sparse::idx_t slot = 0; slot <= nslots; ++slot) {
      pushed.push_back({k, slot, 0.0});
    }
  }
  auto drain = [&](core::Policy policy) {
    core::taskrt::ReadyQueue<Task> q(policy);
    for (const Task& task : pushed) {
      q.push(task, core::SolveEngine::task_priority(sym, levels, task.k,
                                                    task.slot, false));
    }
    std::vector<Task> popped;
    while (!q.empty()) popped.push_back(q.pop());
    return popped;
  };
  const auto fifo = drain(core::Policy::kFifo);
  ASSERT_EQ(fifo.size(), pushed.size());
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    EXPECT_EQ(fifo[i].k, pushed[i].k) << "pop " << i;
    EXPECT_EQ(fifo[i].slot, pushed[i].slot) << "pop " << i;
  }
  const auto heap = drain(core::Policy::kBottomLevel);
  ASSERT_EQ(heap.size(), pushed.size());
  for (std::size_t i = 1; i < heap.size(); ++i) {
    EXPECT_GE(core::SolveEngine::task_priority(sym, levels, heap[i - 1].k,
                                               heap[i - 1].slot, false),
              core::SolveEngine::task_priority(sym, levels, heap[i].k,
                                               heap[i].slot, false))
        << "pop " << i;
  }
  // Y B0 feeds the deepest segment: it leaves the heap first.
  EXPECT_EQ(heap.front().k, 2);
  EXPECT_EQ(heap.front().slot, 0);
}

// Through the engine: the solve restarts the clocks, so its schedule
// depends on the queue order alone. FIFO and LIFO both run it FIFO; the
// three heap policies share the levels and so the schedule, and on the
// thermal proxy they shorten the solve.
TEST(SolveLevels, OnlyHeapPoliciesReorderTheSolve) {
  const auto a = sparse::thermal_proxy(0.005);
  const auto b = sparse::rhs_for_ones(a);
  auto solve_s = [&](core::Policy policy) {
    pgas::Runtime rt(pgas::Runtime::Config{.nranks = 8, .ranks_per_node = 4});
    core::SolverOptions opts;
    opts.policy = policy;
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    EXPECT_LT(sparse::relative_residual(a, solver.solve(b), b), 1e-10)
        << core::policy_name(policy);
    return solver.report().solve_sim_s;
  };
  const double fifo = solve_s(core::Policy::kFifo);
  const double by_level = solve_s(core::Policy::kBottomLevel);
  EXPECT_EQ(solve_s(core::Policy::kLifo), fifo);
  EXPECT_EQ(solve_s(core::Policy::kPriority), by_level);
  EXPECT_EQ(solve_s(core::Policy::kCriticalPath), by_level);
  EXPECT_LT(by_level, fifo);
}

// ---------------------------------------------------------------------
// DepTracker duplicate-signal guard.

TEST(DepTrackerDeathTest, DuplicateSatisfyAssertsInDebug) {
  core::taskrt::DepTracker deps;
  deps.init(1);
  deps.set_count(0, 1);
  EXPECT_TRUE(deps.satisfy(0, 1.0));
  // A second satisfy has no outstanding dependency: debug builds abort
  // with the assert message; release builds keep the historical
  // decrement (the dedup layers are tested to keep this unreachable).
  EXPECT_DEBUG_DEATH(deps.satisfy(0, 2.0), "no outstanding dependency");
}

// ---------------------------------------------------------------------
// Critical-path analyzer on a hand-built DAG.
//
//   rank 0:  D 1 [0.1,1.0] --> F 1:1 [1.0,2.0]
//                                  |  (block (1,1) fetch-marked on rank
//                                  v   1 at t=2.5: comm 0.5, wait 0.5)
//   rank 1:              U 1:1:1 [3.0,4.0] --> D 2 [4.0,5.0]
//
// Critical path: D 2 <- U <- F <- D 1, four tasks, ending at 5.0.

std::vector<core::Tracer::Event> hand_built_dag(bool with_meta) {
  auto ev = [&](int rank, const char* name, double b, double e,
                core::Tracer::Meta m) {
    core::Tracer::Event out;
    out.rank = rank;
    out.name = name;
    out.begin_s = b;
    out.end_s = e;
    if (with_meta) out.meta = m;
    return out;
  };
  core::Tracer::Meta d1{'D', 1, -1, -1, -1, -1};
  core::Tracer::Meta f11{'F', 1, 1, -1, -1, -1};
  core::Tracer::Meta g11{'g', 1, 1, -1, -1, -1};
  core::Tracer::Meta u{'U', 1, 1, 1, 2, 0};
  core::Tracer::Meta d2{'D', 2, -1, -1, -1, -1};
  return {
      ev(0, "D 1", 0.1, 1.0, d1),      ev(0, "F 1:1", 1.0, 2.0, f11),
      ev(1, "g 1:1", 2.5, 2.5, g11),   ev(1, "U 1:1:1", 3.0, 4.0, u),
      ev(1, "D 2", 4.0, 5.0, d2),
  };
}

TEST(CritPath, HandBuiltDagBreakdown) {
  core::CritPathAnalyzer analyzer(hand_built_dag(/*with_meta=*/true));
  const auto rep = analyzer.analyze(/*top_k=*/10);

  EXPECT_TRUE(rep.had_metadata);
  EXPECT_EQ(rep.nranks, 2);
  EXPECT_EQ(rep.num_events, 5u);
  EXPECT_EQ(rep.num_spans, 4u);  // the fetch mark is not a task span
  EXPECT_DOUBLE_EQ(rep.makespan_s, 5.0);
  EXPECT_DOUBLE_EQ(rep.critical_path_s, 5.0);
  EXPECT_EQ(rep.path_tasks, 4);

  // Per-category path breakdown: D 1 (0.9) + D 2 (1.0) potrf, F (1.0)
  // trsm, U (1.0) update; the rank-0 -> rank-1 handoff gap [2.0,3.0]
  // splits at the fetch mark (2.5) into comm 0.5 + wait 0.5; the 0.1
  // before D 1 is path-start wait.
  EXPECT_NEAR(rep.path.potrf, 1.9, 1e-12);
  EXPECT_NEAR(rep.path.trsm, 1.0, 1e-12);
  EXPECT_NEAR(rep.path.update, 1.0, 1e-12);
  EXPECT_NEAR(rep.path.solve, 0.0, 1e-12);
  EXPECT_NEAR(rep.path.comm, 0.5, 1e-12);
  EXPECT_NEAR(rep.path.wait, 0.6, 1e-12);
  // The categories tile the critical path exactly.
  EXPECT_NEAR(rep.path.compute() + rep.path.comm + rep.path.wait,
              rep.critical_path_s, 1e-12);

  EXPECT_NEAR(rep.busy_s, 3.9, 1e-12);
  EXPECT_NEAR(rep.idle_s, 2 * 5.0 - 3.9, 1e-12);

  // Top segments: the three 1.0 s spans first, then D 1 (0.9 s).
  ASSERT_EQ(rep.top.size(), 4u);
  EXPECT_DOUBLE_EQ(rep.top[0].duration(), 1.0);
  EXPECT_DOUBLE_EQ(rep.top[3].duration(), 0.9);
  EXPECT_EQ(rep.top[3].name, "D 1");

  std::string err;
  EXPECT_TRUE(support::json_validate(rep.to_json(), &err)) << err;
}

TEST(CritPath, NameParseFallbackWithoutMetadata) {
  core::CritPathAnalyzer analyzer(hand_built_dag(/*with_meta=*/false));
  const auto rep = analyzer.analyze();

  // Names alone carry kind/snode/slots but no fold-target hints; the
  // chain still reconstructs through producer edges and same-rank order.
  EXPECT_FALSE(rep.had_metadata);
  EXPECT_EQ(rep.path_tasks, 4);
  EXPECT_DOUBLE_EQ(rep.critical_path_s, 5.0);
  EXPECT_NEAR(rep.path.compute() + rep.path.comm + rep.path.wait,
              rep.critical_path_s, 1e-12);
}

TEST(CritPath, EmptyTraceYieldsEmptyReport) {
  core::CritPathAnalyzer analyzer({});
  const auto rep = analyzer.analyze();
  EXPECT_EQ(rep.path_tasks, 0);
  EXPECT_DOUBLE_EQ(rep.makespan_s, 0.0);
  std::string err;
  EXPECT_TRUE(support::json_validate(rep.to_json(), &err)) << err;
}

// ---------------------------------------------------------------------
// Auto policy resolution.

bool fault_env_overridden() {
  for (const char* v :
       {"SYMPACK_FAULT_KILL_RANK", "SYMPACK_FAULT_KILL_AT",
        "SYMPACK_FAULT_DROP_EVERY", "SYMPACK_FAULT_SEED"}) {
    if (std::getenv(v) != nullptr) return true;
  }
  return false;
}

TEST(AutoPolicy, NoWorseThanEveryFixedPolicy) {
  if (fault_env_overridden()) {
    GTEST_SKIP() << "SYMPACK_FAULT_* environment override active";
  }
  const auto raw = sparse::thermal_proxy(0.12);
  const auto perm =
      ordering::compute_ordering(raw, ordering::Method::kNestedDissection);
  const auto a = sparse::permute_symmetric(raw, perm);

  auto run = [&](core::Policy policy, const core::SymPackSolver** keep,
                 std::unique_ptr<core::SymPackSolver>* storage,
                 std::unique_ptr<pgas::Runtime>* rt_storage) {
    auto rt = std::make_unique<pgas::Runtime>(
        pgas::Runtime::Config{.nranks = 8, .ranks_per_node = 4});
    core::SolverOptions sopts;
    sopts.numeric = false;  // protocol-only: sim-exact, cheap
    sopts.ordering = ordering::Method::kNatural;
    sopts.policy = policy;
    auto solver = std::make_unique<core::SymPackSolver>(*rt, sopts);
    solver->symbolic_factorize(a);
    solver->factorize();
    const double sim = solver->report().factor_sim_s;
    if (keep != nullptr) {
      *keep = solver.get();
      *storage = std::move(solver);
      *rt_storage = std::move(rt);
    }
    return sim;
  };

  double best_fixed = 0.0;
  bool first = true;
  for (core::Policy p : {core::Policy::kFifo, core::Policy::kLifo,
                         core::Policy::kPriority, core::Policy::kCriticalPath,
                         core::Policy::kBottomLevel}) {
    const double sim = run(p, nullptr, nullptr, nullptr);
    best_fixed = first ? sim : std::min(best_fixed, sim);
    first = false;
  }

  const core::SymPackSolver* auto_solver = nullptr;
  std::unique_ptr<core::SymPackSolver> storage;
  std::unique_ptr<pgas::Runtime> rt_storage;
  const double auto_sim =
      run(core::Policy::kAuto, &auto_solver, &storage, &rt_storage);

  // The pilots cover every fixed policy at the base width, and
  // protocol-only pilots are sim-exact, so auto can never lose to a
  // fixed policy.
  EXPECT_LE(auto_sim, best_fixed + 1e-9);

  ASSERT_NE(auto_solver, nullptr);
  const auto* choice = auto_solver->autotune_choice();
  ASSERT_NE(choice, nullptr);
  EXPECT_NE(choice->policy, core::Policy::kAuto);  // resolved to concrete
  EXPECT_NEAR(choice->pilot_sim_s, auto_sim, 1e-9);  // pilot is exact
  EXPECT_GE(choice->candidates.size(), 5u);  // all fixed policies piloted
  // The first pilot is the library default's, and it is the baseline.
  EXPECT_EQ(choice->candidates.front().policy, core::SolverOptions{}.policy);
  EXPECT_EQ(choice->default_sim_s, choice->candidates.front().sim_s);
  EXPECT_EQ(auto_solver->options().policy, choice->policy);

  // The mapping stage ran: the candidate list contains non-default
  // mapping grids, and whatever they measured, the adopted configuration
  // is what the solver actually runs with. Offload is not a search
  // stage: the per-call model places every kernel.
  bool saw_mapping_pilot = false;
  for (const auto& cand : choice->candidates) {
    if (cand.mapping != symbolic::Mapping::Kind::k2dBlockCyclic) {
      saw_mapping_pilot = true;
    }
    // Greedy strictly-better adoption: no candidate beats the winner.
    EXPECT_GE(cand.sim_s, choice->pilot_sim_s - 1e-12);
  }
  EXPECT_TRUE(saw_mapping_pilot);
  EXPECT_EQ(auto_solver->options().mapping, choice->mapping);
  EXPECT_FALSE(auto_solver->options().gpu.gemm_threshold.has_value());

  // Never-loses-to-the-old-auto: the mapping stage only adopts strictly
  // faster pilots, so the winner is at least as good as the best
  // candidate restricted to the old (policy x width) search space.
  double old_auto = 1e300;
  for (const auto& cand : choice->candidates) {
    if (cand.mapping == core::SolverOptions{}.mapping) {
      old_auto = std::min(old_auto, cand.sim_s);
    }
  }
  EXPECT_LE(choice->pilot_sim_s, old_auto + 1e-12);

  // The final traced pilot feeds a critical-path report.
  EXPECT_GT(choice->report.path_tasks, 0);
  EXPECT_NEAR(choice->report.makespan_s, auto_sim, 1e-9);
}

// Stage 3 pilots the subtree layer too, so a user who pins the paper's
// 2D map and asks for auto still finds the layer where it is faster (a
// thermal proxy, whose bottom subtrees it keeps on single ranks).
TEST(AutoPolicy, FindsSubtreeLayerFromUserSet2d) {
  const auto a = sparse::thermal_proxy(0.02);
  pgas::Runtime rt(pgas::Runtime::Config{.nranks = 8, .ranks_per_node = 4});
  core::SolverOptions opts;
  opts.policy = core::Policy::kAuto;
  opts.mapping = symbolic::Mapping::Kind::k2dBlockCyclic;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  const auto* choice = solver.autotune_choice();
  ASSERT_NE(choice, nullptr);
  int layer_pilots = 0;
  for (const auto& cand : choice->candidates) {
    if (cand.mapping == symbolic::Mapping::Kind::kSubtreeLayer) {
      ++layer_pilots;
    }
  }
  EXPECT_GE(layer_pilots, 1);
  EXPECT_EQ(choice->mapping, symbolic::Mapping::Kind::kSubtreeLayer);
  EXPECT_EQ(solver.options().mapping, symbolic::Mapping::Kind::kSubtreeLayer);
}

// Where the layer falls back to the 2D grid (a chain: one leaf for four
// ranks), stage 3 does not pilot the grid again: it is the schedule
// stages 1 and 2 already measured.
TEST(AutoPolicy, SkipsTheGridPilotWhenTheLayerFellBack) {
  const auto a = sparse::tridiagonal(64);
  pgas::Runtime rt(pgas::Runtime::Config{.nranks = 4, .ranks_per_node = 4});
  core::SolverOptions opts;
  opts.policy = core::Policy::kAuto;
  opts.ordering = ordering::Method::kNatural;
  core::SymPackSolver solver(rt, opts);
  solver.symbolic_factorize(a);
  ASSERT_EQ(symbolic::Mapping::build(4, symbolic::Mapping::Kind::kSubtreeLayer,
                                     solver.symbolic())
                .kind(),
            symbolic::Mapping::Kind::k2dBlockCyclic);
  const auto* choice = solver.autotune_choice();
  ASSERT_NE(choice, nullptr);
  int row_pilots = 0;
  for (const auto& cand : choice->candidates) {
    EXPECT_NE(cand.mapping, symbolic::Mapping::Kind::k2dBlockCyclic);
    if (cand.mapping == symbolic::Mapping::Kind::kRowCyclic) ++row_pilots;
  }
  EXPECT_EQ(row_pilots, 1);  // the other stage-3 candidates still run
}

// Under fan-in every panel aggregates, and aggregated panels run their
// ready queue FIFO whatever the policy says: the other policy pilots
// would measure the same schedule again. Stage 1 pilots the default
// policy alone (a FIFO schedule under fan-in), and the tuned
// factorization is the fixed-FIFO one at the adopted width/mapping
// configuration.
TEST(AutoPolicy, FanInPilotsFifoOnly) {
  const auto a = sparse::thermal_proxy(0.02);
  auto make = [&](pgas::Runtime& rt, core::SolverOptions opts) {
    opts.variant = core::Variant::kFanIn;
    auto solver = std::make_unique<core::SymPackSolver>(rt, opts);
    solver->symbolic_factorize(a);
    solver->factorize();
    return solver;
  };
  pgas::Runtime rt(pgas::Runtime::Config{.nranks = 8, .ranks_per_node = 4});
  core::SolverOptions auto_opts;
  auto_opts.policy = core::Policy::kAuto;
  const auto tuned = make(rt, auto_opts);
  const auto* choice = tuned->autotune_choice();
  ASSERT_NE(choice, nullptr);
  const core::SolverOptions defaults;
  EXPECT_EQ(choice->policy, defaults.policy);
  EXPECT_EQ(tuned->options().policy, defaults.policy);

  // Stage-1 rows: the configured width and mapping (the later stages
  // each change one of them).
  int stage1 = 0;
  for (const auto& cand : choice->candidates) {
    if (cand.max_width == defaults.symbolic.max_width &&
        cand.mapping == defaults.mapping) {
      ++stage1;
      EXPECT_EQ(cand.policy, defaults.policy);
      EXPECT_EQ(cand.sim_s, choice->default_sim_s);
    }
  }
  EXPECT_EQ(stage1, 1);

  // The same schedule as a FIFO run: aggregated panels ignore the
  // policy.
  core::SolverOptions fifo_opts;
  fifo_opts.policy = core::Policy::kFifo;
  fifo_opts.symbolic.max_width = choice->max_width;
  fifo_opts.mapping = choice->mapping;
  const auto fixed = make(rt, fifo_opts);
  EXPECT_EQ(tuned->dense_factor(), fixed->dense_factor());
  EXPECT_EQ(tuned->report().factor_sim_s, fixed->report().factor_sim_s);
}

}  // namespace
}  // namespace sympack
