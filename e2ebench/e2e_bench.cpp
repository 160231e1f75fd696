// End-to-end benchmark: ordering -> analyze -> factor -> solve on the three
// Table 1 proxies, with default SolverOptions, the sequential drive mode
// (one host thread) and one process, on both clocks: simulated makespan
// and host wall time. Only the public API is used: SymPackSolver,
// SolveServer, Report, and (traced mode) Tracer + CritPathAnalyzer.
//
//   e2e_bench --workload flan-factor|thermal-solve|bones-timestep
//             [--seed N] [--seconds S] [--trace 0|1]
//   e2e_bench --smoke     every workload at tiny scale, both modes
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs three solvers
// side by side (defaults; defaults + metadata tracer; defaults with
// numeric = false) and prints the per-layer metrics derived from them,
// host wall times of factorization and solve included.
// The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// e2ebench/METRICS.md lists every metric, its clock, and the end-to-end
// metric each per-layer metric should move.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/critpath.hpp"
#include "core/solve_server.hpp"
#include "core/solver.hpp"
#include "ordering/ordering.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"
#include "support/json.hpp"
#include "support/options.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"

extern char** environ;

namespace {

using namespace sympack;
using Clock = std::chrono::steady_clock;

/// thermal_proxy()'s pattern seed: --seed 0 reproduces the Table 1 proxy.
constexpr std::uint64_t kThermalPatternSeed = 0x7e37a1;
constexpr double kResidualTol = 1e-9;
/// Setup repeats at least kSetupReps times and until kSetupShare of
/// --seconds has gone to it.
constexpr std::size_t kSetupReps = 3;
constexpr double kSetupShare = 0.5;
/// RHS columns per SolveServer drain on bones-timestep; the seed splits
/// them into requests of 1-4 columns.
constexpr int kServeColumns = 8;
constexpr double kSmokeScale = 0.02;

struct Workload {
  const char* name;
  int nodes;
  int ppn;
  int nrhs;       // RHS columns per solve call
  int solves;     // solve calls per factorization
  bool timestep;  // SolveServer refactorize(A + sigma I) + drain loop
};

// flan-factor's solve costs ~1/20 of its factorization; four solve calls
// per factorization give its solve.wall_s median enough samples.
constexpr Workload kWorkloads[] = {
    {"flan-factor", 16, 4, 1, 4, false},
    {"thermal-solve", 4, 4, 4, 1, false},
    {"bones-timestep", 4, 4, kServeColumns, 1, true},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return support::percentile(v, 50.0); }

sparse::CscMatrix make_matrix(const Workload& w, double scale,
                              std::uint64_t seed) {
  const std::string name = w.name;
  if (name == "flan-factor") return sparse::flan_proxy(scale);
  if (name == "bones-timestep") return sparse::bones_proxy(scale);
  // thermal_proxy() with the pattern seed offset by --seed.
  const auto dim = std::max<sparse::idx_t>(
      8, static_cast<sparse::idx_t>(340 * std::sqrt(scale)));
  return sparse::thermal_irregular(dim, dim, 0.35,
                                   kThermalPatternSeed + seed);
}

/// The counters the schedule-invariance check and the pgas layer use.
struct Wire {
  std::uint64_t rpcs = 0, gets = 0, bytes = 0, bytes_to_device = 0,
                hd_copies = 0, pool_hits = 0, pool_misses = 0;

  static Wire of(const pgas::CommStats& s) {
    return {s.rpcs_sent, s.gets, s.total_bytes(), s.bytes_to_device,
            s.hd_copies, s.pool_hits, s.pool_misses};
  }
  Wire operator-(const Wire& o) const {
    return {rpcs - o.rpcs, gets - o.gets, bytes - o.bytes,
            bytes_to_device - o.bytes_to_device, hd_copies - o.hd_copies,
            pool_hits - o.pool_hits, pool_misses - o.pool_misses};
  }
  /// Schedule-determined counters only: the slab pool's hit/miss split
  /// depends on what earlier phases left parked in the pool.
  [[nodiscard]] bool same_schedule(const Wire& o) const {
    return rpcs == o.rpcs && gets == o.gets && bytes == o.bytes &&
           bytes_to_device == o.bytes_to_device && hd_copies == o.hd_copies;
  }
};

struct FactorSample {
  double wall = 0.0, sim = 0.0;
  core::Report report;
  Wire wire;
  core::CritPathReport path;  // traced instances only
};

struct SolveSample {
  double wall = 0.0, sim = 0.0;
  Wire wire;
  std::int64_t panels = 0, overlapped = 0;
  core::CritPathReport path;  // traced instances only
};

/// One configured solver on its own simulated cluster.
struct Instance {
  pgas::Runtime rt;
  core::SymPackSolver solver;
  core::Tracer tracer;
  std::unique_ptr<core::SolveServer> server;
  double setup_wall = 0.0;
  // Warm-up samples first, then the timed ones.
  std::vector<FactorSample> factors;
  std::vector<SolveSample> solves;
  std::size_t factor_warmup = 0, solve_warmup = 0;

  Instance(const Workload& w, const core::SolverOptions& opts)
      : rt(cluster(w)), solver(rt, opts) {}

  static pgas::Runtime::Config cluster(const Workload& w) {
    pgas::Runtime::Config cfg;
    cfg.nranks = w.nodes * w.ppn;
    cfg.ranks_per_node = w.ppn;
    return cfg;  // threaded = false: the sequential drive mode
  }
};

std::unique_ptr<Instance> open_instance(const Workload& w,
                                        const sparse::CscMatrix& a,
                                        const core::SolverOptions& opts,
                                        bool traced) {
  auto s = std::make_unique<Instance>(w, opts);
  if (traced) s->solver.set_tracer(&s->tracer);
  const auto t0 = Clock::now();
  s->solver.symbolic_factorize(a);
  s->setup_wall = seconds_since(t0);
  if (w.timestep) s->server = std::make_unique<core::SolveServer>(s->solver);
  return s;
}

/// Op accounting: an op is one factorization or one RHS column.
struct Ops {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

core::CritPathReport take_path(core::Tracer& tracer) {
  core::CritPathAnalyzer analyzer(tracer.events());
  tracer.clear();
  return analyzer.analyze(0);
}

/// Request widths (1-4 columns) summing to kServeColumns.
std::vector<int> request_widths(support::Xoshiro256& rng) {
  std::vector<int> widths;
  for (int left = kServeColumns; left > 0;) {
    const int c = std::min(left, 1 + static_cast<int>(rng.next_below(4)));
    widths.push_back(c);
    left -= c;
  }
  return widths;
}

/// One solve call (solve(), or submits + drain()) of w.nrhs random
/// columns against the current factor of `ak`.
void run_solve(Instance& s, const Workload& w, const sparse::CscMatrix& ak,
               support::Xoshiro256& rng, Ops& ops) {
  const bool numeric = s.solver.options().numeric;
  const auto n = static_cast<std::size_t>(ak.n());
  std::vector<double> b(n * static_cast<std::size_t>(w.nrhs));
  for (double& v : b) v = rng.next_in(-1.0, 1.0);
  const std::vector<int> widths =
      w.timestep ? request_widths(rng) : std::vector<int>{w.nrhs};
  if (numeric) ops.attempted += w.nrhs;
  try {
    SolveSample smp;
    const Wire before = Wire::of(s.rt.total_stats());
    std::vector<double> x;
    const auto t0 = Clock::now();
    if (w.timestep) {
      const auto stats0 = s.server->stats();
      std::size_t off = 0;
      for (int c : widths) {
        const auto len = n * static_cast<std::size_t>(c);
        if (!s.server->submit(std::vector<double>(b.begin() + off,
                                                  b.begin() + off + len),
                              c)) {
          throw std::runtime_error("SolveServer refused a request");
        }
        off += len;
      }
      for (auto& part : s.server->drain()) {
        x.insert(x.end(), part.begin(), part.end());
      }
      smp.wall = seconds_since(t0);
      // drain() resets the clocks, so the makespan is the clock frontier
      // (differencing the cumulative serve_sim_s would round).
      smp.sim = s.rt.max_clock();
      smp.panels = s.server->stats().panels - stats0.panels;
      smp.overlapped = s.server->stats().overlapped - stats0.overlapped;
    } else {
      x = s.solver.solve(b, w.nrhs);
      smp.wall = seconds_since(t0);
      smp.sim = s.solver.report().solve_sim_s;
      // solve() sweeps ceil(nrhs / rhs_panel) panels, never overlapped.
      const int panel = s.solver.options().solve.rhs_panel;
      smp.panels = panel <= 0 ? 1 : (w.nrhs + panel - 1) / panel;
    }
    smp.wire = Wire::of(s.rt.total_stats()) - before;
    if (s.solver.tracer() != nullptr) smp.path = take_path(s.tracer);
    s.solves.push_back(std::move(smp));

    if (!numeric) return;
    if (x.size() != b.size()) {
      throw std::runtime_error("solution has the wrong size");
    }
    for (int c = 0; c < w.nrhs; ++c) {
      const auto off = static_cast<std::ptrdiff_t>(n) * c;
      const std::vector<double> xc(x.begin() + off, x.begin() + off + n);
      const std::vector<double> bc(b.begin() + off, b.begin() + off + n);
      const double r = sparse::relative_residual(ak, xc, bc);
      if (!std::isfinite(r) || r > kResidualTol) {
        std::fprintf(stderr, "%s: column %d residual %.3e\n", w.name, c, r);
        ++ops.failed;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", w.name, e.what());
    if (!numeric) ++ops.attempted;
    ops.failed += numeric ? w.nrhs : 1;
  }
}

/// One factorization and the w.solves solve calls that follow it. `rng`
/// draws sigma, the RHS values and the request widths; instances compared
/// against each other get copies of one state so they see the same
/// inputs. Answers are checked only when the instance runs the numerics.
void run_rep(Instance& s, const Workload& w, const sparse::CscMatrix& a,
             support::Xoshiro256 rng, Ops& ops) {
  sparse::CscMatrix shifted;
  const sparse::CscMatrix* ak = &a;
  if (w.timestep) {
    shifted = a;
    shifted.shift_diagonal(rng.next_in(0.0, 1.0));
    ak = &shifted;
  }
  ++ops.attempted;
  try {
    FactorSample smp;
    const auto t0 = Clock::now();
    if (w.timestep) {
      s.server->refactorize(*ak);
    } else {
      s.solver.factorize();
    }
    smp.wall = seconds_since(t0);
    smp.report = s.solver.report();
    smp.sim = smp.report.factor_sim_s;
    smp.wire = Wire::of(s.rt.total_stats());
    if (s.solver.tracer() != nullptr) smp.path = take_path(s.tracer);
    s.factors.push_back(std::move(smp));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", w.name, e.what());
    ++ops.failed;
    return;
  }
  const std::int64_t failed = ops.failed;
  for (int i = 0; i < w.solves && ops.failed == failed; ++i) {
    run_solve(s, w, *ak, rng, ops);
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = false;
  Ops ops;
  std::vector<Metric> metrics;
};

std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.ops.attempted);
  out += ", \"failed\": " + std::to_string(r.ops.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // Non-finite values are not JSON; they fail the run instead.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + support::json_escape(m.name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           support::json_escape(m.unit) + "\"}";
  }
  return out + "}}";
}

std::string tile_string(const blas::kernels::TileConfig& t) {
  return "mc=" + std::to_string(t.mc) + " kc=" + std::to_string(t.kc) +
         " nc=" + std::to_string(t.nc) + " panel=" + std::to_string(t.panel) +
         " trsm_block=" + std::to_string(t.trsm_block) +
         " potrf_crossover=" + std::to_string(t.potrf_crossover) +
         " tiled_min_flops=" + std::to_string(t.tiled_min_flops);
}

void echo_options(const Workload& w, const core::SymPackSolver& solver,
                  const pgas::Runtime& rt) {
  const core::SolverOptions& o = solver.options();
  std::printf(
      "options: ordering=%s policy=%s variant=%s max_width=%lld "
      "eager_bytes=%lld coalesce=%d rhs_panel=%d server_overlap=%d "
      "gpu=%d shard=%d\n",
      ordering::method_name(o.ordering).c_str(),
      core::policy_name(o.policy).c_str(),
      core::variant_name(o.variant).c_str(),
      static_cast<long long>(o.symbolic.max_width),
      static_cast<long long>(o.comm.eager_bytes), o.comm.coalesce ? 1 : 0,
      o.solve.rhs_panel, o.solve.server_overlap ? 1 : 0,
      o.gpu.enabled ? 1 : 0, o.symbolic.shard ? 1 : 0);
  std::printf("tiles: %s\n", tile_string(o.kernel_tiles).c_str());
  std::printf("drive: %s, 1 process, %d ranks (%d nodes x %d ppn)\n",
              rt.config().threaded ? "threaded" : "sequential",
              rt.nranks(), w.nodes, w.ppn);
}

/// Every factorization and solve call of `s` must repeat the reference's
/// simulated time and wire counters bit for bit (DESIGN.md 4e/4g: tracing
/// and numeric = false leave the schedule unchanged). One op per instance.
void check_invariance(const FactorSample& fref, const SolveSample& sref,
                      const Instance& s, const char* label, Ops& ops) {
  ++ops.attempted;
  const bool same =
      std::all_of(s.factors.begin(), s.factors.end(),
                  [&](const FactorSample& f) {
                    return f.sim == fref.sim && f.wire.same_schedule(fref.wire);
                  }) &&
      std::all_of(s.solves.begin(), s.solves.end(), [&](const SolveSample& v) {
        return v.sim == sref.sim && v.wire.same_schedule(sref.wire);
      });
  if (!same) {
    std::fprintf(stderr, "schedule invariance broken (%s)\n", label);
    ++ops.failed;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// f over the timed samples of `v` (those after the first `warmup`).
template <typename T, typename F>
std::vector<double> collect(const std::vector<T>& v, std::size_t warmup,
                            F f) {
  std::vector<double> out;
  for (std::size_t i = warmup; i < v.size(); ++i) out.push_back(f(v[i]));
  return out;
}

/// Wall seconds of each timed iteration: one factorization plus the
/// w.solves solve calls after it.
std::vector<double> iteration_walls(const Instance& s, const Workload& w) {
  const auto per = static_cast<std::size_t>(w.solves);
  std::vector<double> out;
  for (std::size_t i = s.factor_warmup; i < s.factors.size(); ++i) {
    double wall = s.factors[i].wall;
    for (std::size_t j = i * per; j < (i + 1) * per; ++j) {
      wall += s.solves[j].wall;
    }
    out.push_back(wall);
  }
  return out;
}

std::string list_string(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, "%.4g ", x);
    out += buf;
  }
  return out;
}

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
};

Result run(const RunConfig& cfg) {
  const Workload& w = *cfg.workload;
  Result res;
  const sparse::CscMatrix a = make_matrix(w, cfg.scale, cfg.seed);
  std::printf("workload: %s  seed: %llu  scale: %g  n=%lld  nnz=%lld  "
              "nrhs=%d  mode: %s\n",
              w.name, static_cast<unsigned long long>(cfg.seed), cfg.scale,
              static_cast<long long>(a.n()),
              static_cast<long long>(a.nnz_stored()), w.nrhs,
              cfg.trace ? "traced" : "untraced");

  // Setup: fresh cluster + solver per repetition; the last one is kept.
  const core::SolverOptions defaults{};
  std::unique_ptr<Instance> base;
  std::vector<double> setup, ordering_wall, symbolic_wall;
  const auto setup_t0 = Clock::now();
  while (setup.size() < kSetupReps ||
         seconds_since(setup_t0) < kSetupShare * cfg.seconds) {
    base.reset();
    base = open_instance(w, a, defaults, false);
    setup.push_back(base->setup_wall);
    ordering_wall.push_back(base->solver.report().ordering_wall_s);
    symbolic_wall.push_back(base->solver.report().symbolic_wall_s);
  }
  echo_options(w, base->solver, base->rt);

  std::unique_ptr<Instance> traced, protocol;
  if (cfg.trace) {
    core::SolverOptions topts = defaults;
    topts.trace.metadata = true;
    traced = open_instance(w, a, topts, true);
    core::SolverOptions popts = defaults;
    popts.numeric = false;
    protocol = open_instance(w, a, popts, false);
  }

  // Every instance runs one rep per iteration on the same draws. One
  // untimed warm-up iteration fills the slab pool and touches the factor
  // storage; then iterations are timed until --seconds have passed (at
  // least one).
  const std::vector<Instance*> instances = {base.get(), traced.get(),
                                          protocol.get()};
  support::Xoshiro256 rng(cfg.seed);
  auto iterate = [&] {
    for (Instance* s : instances) {
      if (s != nullptr) run_rep(*s, w, a, rng, res.ops);
    }
    rng = support::Xoshiro256(rng.next());
  };
  iterate();
  for (Instance* s : instances) {
    if (s == nullptr) continue;
    s->factor_warmup = s->factors.size();
    s->solve_warmup = s->solves.size();
  }
  const auto t0 = Clock::now();
  do {
    iterate();
  } while (seconds_since(t0) < cfg.seconds && res.ops.failed == 0);

  // A failed run reports no metrics (correct stays false). Otherwise every
  // instance holds at least one timed factorization and solve call.
  if (res.ops.failed != 0) return res;

  const FactorSample& fref = base->factors.front();
  const SolveSample& sref = base->solves.front();
  check_invariance(fref, sref, *base, "repeated calls", res.ops);
  if (traced) check_invariance(fref, sref, *traced, "traced", res.ops);
  if (protocol) {
    check_invariance(fref, sref, *protocol, "numeric=false", res.ops);
  }
  if (res.ops.failed != 0) return res;
  res.correct = true;

  auto factor_walls = [](const Instance& s) {
    return collect(s.factors, s.factor_warmup,
                   [](const FactorSample& f) { return f.wall; });
  };
  auto solve_walls = [](const Instance& s) {
    return collect(s.solves, s.solve_warmup,
                   [](const SolveSample& v) { return v.wall; });
  };
  std::printf("samples: setup_s %s| factor_wall_s %s| solve_wall_s %s\n",
              list_string(setup).c_str(),
              list_string(factor_walls(*base)).c_str(),
              list_string(solve_walls(*base)).c_str());
  const double factor_wall = median(factor_walls(*base));
  const double solve_wall = median(solve_walls(*base));
  std::printf("host medians: factor %.4g s, solve %.4g s\n", factor_wall,
              solve_wall);
  const core::Report& rep = fref.report;
  auto add = [&res](std::string name, double value, std::string unit) {
    res.metrics.push_back({std::move(name), value, std::move(unit)});
  };

  if (!cfg.trace) {
    add("setup_s", median(setup), "s");
    add("factor_sim_s", fref.sim, "sim_s");
    add("solve_sim_s", sref.sim, "sim_s");
    add("peak_mem_bytes", static_cast<double>(rep.peak_memory_bytes),
        "bytes");
    add("host_rss_mb", peak_rss_mb(), "MiB");
  } else {
    const auto& fp = traced->factors.front().path;
    const auto& sp = traced->solves.front().path;
    const double nranks = base->rt.nranks();
    const double protocol_factor = median(factor_walls(*protocol));
    const double protocol_solve = median(solve_walls(*protocol));
    // Traced against untraced wall of the same iteration (run back to
    // back, so host noise mostly cancels), median over iterations.
    const std::vector<double> traced_iters = iteration_walls(*traced, w);
    const std::vector<double> base_iters = iteration_walls(*base, w);
    std::vector<double> ratios;
    for (std::size_t i = 0; i < traced_iters.size(); ++i) {
      ratios.push_back(traced_iters[i] / base_iters[i]);
    }
    const double overhead = median(ratios) - 1.0;
    const double factor_tasks = static_cast<double>(fp.num_spans);
    const double solve_tasks = static_cast<double>(sp.num_spans);
    auto idle_frac = [nranks](const core::CritPathReport& p) {
      return p.makespan_s > 0.0 ? 1.0 - p.busy_s / (nranks * p.makespan_s)
                                : 0.0;
    };
    static constexpr const char* kOps[] = {"gemm", "syrk", "trsm", "potrf"};
    double cpu_calls = 0.0, gpu_calls = 0.0;
    for (int i = 0; i < 4; ++i) {
      cpu_calls += static_cast<double>(rep.total_ops.cpu[i]);
      gpu_calls += static_cast<double>(rep.total_ops.gpu[i]);
    }

    add("ordering.wall_s", median(ordering_wall), "s");
    add("ordering.factor_nnz", static_cast<double>(rep.factor_nnz), "count");
    add("symbolic.wall_s", median(symbolic_wall), "s");
    add("symbolic.supernodes", static_cast<double>(rep.num_supernodes),
        "count");
    add("symbolic.blocks", static_cast<double>(rep.num_blocks), "count");
    add("symbolic.bytes_per_rank",
        static_cast<double>(rep.comm.symbolic_bytes) / nranks, "bytes");

    add("blas.flops", rep.factor_flops, "flop");
    for (int i = 0; i < 4; ++i) {
      add(std::string("blas.calls_cpu.") + kOps[i],
          static_cast<double>(rep.total_ops.cpu[i]), "count");
    }
    const double numeric_factor = factor_wall - protocol_factor;
    add("blas.gflops_host", rep.factor_flops / numeric_factor / 1e9, "GFLOP/s");

    for (int i = 0; i < 4; ++i) {
      add(std::string("gpu.calls.") + kOps[i],
          static_cast<double>(rep.total_ops.gpu[i]), "count");
    }
    add("gpu.offload_frac", gpu_calls / std::max(1.0, cpu_calls + gpu_calls),
        "ratio");
    add("gpu.fallbacks", static_cast<double>(rep.gpu_fallbacks), "count");

    add("factor.wall_s", factor_wall, "s");
    add("factor.tasks", factor_tasks, "count");
    add("factor.protocol_wall_s", protocol_factor, "s");
    add("factor.numeric_wall_s", numeric_factor, "s");
    add("factor.host_us_per_task", factor_wall / factor_tasks * 1e6, "us");
    add("factor.path_compute_s", fp.path.compute(), "sim_s");
    add("factor.path_comm_s", fp.path.comm, "sim_s");
    add("factor.path_wait_s", fp.path.wait, "sim_s");
    add("factor.busy_potrf_s", fp.total.potrf, "sim_s");
    add("factor.busy_trsm_s", fp.total.trsm, "sim_s");
    add("factor.busy_update_s", fp.total.update, "sim_s");
    add("factor.idle_frac", idle_frac(fp), "ratio");

    add("solve.wall_s", solve_wall, "s");
    add("solve.tasks", solve_tasks, "count");
    add("solve.protocol_wall_s", protocol_solve, "s");
    add("solve.numeric_wall_s", solve_wall - protocol_solve, "s");
    add("solve.host_us_per_task", solve_wall / solve_tasks * 1e6, "us");
    add("solve.path_comm_s", sp.path.comm, "sim_s");
    add("solve.path_wait_s", sp.path.wait, "sim_s");
    add("solve.idle_frac", idle_frac(sp), "ratio");

    add("server.panels", static_cast<double>(sref.panels), "count");
    add("server.overlapped", static_cast<double>(sref.overlapped), "count");
    add("server.cols_per_panel",
        static_cast<double>(w.nrhs) / static_cast<double>(sref.panels),
        "count");

    const Wire& fw = fref.wire;
    const Wire& sw = sref.wire;
    add("pgas.rpcs.factor", static_cast<double>(fw.rpcs), "count");
    add("pgas.rpcs.solve", static_cast<double>(sw.rpcs), "count");
    add("pgas.gets.factor", static_cast<double>(fw.gets), "count");
    add("pgas.gets.solve", static_cast<double>(sw.gets), "count");
    add("pgas.bytes.factor", static_cast<double>(fw.bytes), "bytes");
    add("pgas.bytes.solve", static_cast<double>(sw.bytes), "bytes");
    // Factor + solve: at the defaults only the solve's buffers use the pool.
    const double hits = static_cast<double>(fw.pool_hits + sw.pool_hits);
    const double pool =
        hits + static_cast<double>(fw.pool_misses + sw.pool_misses);
    add("pgas.pool_hit_ratio", pool > 0.0 ? hits / pool : 0.0, "ratio");
    add("pgas.rpcs_per_task", static_cast<double>(fw.rpcs) / factor_tasks,
        "count");
    add("pgas.bytes_to_device", static_cast<double>(fw.bytes_to_device),
        "bytes");
    add("pgas.hd_copies", static_cast<double>(fw.hd_copies), "count");

    add("trace.overhead_frac", overhead, "ratio");
  }

  for (const Metric& m : res.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      res.correct = false;
    }
  }
  return res;
}

void print_result(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("ops: %lld attempted, %lld failed; correct: %s\n",
              static_cast<long long>(r.ops.attempted),
              static_cast<long long>(r.ops.failed),
              r.correct ? "true" : "false");
}

/// Names every workload must emit, per mode.
const std::vector<std::string>& expected_metrics(bool trace) {
  static const std::vector<std::string> e2e = {
      "setup_s", "factor_sim_s", "solve_sim_s", "peak_mem_bytes",
      "host_rss_mb"};
  static const std::vector<std::string> layers = [] {
    std::vector<std::string> v = {
        "ordering.wall_s", "ordering.factor_nnz", "symbolic.wall_s",
        "symbolic.supernodes", "symbolic.blocks", "symbolic.bytes_per_rank",
        "blas.flops", "blas.gflops_host", "gpu.offload_frac", "gpu.fallbacks",
        "factor.wall_s", "factor.tasks", "factor.protocol_wall_s",
        "factor.numeric_wall_s",
        "factor.host_us_per_task", "factor.path_compute_s",
        "factor.path_comm_s", "factor.path_wait_s", "factor.busy_potrf_s",
        "factor.busy_trsm_s", "factor.busy_update_s", "factor.idle_frac",
        "solve.wall_s", "solve.tasks", "solve.protocol_wall_s",
        "solve.numeric_wall_s",
        "solve.host_us_per_task", "solve.path_comm_s", "solve.path_wait_s",
        "solve.idle_frac", "server.panels", "server.overlapped",
        "server.cols_per_panel", "pgas.rpcs.factor", "pgas.rpcs.solve",
        "pgas.gets.factor", "pgas.gets.solve", "pgas.bytes.factor",
        "pgas.bytes.solve", "pgas.pool_hit_ratio", "pgas.rpcs_per_task",
        "pgas.bytes_to_device", "pgas.hd_copies", "trace.overhead_frac"};
    for (const char* op : {"gemm", "syrk", "trsm", "potrf"}) {
      v.push_back(std::string("blas.calls_cpu.") + op);
      v.push_back(std::string("gpu.calls.") + op);
    }
    return v;
  }();
  return trace ? layers : e2e;
}

/// Every workload at tiny scale, in both modes: every named metric is
/// emitted exactly once, finite and with a unit, no op fails, and the
/// result line is valid JSON.
int smoke() {
  int bad = 0;
  for (const Workload& w : kWorkloads) {
    for (bool trace : {false, true}) {
      RunConfig cfg;
      cfg.workload = &w;
      cfg.seed = 1;
      cfg.seconds = 0.0;
      cfg.trace = trace;
      cfg.scale = kSmokeScale;
      const Result r = run(cfg);
      print_result(r);
      std::string why;
      const std::string json = result_json(r);
      if (!support::json_validate(json, &why)) {
        std::printf("FAIL %s: invalid JSON: %s\n", w.name, why.c_str());
        ++bad;
      }
      if (!r.correct || r.ops.failed != 0 || r.ops.attempted < 1) {
        std::printf("FAIL %s: run not correct\n", w.name);
        ++bad;
      }
      const auto& want = expected_metrics(trace);
      for (const std::string& name : want) {
        const auto n = std::count_if(
            r.metrics.begin(), r.metrics.end(), [&](const Metric& m) {
              return m.name == name && std::isfinite(m.value) &&
                     !m.unit.empty();
            });
        if (n != 1) {
          std::printf("FAIL %s: metric %s missing, repeated or not finite\n",
                      w.name, name.c_str());
          ++bad;
        }
      }
      if (r.metrics.size() != want.size()) {
        std::printf("FAIL %s: %zu metrics, expected %zu\n", w.name,
                    r.metrics.size(), want.size());
        ++bad;
      }
    }
  }
  std::printf("smoke: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

/// The benchmark measures the defaults; any SYMPACK_* knob in the
/// environment would silently change them.
bool environment_clean() {
  std::string found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SYMPACK_", 8) == 0) {
      const char* eq = std::strchr(*e, '=');
      found += (found.empty() ? "" : ", ") +
               std::string(*e, eq ? static_cast<std::size_t>(eq - *e)
                                  : std::strlen(*e));
    }
  }
  if (found.empty()) return true;
  std::fprintf(stderr,
               "e2e_bench: refusing to run with solver knobs in the "
               "environment: %s\n",
               found.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (!environment_clean()) return 2;
  try {
    const support::Options opts(argc, argv);
    if (opts.get_bool("smoke", false)) return smoke();

    RunConfig cfg;
    const std::string name = opts.get_string("workload", "");
    for (const Workload& w : kWorkloads) {
      if (name == w.name) cfg.workload = &w;
    }
    if (cfg.workload == nullptr) {
      std::fprintf(stderr, "e2e_bench: unknown --workload '%s' (expected "
                   "flan-factor, thermal-solve or bones-timestep)\n",
                   name.c_str());
      return 2;
    }
    const std::int64_t seed = opts.get_int("seed", 0);
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.seconds = opts.get_double("seconds", 10.0);
    cfg.trace = opts.get_int("trace", 0) != 0;

    const Result r = run(cfg);
    print_result(r);
    std::fflush(stdout);
    std::printf("%s\n", result_json(r).c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
