// Batched multi-RHS triangular-solve ablation (DESIGN.md §4f): per-
// vector sweeps (rhs_panel=1, the historical protocol) vs one blocked
// panel sweep pair (rhs_panel=0, all columns fused) vs the SolveServer
// pipeline (fixed-width panels with fwd/bwd overlap), across the three
// proxy matrices at a communication-bound rank count.
//
// All runs are protocol-only (the schedule and the machine-model
// charges are what's being measured). The per-vector, blocked and
// server legs run the legacy rendezvous transport. The blocked sweep
// moves the same payload bytes as the per-vector sweeps — solution and
// contribution panels are w columns wide instead of w separate
// messages — so the win is pure per-message overhead amortization plus
// gemm-shaped updates. The default leg is the blocked sweep at the
// default CommOptions (eager + coalesced transport), i.e. what a user
// who sets nothing gets.
//
// Options: --scale 0.6 --nodes 16 --ppn 4 --json <path>
//
// Exit code 1 (the CI contract) if the blocked sweep at nrhs=16 is not
// at least 2x faster than the per-vector sweeps on every proxy.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/solve_server.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

struct SolveRun {
  double sim_s = 0.0;
  sympack::pgas::CommStats delta;  // wire traffic during the sweeps
};

sympack::pgas::CommStats stats_delta(const sympack::pgas::CommStats& before,
                                     const sympack::pgas::CommStats& after) {
  sympack::pgas::CommStats d;
  d.rpcs_sent = after.rpcs_sent - before.rpcs_sent;
  d.gets = after.gets - before.gets;
  d.bytes_from_host = after.bytes_from_host - before.bytes_from_host;
  d.bytes_from_device = after.bytes_from_device - before.bytes_from_device;
  d.bytes_to_device = after.bytes_to_device - before.bytes_to_device;
  return d;
}

std::uint64_t bytes_moved(const sympack::pgas::CommStats& d) {
  return d.bytes_from_host + d.bytes_from_device + d.bytes_to_device;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sympack;
  const support::Options opts(argc, argv);
  const double scale = opts.get_double("scale", 0.6);
  const int nodes = static_cast<int>(opts.get_int("nodes", 16));
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));
  const int server_panel = static_cast<int>(opts.get_int("server-panel", 16));
  const std::vector<std::int64_t> nrhs_list =
      opts.get_int_list("nrhs", {1, 4, 16, 64});

  std::printf("== Batched multi-RHS solve: per-vector vs blocked panel vs "
              "server pipeline (%d ranks) ==\n", nodes * ppn);
  bench::JsonReport report;
  support::AsciiTable table({"matrix", "nrhs", "per-vec (s)", "blocked (s)",
                             "speedup", "server (s)", "default (s)",
                             "blocked GF/s", "RHS/s", "MB moved"});

  bool gate_ok = true;
  for (const char* mat : {"flan", "bones", "thermal"}) {
    const auto info = bench::make_matrix(mat, scale);
    const auto n = static_cast<std::size_t>(info.matrix.n());

    // One solver per mode; the factorization is shared across the nrhs
    // sweep (solve() leaves the factor untouched).
    pgas::Runtime::Config cfg;
    cfg.nranks = nodes * ppn;
    cfg.ranks_per_node = ppn;
    cfg.gpus_per_node = 4;
    cfg.device_memory_bytes = 4ull << 30;

    // The legacy rendezvous transport isolates panel fusion and
    // pipelining from the eager/coalesced transport defaults (bench_comm
    // measures those).
    core::CommOptions legacy;
    legacy.eager_bytes = 0;
    legacy.coalesce = false;
    auto make_solver = [&](pgas::Runtime& rt, int rhs_panel,
                           const core::CommOptions& comm) {
      core::SolverOptions sopts;
      sopts.numeric = false;  // protocol-only
      sopts.ordering = ordering::Method::kNatural;  // pre-permuted
      sopts.solve.rhs_panel = rhs_panel;
      sopts.comm = comm;
      auto solver = std::make_unique<core::SymPackSolver>(rt, sopts);
      solver->symbolic_factorize(info.matrix);
      solver->factorize();
      return solver;
    };

    pgas::Runtime rt_pv(cfg), rt_bl(cfg), rt_sv(cfg), rt_df(cfg);
    const auto pv = make_solver(rt_pv, 1, legacy);  // per-vector sweeps
    const auto bl = make_solver(rt_bl, 0, legacy);  // one fused panel
    const auto sv = make_solver(rt_sv, server_panel, legacy);
    const auto df = make_solver(rt_df, 0, core::CommOptions{});
    core::SolveServer server(*sv);

    const std::int64_t factor_nnz = pv->report().factor_nnz;

    for (const auto nrhs64 : nrhs_list) {
      const int nrhs = static_cast<int>(nrhs64);
      const std::vector<double> b(n * static_cast<std::size_t>(nrhs), 0.0);

      auto timed_solve = [&](core::SymPackSolver& solver,
                             pgas::Runtime& rt) {
        SolveRun run;
        const pgas::CommStats before = rt.total_stats();
        (void)solver.solve(b, nrhs);
        run.sim_s = solver.report().solve_sim_s;
        run.delta = stats_delta(before, rt.total_stats());
        return run;
      };
      const SolveRun per_vector = timed_solve(*pv, rt_pv);
      const SolveRun blocked = timed_solve(*bl, rt_bl);
      const SolveRun by_default = timed_solve(*df, rt_df);

      SolveRun served;
      {
        const pgas::CommStats before = rt_sv.total_stats();
        const double sim0 = server.stats().serve_sim_s;
        server.submit(b, nrhs);
        (void)server.drain();
        served.sim_s = server.stats().serve_sim_s - sim0;
        served.delta = stats_delta(before, rt_sv.total_stats());
      }

      const double speedup =
          blocked.sim_s > 0 ? per_vector.sim_s / blocked.sim_s : 0.0;
      // A forward+backward sweep pair costs 4 nnz(L) flops per RHS.
      const double gflops =
          blocked.sim_s > 0
              ? 4.0 * static_cast<double>(factor_nnz) * nrhs /
                    (blocked.sim_s * 1e9)
              : 0.0;
      const double rhs_per_s = blocked.sim_s > 0 ? nrhs / blocked.sim_s : 0.0;
      if (nrhs == 16 && speedup < 2.0) gate_ok = false;

      table.add_row({mat, std::to_string(nrhs),
                     support::AsciiTable::fmt(per_vector.sim_s, 4),
                     support::AsciiTable::fmt(blocked.sim_s, 4),
                     support::AsciiTable::fmt(speedup, 2),
                     support::AsciiTable::fmt(served.sim_s, 4),
                     support::AsciiTable::fmt(by_default.sim_s, 4),
                     support::AsciiTable::fmt(gflops, 2),
                     support::AsciiTable::fmt(rhs_per_s, 1),
                     support::AsciiTable::fmt(
                         static_cast<double>(bytes_moved(blocked.delta)) /
                             (1 << 20), 2)});
      report.add_row()
          .set("matrix", mat)
          .set("ranks", nodes * ppn)
          .set("nrhs", nrhs)
          .set("per_vector_s", per_vector.sim_s)
          .set("blocked_s", blocked.sim_s)
          .set("speedup", speedup)
          .set("server_s", served.sim_s)
          .set("server_panel", server_panel)
          .set("default_s", by_default.sim_s)
          .set("blocked_gflops", gflops)
          .set("blocked_rhs_per_s", rhs_per_s)
          .set("per_vector_bytes_moved",
               static_cast<std::int64_t>(bytes_moved(per_vector.delta)))
          .set("blocked_bytes_moved",
               static_cast<std::int64_t>(bytes_moved(blocked.delta)))
          .set("per_vector_rpcs",
               static_cast<std::int64_t>(per_vector.delta.rpcs_sent))
          .set("blocked_rpcs",
               static_cast<std::int64_t>(blocked.delta.rpcs_sent))
          .set("per_vector_gets",
               static_cast<std::int64_t>(per_vector.delta.gets))
          .set("blocked_gets",
               static_cast<std::int64_t>(blocked.delta.gets));
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("blocked sweeps move the same payload bytes in ~nrhs-fold "
              "fewer messages; the server overlaps the backward sweep of "
              "one panel with the forward sweep of the next.\n");
  if (!bench::maybe_write_json(opts, report)) return 1;
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: blocked solve at nrhs=16 is under 2x the per-vector "
                 "sweeps on at least one proxy\n");
    return 1;
  }
  return 0;
}
