// Comm-path ablation: eager/coalesced signal transport + slab pool
// (DESIGN.md §4e) vs the rendezvous-only baseline protocol, across the
// three proxy matrices and both factorization variants at a
// communication-bound rank count.
//
// The baseline runs the historical protocol exactly (eager off,
// coalescing off, pool off); the fast configuration inlines payloads
// below the eager threshold, batches same-target signals per progress
// quantum, and recycles staging buffers through the slab pool. Both are
// protocol-only runs (the schedule and the machine-model charges are
// what's being measured).
//
// Options: --scale 1.0 --nodes 16 --ppn 4 --eager 4096 --json <path>
//
// Exit code 1 (the CI smoke contract) if the fast path never engaged:
// eager_sends, coalesced_signals, and pool_hits all zero would mean the
// knobs silently stopped reaching the transport.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace sympack;
  const support::Options opts(argc, argv);
  const double scale = opts.get_double("scale", 1.0);
  const int nodes = static_cast<int>(opts.get_int("nodes", 16));
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));
  const auto eager_bytes = opts.get_int("eager", 4096);

  std::printf("== Comm-path ablation: eager+coalesced+pooled vs "
              "rendezvous-only (%d ranks) ==\n", nodes * ppn);
  bench::JsonReport report;
  support::AsciiTable table({"matrix", "variant", "baseline (s)", "fast (s)",
                             "speedup", "rpcs base", "rpcs fast", "eager",
                             "coalesced", "pool hit%"});

  bool fast_path_engaged = false;
  for (const char* mat : {"flan", "bones", "thermal"}) {
    const auto info = bench::make_matrix(mat, scale);
    for (const auto variant : {core::Variant::kFanOut, core::Variant::kFanIn}) {
      double sim[2] = {0.0, 0.0};
      pgas::CommStats stats[2];
      for (int fast = 0; fast < 2; ++fast) {
        pgas::Runtime::Config cfg;
        cfg.nranks = nodes * ppn;
        cfg.ranks_per_node = ppn;
        cfg.pool.enabled = fast == 1;
        pgas::Runtime rt(cfg);
        core::SolverOptions sopts;
        sopts.numeric = false;
        sopts.ordering = ordering::Method::kNatural;  // pre-permuted
        sopts.variant = variant;
        // Both columns pin their transport: the baseline is the legacy
        // rendezvous protocol, not whatever the library defaults are.
        sopts.comm.eager_bytes = fast == 1 ? eager_bytes : 0;
        sopts.comm.coalesce = fast == 1;
        core::SymPackSolver solver(rt, sopts);
        solver.symbolic_factorize(info.matrix);
        solver.factorize();
        sim[fast] = solver.report().factor_sim_s;
        stats[fast] = solver.report().comm;
      }
      const double speedup = sim[1] > 0 ? sim[0] / sim[1] : 0.0;
      const auto pool_ops = stats[1].pool_hits + stats[1].pool_misses;
      const double hit_pct =
          pool_ops > 0 ? 100.0 * static_cast<double>(stats[1].pool_hits) /
                             static_cast<double>(pool_ops)
                       : 0.0;
      if (stats[1].eager_sends > 0 || stats[1].coalesced_signals > 0 ||
          stats[1].pool_hits > 0) {
        fast_path_engaged = true;
      }
      table.add_row({mat, core::variant_name(variant),
                     support::AsciiTable::fmt(sim[0], 4),
                     support::AsciiTable::fmt(sim[1], 4),
                     support::AsciiTable::fmt(speedup, 2),
                     support::AsciiTable::fmt_int(stats[0].rpcs_sent),
                     support::AsciiTable::fmt_int(stats[1].rpcs_sent),
                     support::AsciiTable::fmt_int(stats[1].eager_sends),
                     support::AsciiTable::fmt_int(stats[1].coalesced_signals),
                     support::AsciiTable::fmt(hit_pct, 1)});
      report.add_row()
          .set("matrix", mat)
          .set("variant", core::variant_name(variant))
          .set("ranks", nodes * ppn)
          .set("eager_bytes", eager_bytes)
          .set("baseline_sim_s", sim[0])
          .set("fast_sim_s", sim[1])
          .set("speedup", speedup)
          .set("baseline_rpcs_sent",
               static_cast<std::int64_t>(stats[0].rpcs_sent))
          .set("fast_rpcs_sent", static_cast<std::int64_t>(stats[1].rpcs_sent))
          .set("baseline_gets", static_cast<std::int64_t>(stats[0].gets))
          .set("fast_gets", static_cast<std::int64_t>(stats[1].gets))
          .set("eager_sends", static_cast<std::int64_t>(stats[1].eager_sends))
          .set("coalesced_signals",
               static_cast<std::int64_t>(stats[1].coalesced_signals))
          .set("pool_hits", static_cast<std::int64_t>(stats[1].pool_hits))
          .set("pool_misses",
               static_cast<std::int64_t>(stats[1].pool_misses));
    }
  }
  std::printf("%s", table.to_string().c_str());

  // Numeric leg: protocol-only runs never touch real buffers, so the
  // slab pool's recycle rate is measured on a numeric factorize+solve
  // (8 ranks — the tier-1 test configuration) with the fast path on.
  {
    const auto info = bench::make_matrix("flan", scale);
    pgas::Runtime::Config cfg;
    cfg.nranks = 8;
    cfg.ranks_per_node = 4;
    pgas::Runtime rt(cfg);
    core::SolverOptions sopts;
    sopts.numeric = true;
    sopts.ordering = ordering::Method::kNatural;
    sopts.comm.eager_bytes = eager_bytes;
    sopts.comm.coalesce = true;
    core::SymPackSolver solver(rt, sopts);
    solver.symbolic_factorize(info.matrix);
    solver.factorize();
    const std::vector<double> b(
        static_cast<std::size_t>(info.matrix.n()), 1.0);
    (void)solver.solve(b);
    const pgas::CommStats numeric = solver.report().comm;
    const auto ops = numeric.pool_hits + numeric.pool_misses;
    const double hit_pct =
        ops > 0 ? 100.0 * static_cast<double>(numeric.pool_hits) /
                      static_cast<double>(ops)
                : 0.0;
    if (numeric.pool_hits > 0) fast_path_engaged = true;
    std::printf("numeric flan factor+solve at 8 ranks: pool hit rate %.1f%% "
                "(%llu hits / %llu misses)\n", hit_pct,
                static_cast<unsigned long long>(numeric.pool_hits),
                static_cast<unsigned long long>(numeric.pool_misses));
    report.add_row()
        .set("matrix", "flan")
        .set("variant", "numeric-factor-solve")
        .set("ranks", 8)
        .set("eager_bytes", eager_bytes)
        .set("eager_sends", static_cast<std::int64_t>(numeric.eager_sends))
        .set("coalesced_signals",
             static_cast<std::int64_t>(numeric.coalesced_signals))
        .set("pool_hits", static_cast<std::int64_t>(numeric.pool_hits))
        .set("pool_misses", static_cast<std::int64_t>(numeric.pool_misses));
  }

  std::printf("eager inlining removes the signal->rget round trip for small "
              "blocks; coalescing amortizes the per-message overhead across "
              "same-target signals; the pool recycles the staging buffers "
              "both paths allocate.\n");
  if (!bench::maybe_write_json(opts, report)) return 1;
  if (!fast_path_engaged) {
    std::fprintf(stderr,
                 "FAIL: eager_sends, coalesced_signals and pool_hits are all "
                 "zero — the fast path never engaged\n");
    return 1;
  }
  return 0;
}
