// Future-work bench (paper §6): hardware-agnostic offload and
// cross-vendor portability. Factors the flan proxy on each device vendor
// preset with the default per-call offload rule, which reads every rate
// from the machine model, so retargeting the vendor retunes the CPU/GPU
// split without a tuning pass. Then sweeps the CPU kernel-engine
// cache-block sizes (measured, not modeled) and prints the best
// TileConfig to plug into SolverOptions::kernel_tiles or the
// SYMPACK_TILE_* environment.
//
// Options: --scale 1.0 --nodes 4 --ppn 4 --tile-sweep --tile-problem 384
//          --json PATH
#include <cstdio>

#include "common.hpp"
#include "gpu/autotune.hpp"
#include "gpu/vendors.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace sympack;
  const support::Options opts(argc, argv);
  const auto info = bench::make_matrix("flan", opts.get_double("scale", 1.0));
  const int nodes = static_cast<int>(opts.get_int("nodes", 4));
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));

  std::printf("== Future work (paper §6): per-call offload on each vendor "
              "(%s, %d nodes) ==\n",
              info.name.c_str(), nodes);
  support::AsciiTable cmp({"vendor", "factor sim (s)", "GPU calls",
                           "CPU calls"});
  for (const auto vendor :
       {gpu::DeviceVendor::kNvidiaA100, gpu::DeviceVendor::kAmdMi250x,
        gpu::DeviceVendor::kIntelPvc}) {
    pgas::Runtime::Config cfg;
    cfg.nranks = nodes * ppn;
    cfg.ranks_per_node = ppn;
    gpu::apply_device_vendor(cfg.model, vendor);
    pgas::Runtime rt(cfg);
    core::SolverOptions sopts;
    sopts.numeric = false;
    sopts.ordering = ordering::Method::kNatural;
    core::SymPackSolver solver(rt, sopts);
    solver.symbolic_factorize(info.matrix);
    solver.factorize();
    const auto& r = solver.report();
    std::uint64_t gpu_calls = 0, cpu_calls = 0;
    for (int i = 0; i < 4; ++i) {
      gpu_calls += r.total_ops.gpu[i];
      cpu_calls += r.total_ops.cpu[i];
    }
    cmp.add_row({gpu::vendor_name(vendor),
                 support::AsciiTable::fmt(r.factor_sim_s, 4),
                 support::AsciiTable::fmt_int(gpu_calls),
                 support::AsciiTable::fmt_int(cpu_calls)});
  }
  std::printf("%s", cmp.to_string().c_str());

  if (opts.get_bool("tile-sweep", true)) {
    const int problem = static_cast<int>(opts.get_int("tile-problem", 384));
    std::printf("\n-- CPU kernel-engine tile sweep (measured on this host, "
                "%dx%dx%d GEMM, microkernel: %s) --\n",
                problem, problem, problem,
                blas::kernels::microkernel_variant());
    const auto sweep = gpu::sweep_tile_configs(problem);
    support::AsciiTable tiles({"MC", "KC", "NC", "GFLOP/s"});
    bench::JsonReport report;
    for (const auto& t : sweep) {
      tiles.add_row({std::to_string(t.config.mc), std::to_string(t.config.kc),
                     std::to_string(t.config.nc),
                     support::AsciiTable::fmt(t.gflops, 2)});
      report.add_row()
          .set("mc", t.config.mc)
          .set("kc", t.config.kc)
          .set("nc", t.config.nc)
          .set("gflops", t.gflops)
          .set("microkernel", blas::kernels::microkernel_variant());
    }
    std::printf("%s", tiles.to_string().c_str());
    const auto& best = sweep.front().config;
    std::printf("best: SYMPACK_TILE_MC=%d SYMPACK_TILE_KC=%d "
                "SYMPACK_TILE_NC=%d (or SolverOptions::kernel_tiles)\n",
                best.mc, best.kc, best.nc);
    if (!bench::maybe_write_json(opts, report)) return 1;
  }
  return 0;
}
