// Ablation B: how kernel calls are placed on the CPU or the GPU. The
// paper tuned per-op buffer-size thresholds by brute force (§4.2) and
// lists an analytical, hardware-agnostic rule as future work (§6). The
// default places each call by the machine model (launch + device kernel
// + PCIe copies of the non-resident operands and the result vs the CPU
// kernel); the other rows pin element thresholds through GpuOptions:
//   hand thresholds      the brute-force-tuned values (96², 128², 128², 96²)
//   analytic thresholds  the square-call crossovers the machine model gives
//                        for w-by-w buffers (104², 92², 92², 88²), with
//                        GPU blocks from 92² as well
//   gpu-always           every call offloads (threshold 0)
//   cpu-only             the GPU is off
//
// Options: --matrix flan|bones|thermal|all --scale 1.0 --nodes 4 --ppn 4
//          --json PATH
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace sympack;

struct Setting {
  const char* name;
  bool enabled;
  // Element thresholds (potrf, trsm, syrk, gemm); negative = unset, so
  // the per-call model decides.
  std::int64_t potrf, trsm, syrk, gemm;
  std::int64_t device_resident;
};

constexpr std::int64_t kResident = 128 * 128;  // GpuOptions default

const Setting kSettings[] = {
    {"per-call model (default)", true, -1, -1, -1, -1, kResident},
    {"hand thresholds", true, 96 * 96, 128 * 128, 128 * 128, 96 * 96,
     kResident},
    {"analytic thresholds", true, 104 * 104, 92 * 92, 92 * 92, 88 * 88,
     92 * 92},
    {"gpu-always (threshold 0)", true, 0, 0, 0, 0, kResident},
    {"cpu-only (gpu off)", false, -1, -1, -1, -1, kResident},
};

core::GpuOptions gpu_options(const Setting& s) {
  core::GpuOptions g;
  g.enabled = s.enabled;
  const auto set = [](std::optional<std::int64_t>& t, std::int64_t v) {
    if (v >= 0) t = v;
  };
  set(g.potrf_threshold, s.potrf);
  set(g.trsm_threshold, s.trsm);
  set(g.syrk_threshold, s.syrk);
  set(g.gemm_threshold, s.gemm);
  g.device_resident_threshold = s.device_resident;
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Options opts(argc, argv);
  const std::string matrix_arg = opts.get_string("matrix", "all");
  const double scale = opts.get_double("scale", 1.0);
  const int nodes = static_cast<int>(opts.get_int("nodes", 4));
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));
  const std::vector<std::string> matrices =
      matrix_arg == "all" ? std::vector<std::string>{"flan", "bones", "thermal"}
                          : std::vector<std::string>{matrix_arg};

  bench::JsonReport report;
  for (const std::string& name : matrices) {
    const auto info = bench::make_matrix(name, scale);
    std::printf("== Ablation: GPU offload placement (%s, %d nodes x %d ppn) "
                "==\n",
                info.name.c_str(), nodes, ppn);
    support::AsciiTable table({"setting", "factor sim (s)", "GPU calls",
                               "CPU calls"});
    for (const Setting& setting : kSettings) {
      pgas::Runtime::Config cfg;
      cfg.nranks = nodes * ppn;
      cfg.ranks_per_node = ppn;
      cfg.gpus_per_node = 4;
      cfg.device_memory_bytes = 4ull << 30;
      pgas::Runtime rt(cfg);

      core::SolverOptions sopts;
      sopts.numeric = false;
      sopts.ordering = ordering::Method::kNatural;  // pre-permuted
      sopts.gpu = gpu_options(setting);
      core::SymPackSolver solver(rt, sopts);
      solver.symbolic_factorize(info.matrix);
      solver.factorize();

      const auto& r = solver.report();
      std::uint64_t gpu_calls = 0, cpu_calls = 0;
      for (int i = 0; i < 4; ++i) {
        gpu_calls += r.total_ops.gpu[i];
        cpu_calls += r.total_ops.cpu[i];
      }
      table.add_row({setting.name,
                     support::AsciiTable::fmt(r.factor_sim_s, 5),
                     support::AsciiTable::fmt_int(gpu_calls),
                     support::AsciiTable::fmt_int(cpu_calls)});
      report.add_row()
          .set("figure", "ablation_offload")
          .set("matrix", info.name)
          .set("nodes", nodes)
          .set("ppn", ppn)
          .set("setting", setting.name)
          .set("factor_sim_s", r.factor_sim_s)
          .set("gpu_calls", static_cast<std::int64_t>(gpu_calls))
          .set("cpu_calls", static_cast<std::int64_t>(cpu_calls));
    }
    std::printf("%s", table.to_string().c_str());
  }
  std::printf("expected shape: the per-call model beats both extremes and "
              "the hand thresholds (paper §4.2: GPU-only drowns in launch "
              "overheads; CPU-only forgoes the large-block speedups). The "
              "analytic row also fetches more GPU blocks (92^2 vs 128^2), "
              "which the simulated peak memory pays for.\n");
  return bench::maybe_write_json(opts, report) ? 0 : 1;
}
