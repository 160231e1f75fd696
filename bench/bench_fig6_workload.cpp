// Figure 6 of the paper: number of BLAS/LAPACK calls executed on the CPU
// vs the GPU, per operation (SYRK/GEMM/TRSM/POTRF), for a factorization
// and solve of the Flan proxy with 4 UPC++ processes and 4 GPUs, default
// per-call offload. Only rank 0's counts are shown, as in the paper
// (plus the aggregate for reference).
//
// Options: --scale (default 1.0), --ranks 4
#include <cstdio>

#include "common.hpp"
#include "gpu/device.hpp"
#include "sparse/densevec.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace sympack;
  const support::Options opts(argc, argv);
  const double scale = opts.get_double("scale", 1.0);
  const int ranks = static_cast<int>(opts.get_int("ranks", 4));

  const auto info = bench::make_matrix("flan", scale);
  std::printf("== Figure 6: BLAS/LAPACK calls on CPU vs GPU ==\n");
  std::printf("   %s (for %s), %d processes, 4 GPUs, default offload, "
              "factorization + solve\n",
              info.name.c_str(), info.paper_name.c_str(), ranks);

  pgas::Runtime::Config cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = ranks;  // one node, one process per GPU
  cfg.gpus_per_node = 4;
  cfg.device_memory_bytes = 4ull << 30;
  pgas::Runtime rt(cfg);

  core::SolverOptions sopts;
  sopts.ordering = ordering::Method::kNatural;  // pre-permuted
  core::SymPackSolver solver(rt, sopts);
  solver.symbolic_factorize(info.matrix);
  solver.factorize();
  const auto b = sparse::rhs_for_ones(info.matrix);
  (void)solver.solve(b);

  const auto& r = solver.report();
  support::AsciiTable table({"operation", "rank-0 CPU", "rank-0 GPU",
                             "all-ranks CPU", "all-ranks GPU"});
  const gpu::Op ops[] = {gpu::Op::kSyrk, gpu::Op::kGemm, gpu::Op::kTrsm,
                         gpu::Op::kPotrf};
  for (gpu::Op op : ops) {
    const auto i = static_cast<std::size_t>(op);
    table.add_row({gpu::op_name(op),
                   support::AsciiTable::fmt_int(r.rank0_ops.cpu[i]),
                   support::AsciiTable::fmt_int(r.rank0_ops.gpu[i]),
                   support::AsciiTable::fmt_int(r.total_ops.cpu[i]),
                   support::AsciiTable::fmt_int(r.total_ops.gpu[i])});
  }
  std::printf("%s", table.to_string().c_str());

  std::uint64_t cpu = 0, gpu_count = 0;
  for (int i = 0; i < 4; ++i) {
    cpu += r.rank0_ops.cpu[i];
    gpu_count += r.rank0_ops.gpu[i];
  }
  std::printf("paper shape: the majority of calls stay on the CPU (small/"
              "medium blocks); the few large ones offload. measured rank-0: "
              "%llu CPU vs %llu GPU.\n",
              static_cast<unsigned long long>(cpu),
              static_cast<unsigned long long>(gpu_count));
  const double residual = sparse::relative_residual(
      info.matrix, solver.solve(b), b);
  std::printf("[validation] relative residual: %.2e\n", residual);
  return residual < 1e-10 ? 0 : 1;
}
