// GPU offload decision and kernel execution (paper §4.2).
//
// Each kernel call is placed by the machine model: it runs on the rank's
// bound device (cuBLAS/cuSolver stand-in) iff launch + device kernel time
// + the PCIe copies it would stage (operands not already resident in
// device memory, then the result copied back) beat the CPU kernel time.
// An explicit per-operation element threshold in GpuOptions overrides the
// model for that operation. Offloaded kernels pay those copies, device
// scratch is allocated for the operation (exercising the device-OOM
// fallback options), and all calls are counted per rank to reproduce the
// paper's Fig. 6.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "core/options.hpp"
#include "core/report.hpp"
#include "gpu/devblas.hpp"
#include "gpu/device.hpp"
#include "pgas/runtime.hpp"

namespace sympack::core {

class Offload {
 public:
  Offload(const GpuOptions& opts, pgas::Runtime& rt, bool numeric);

  [[nodiscard]] bool gpu_enabled() const { return opts_.enabled; }

  /// Should a factor block of `elems` doubles be fetched directly into
  /// device memory on arrival ("GPU block", paper §4.2)?
  [[nodiscard]] bool device_resident(std::int64_t elems) const;

  // Kernel entry points used by the factorization and solve engines.
  // `*_resident` flags mark operands already in device memory (skipping
  // their staging charge). Each call runs the real math when `numeric`
  // and always charges simulated time on the CPU or GPU path.
  int run_potrf(pgas::Rank& rank, int w, double* a, int lda);
  void run_trsm(pgas::Rank& rank, int m, int w, const double* diag, int ldd,
                double* b, int ldb, bool diag_resident);
  void run_syrk(pgas::Rank& rank, int n, int k, const double* a, int lda,
                double* c, int ldc, bool a_resident);
  void run_gemm(pgas::Rank& rank, int m, int n, int k, const double* a,
                int lda, const double* b, int ldb, double* c, int ldc,
                bool a_resident, bool b_resident);

  // Solve-phase kernels (the triangular solves of Figures 8/10/12 use
  // the same offload rule; their calls land in the same Fig. 6 TRSM/GEMM
  // buckets).
  /// x := op(L)^{-1} x with L the n-by-n diagonal factor; op = transpose
  /// when `transposed` (backward substitution).
  void run_trsm_left(pgas::Rank& rank, bool transposed, int n, int nrhs,
                     const double* diag, int ldd, double* x, int ldx);
  /// c := alpha * op(a) * b + beta * c (general GEMM used by the solve's
  /// block contributions).
  void run_gemm_any(pgas::Rank& rank, blas::Trans trans_a, int m, int n,
                    int k, double alpha, const double* a, int lda,
                    const double* b, int ldb, double beta, double* c,
                    int ldc);

  /// Charge the memory traffic of scattering `bytes` of update results
  /// into a target block (assembly is memory-bound CPU work).
  void charge_scatter(pgas::Rank& rank, std::size_t bytes);

  [[nodiscard]] const OpCounts& counts(int rank) const {
    return counts_[rank];
  }
  [[nodiscard]] OpCounts total_counts() const;
  [[nodiscard]] std::uint64_t fallbacks() const {
    return fallbacks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] gpu::DeviceManager& devices() { return devices_; }
  void reset_counters();

 private:
  /// One kernel call as the offload decision and the device path see it.
  struct Call {
    gpu::Op op;
    double flops;
    std::int64_t elems;   // the key an explicit element threshold compares
    std::size_t scratch;  // device scratch reserved while it runs
    std::size_t out;      // result bytes copied back to the host
    std::array<std::size_t, 2> in{};  // host -> device copies, in order
    int staged = 0;                   // how many of `in` are used
    void stage(std::size_t bytes) { in[staged++] = bytes; }
  };

  /// Should `c` run on the device? Reads only the call's shape and
  /// residency (never the shared device clock), so placement is the same
  /// in either drive mode.
  [[nodiscard]] bool offloads(const Call& c) const;

  /// Place and run `c`: `host()` does the CPU math, `device(dev)` the
  /// device math; both are skipped in protocol-only runs, which charge
  /// the same simulated time.
  template <typename Host, typename Dev>
  void run(pgas::Rank& rank, const Call& c, Host&& host, Dev&& device);

  /// Device scratch for an offloaded call; null on device OOM under the
  /// CPU fallback policy.
  pgas::GlobalPtr reserve(pgas::Rank& rank, std::size_t bytes);
  void charge_stage(pgas::Rank& rank, std::size_t bytes);

  GpuOptions opts_;
  pgas::Runtime* rt_;
  gpu::DeviceManager devices_;
  bool numeric_;
  std::vector<OpCounts> counts_;
  // Incremented from any rank's thread when a device-OOM fallback fires
  // (plan() runs on the thread driving the requesting rank), so unlike
  // the per-rank counts_ slots it is genuinely shared — hence atomic.
  std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace sympack::core
