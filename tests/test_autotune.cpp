// Tests for the §6 future-work extensions: device vendor presets
// (portability knob) and the per-call analytical offload rule.
#include <gtest/gtest.h>

#include "core/offload.hpp"
#include "core/solver.hpp"
#include "gpu/device.hpp"
#include "gpu/vendors.hpp"
#include "sparse/densevec.hpp"
#include "sparse/generators.hpp"

namespace sympack {
namespace {

TEST(Vendors, PresetsChangeGpuConstantsOnly) {
  pgas::MachineModel base;
  pgas::MachineModel amd = base;
  gpu::apply_device_vendor(amd, gpu::DeviceVendor::kAmdMi250x);
  EXPECT_NE(amd.gpu_gemm_Gflops, base.gpu_gemm_Gflops);
  EXPECT_NE(amd.gpu_launch_s, base.gpu_launch_s);
  // Communication-side constants (the memory-kinds machinery) untouched.
  EXPECT_DOUBLE_EQ(amd.net_latency_s, base.net_latency_s);
  EXPECT_DOUBLE_EQ(amd.net_bandwidth_Bps, base.net_bandwidth_Bps);
  EXPECT_DOUBLE_EQ(amd.cpu_gemm_Gflops, base.cpu_gemm_Gflops);
}

TEST(Vendors, NvidiaPresetMatchesDefaultModel) {
  pgas::MachineModel base;
  pgas::MachineModel nv = base;
  gpu::apply_device_vendor(nv, gpu::DeviceVendor::kNvidiaA100);
  EXPECT_DOUBLE_EQ(nv.gpu_gemm_Gflops, base.gpu_gemm_Gflops);
  EXPECT_DOUBLE_EQ(nv.gpu_launch_s, base.gpu_launch_s);
}

TEST(Vendors, ParseAndName) {
  EXPECT_EQ(gpu::parse_vendor("cuda"), gpu::DeviceVendor::kNvidiaA100);
  EXPECT_EQ(gpu::parse_vendor("hip"), gpu::DeviceVendor::kAmdMi250x);
  EXPECT_EQ(gpu::parse_vendor("oneapi"), gpu::DeviceVendor::kIntelPvc);
  EXPECT_STREQ(gpu::vendor_name(gpu::DeviceVendor::kAmdMi250x),
               "amd-mi250x");
  EXPECT_THROW(gpu::parse_vendor("tpu"), std::invalid_argument);
}

TEST(Vendors, SolverRunsCorrectlyOnEveryVendor) {
  const auto a = sparse::grid3d_laplacian(4, 4, 4);
  const auto b = sparse::rhs_for_ones(a);
  for (const auto vendor :
       {gpu::DeviceVendor::kNvidiaA100, gpu::DeviceVendor::kAmdMi250x,
        gpu::DeviceVendor::kIntelPvc}) {
    pgas::Runtime::Config cfg;
    cfg.nranks = 4;
    cfg.ranks_per_node = 4;
    gpu::apply_device_vendor(cfg.model, vendor);
    pgas::Runtime rt(cfg);
    core::SolverOptions opts;
    opts.gpu.potrf_threshold = 16;  // force offloads onto the new device
    opts.gpu.gemm_threshold = 16;
    core::SymPackSolver solver(rt, opts);
    solver.symbolic_factorize(a);
    solver.factorize();
    const auto x = solver.solve(b);
    EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11)
        << gpu::vendor_name(vendor);
  }
}

// ------------------------------------------------------------------
// The per-call offload rule (core/offload.hpp): a call runs on the
// device iff launch + device kernel + PCIe copies of its non-resident
// operands and of its result beat the CPU kernel. Protocol-only calls
// (no operands needed) on a one-rank runtime with one GPU.

constexpr auto kGemm = static_cast<std::size_t>(gpu::Op::kGemm);

pgas::Runtime::Config one_gpu_rank(const pgas::MachineModel& model) {
  pgas::Runtime::Config cfg;
  cfg.nranks = 1;
  cfg.ranks_per_node = 1;
  cfg.gpus_per_node = 1;
  cfg.model = model;
  return cfg;
}

/// Run one m x n x k update GEMM; true if it went to the device.
bool gemm_offloads(int m, int n, int k, bool a_resident = false,
                   const core::GpuOptions& opts = {},
                   const pgas::MachineModel& model = {}) {
  pgas::Runtime rt(one_gpu_rank(model));
  core::Offload off(opts, rt, /*numeric=*/false);
  off.run_gemm(rt.rank(0), m, n, k, nullptr, m, nullptr, n, nullptr, m,
               a_resident, /*b_resident=*/false);
  EXPECT_EQ(off.counts(0).gpu[kGemm] + off.counts(0).cpu[kGemm], 1u);
  return off.counts(0).gpu[kGemm] == 1;
}

/// Offloaded calls out of a sweep of square-ish shapes over all four
/// operations.
std::uint64_t offloaded_calls(const pgas::MachineModel& model) {
  pgas::Runtime rt(one_gpu_rank(model));
  core::Offload off({}, rt, /*numeric=*/false);
  pgas::Rank& rank = rt.rank(0);
  for (int w = 8; w <= 512; w += 8) {
    off.run_potrf(rank, w, nullptr, w);
    off.run_trsm(rank, 2 * w, w, nullptr, w, nullptr, 2 * w, false);
    off.run_syrk(rank, w, w, nullptr, w, nullptr, w, false);
    off.run_gemm(rank, w, w, w, nullptr, w, nullptr, w, nullptr, w, false,
                 false);
  }
  std::uint64_t gpu = 0;
  for (const auto n : off.counts(0).gpu) gpu += n;
  return gpu;
}

TEST(OffloadRule, TinyGemmStaysOnCpuLargeSquareOffloads) {
  EXPECT_FALSE(gemm_offloads(16, 16, 16));
  EXPECT_TRUE(gemm_offloads(512, 512, 512));
}

TEST(OffloadRule, ThinGemmStaysOnCpu) {
  // 512 x 128 staged for 1 Mflop: the copies cost more than the CPU
  // kernel. The old element rule (max(m, n) * k >= 96^2) offloaded it.
  EXPECT_GE(512 * 128, 96 * 96);
  EXPECT_FALSE(gemm_offloads(512, 8, 128));
}

TEST(OffloadRule, ResidentOperandFlipsABorderlineCall) {
  EXPECT_FALSE(gemm_offloads(512, 8, 128, /*a_resident=*/false));
  EXPECT_TRUE(gemm_offloads(512, 8, 128, /*a_resident=*/true));
}

TEST(OffloadRule, ExplicitThresholdKeepsElementSemantics) {
  core::GpuOptions always;
  always.gemm_threshold = 0;
  EXPECT_TRUE(gemm_offloads(16, 16, 16, false, always));
  core::GpuOptions never;
  never.gemm_threshold = 1ll << 60;
  EXPECT_FALSE(gemm_offloads(512, 512, 512, false, never));
  // An element threshold compares max(m, n) * k, whatever the flops.
  core::GpuOptions hand;
  hand.gemm_threshold = 96 * 96;
  EXPECT_TRUE(gemm_offloads(512, 8, 128, false, hand));
  EXPECT_FALSE(gemm_offloads(90, 90, 90, false, hand));
}

TEST(OffloadRule, DisabledGpuNeverOffloads) {
  core::GpuOptions off;
  off.enabled = false;
  EXPECT_FALSE(gemm_offloads(512, 512, 512, false, off));
  off.gemm_threshold = 0;
  EXPECT_FALSE(gemm_offloads(512, 512, 512, false, off));
}

TEST(OffloadRule, SlowerLinksOffloadFewerCalls) {
  const pgas::MachineModel fast;
  const std::uint64_t base = offloaded_calls(fast);
  EXPECT_GT(base, 0u);
  pgas::MachineModel slow_pcie = fast;
  slow_pcie.pcie_bandwidth_Bps /= 10.0;
  EXPECT_LT(offloaded_calls(slow_pcie), base);
  pgas::MachineModel slow_launch = fast;
  slow_launch.gpu_launch_s *= 10.0;
  EXPECT_LT(offloaded_calls(slow_launch), base);
}

TEST(OffloadRule, UselessDeviceNeverOffloads) {
  pgas::MachineModel model;
  model.gpu_gemm_Gflops = model.cpu_gemm_Gflops / 100.0;
  model.gpu_potrf_Gflops = model.cpu_potrf_Gflops / 100.0;
  model.gpu_trsm_Gflops = model.cpu_trsm_Gflops / 100.0;
  model.gpu_syrk_Gflops = model.cpu_syrk_Gflops / 100.0;
  EXPECT_EQ(offloaded_calls(model), 0u);
}

TEST(OffloadRuleSolver, DefaultOffloadsAndStaysCorrect) {
  const auto a = sparse::grid3d_laplacian(
      10, 10, 10, sparse::Stencil3D::kTwentySevenPoint);
  const auto b = sparse::rhs_for_ones(a);
  pgas::Runtime::Config cfg;
  cfg.nranks = 4;
  cfg.ranks_per_node = 4;
  pgas::Runtime rt(cfg);
  core::SymPackSolver solver(rt, {});
  solver.symbolic_factorize(a);
  solver.factorize();
  const auto x = solver.solve(b);
  EXPECT_LT(sparse::relative_residual(a, x, b), 1e-11);
  std::uint64_t gpu = 0;
  for (const auto n : solver.report().total_ops.gpu) gpu += n;
  EXPECT_GT(gpu, 0u);
}

}  // namespace
}  // namespace sympack
