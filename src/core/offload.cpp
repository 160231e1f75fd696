#include "core/offload.hpp"

#include <algorithm>
#include <optional>
#include <string>

namespace sympack::core {

namespace {
constexpr std::size_t idx(gpu::Op op) { return static_cast<std::size_t>(op); }

std::size_t doubles(std::int64_t rows, std::int64_t cols) {
  return sizeof(double) * static_cast<std::size_t>(rows * cols);
}
}  // namespace

Offload::Offload(const GpuOptions& opts, pgas::Runtime& rt, bool numeric)
    : opts_(opts), rt_(&rt), devices_(rt), numeric_(numeric),
      counts_(rt.nranks()) {}

bool Offload::device_resident(std::int64_t elems) const {
  return opts_.enabled && elems >= opts_.device_resident_threshold;
}

bool Offload::offloads(const Call& c) const {
  if (!opts_.enabled) return false;
  const std::optional<std::int64_t>* threshold = nullptr;
  switch (c.op) {
    case gpu::Op::kPotrf: threshold = &opts_.potrf_threshold; break;
    case gpu::Op::kTrsm: threshold = &opts_.trsm_threshold; break;
    case gpu::Op::kSyrk: threshold = &opts_.syrk_threshold; break;
    case gpu::Op::kGemm: threshold = &opts_.gemm_threshold; break;
  }
  if (threshold->has_value()) return c.elems >= **threshold;
  // The device path's own charges: launch, kernel, each staged copy in,
  // the result copied back.
  const pgas::MachineModel& m = rt_->model();
  double device_s = m.gpu_launch_s + gpu::gpu_kernel_time(m, c.op, c.flops) +
                    m.hd_copy_time(c.out);
  for (int i = 0; i < c.staged; ++i) device_s += m.hd_copy_time(c.in[i]);
  return device_s < gpu::cpu_kernel_time(m, c.op, c.flops);
}

template <typename Host, typename Dev>
void Offload::run(pgas::Rank& rank, const Call& c, Host&& host,
                  Dev&& device) {
  pgas::GlobalPtr scratch;
  if (offloads(c) && !(scratch = reserve(rank, c.scratch)).is_null()) {
    for (int i = 0; i < c.staged; ++i) charge_stage(rank, c.in[i]);
    auto& dev = devices_.device_for(rank);
    if (numeric_) {
      device(dev);
    } else {
      rank.merge_clock(dev.submit(c.op, c.flops, rank.now()));
    }
    // Result copied back to host memory, then the scratch is released.
    charge_stage(rank, c.out);
    rank.deallocate(scratch);
    ++counts_[rank.id()].gpu[idx(c.op)];
    return;
  }
  if (numeric_) host();
  rank.advance(gpu::cpu_kernel_time(rt_->model(), c.op, c.flops));
  ++counts_[rank.id()].cpu[idx(c.op)];
}

pgas::GlobalPtr Offload::reserve(pgas::Rank& rank, std::size_t bytes) {
  pgas::GlobalPtr scratch = rank.allocate_device(bytes, /*nothrow=*/true);
  if (scratch.is_null()) {
    // Device segment exhausted: apply the configured fallback (§4.2).
    if (opts_.fallback == GpuFallback::kThrow) {
      throw pgas::DeviceOom("device scratch allocation failed (" +
                            std::to_string(bytes) + " B)");
    }
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    ++rank.stats().oom_fallbacks;
  }
  return scratch;
}

void Offload::charge_stage(pgas::Rank& rank, std::size_t bytes) {
  rank.advance(rt_->model().hd_copy_time(bytes));
  ++rank.stats().hd_copies;
}

void Offload::charge_scatter(pgas::Rank& rank, std::size_t bytes) {
  // Read the update, read+write the target: ~3 bytes of traffic per byte.
  rank.advance(3.0 * static_cast<double>(bytes) /
               rt_->model().cpu_mem_bandwidth_Bps);
}

int Offload::run_potrf(pgas::Rank& rank, int w, double* a, int lda) {
  const std::size_t bytes = doubles(w, w);
  Call c{gpu::Op::kPotrf, static_cast<double>(blas::potrf_flops(w)),
         static_cast<std::int64_t>(w) * w, bytes, bytes};
  c.stage(bytes);  // diagonal block host -> device
  int info = 0;
  run(
      rank, c, [&] { info = blas::potrf(blas::UpLo::kLower, w, a, lda); },
      [&](gpu::Device& dev) {
        info = gpu::dev_potrf(rank, dev, blas::UpLo::kLower, w, a, lda);
      });
  return info;
}

void Offload::run_trsm(pgas::Rank& rank, int m, int w, const double* diag,
                       int ldd, double* b, int ldb, bool diag_resident) {
  const std::size_t b_bytes = doubles(m, w);
  const std::size_t d_bytes = doubles(w, w);
  Call c{gpu::Op::kTrsm,
         static_cast<double>(blas::trsm_flops(blas::Side::kRight, m, w)),
         static_cast<std::int64_t>(m) * w, b_bytes + d_bytes, b_bytes};
  c.stage(b_bytes);
  if (!diag_resident) c.stage(d_bytes);
  run(
      rank, c,
      [&] {
        blas::trsm(blas::Side::kRight, blas::UpLo::kLower, blas::Trans::kYes,
                   blas::Diag::kNonUnit, m, w, 1.0, diag, ldd, b, ldb);
      },
      [&](gpu::Device& dev) {
        gpu::dev_trsm(rank, dev, blas::Side::kRight, blas::UpLo::kLower,
                      blas::Trans::kYes, blas::Diag::kNonUnit, m, w, 1.0,
                      diag, ldd, b, ldb);
      });
}

void Offload::run_syrk(pgas::Rank& rank, int n, int k, const double* a,
                       int lda, double* c, int ldc, bool a_resident) {
  const std::size_t a_bytes = doubles(n, k);
  const std::size_t c_bytes = doubles(n, n);
  Call call{gpu::Op::kSyrk, static_cast<double>(blas::syrk_flops(n, k)),
            static_cast<std::int64_t>(n) * k, a_bytes + c_bytes, c_bytes};
  if (!a_resident) call.stage(a_bytes);
  call.stage(c_bytes);
  run(
      rank, call,
      [&] {
        blas::syrk(blas::UpLo::kLower, blas::Trans::kNo, n, k, -1.0, a, lda,
                   1.0, c, ldc);
      },
      [&](gpu::Device& dev) {
        gpu::dev_syrk(rank, dev, blas::UpLo::kLower, blas::Trans::kNo, n, k,
                      -1.0, a, lda, 1.0, c, ldc);
      });
}

void Offload::run_gemm(pgas::Rank& rank, int m, int n, int k, const double* a,
                       int lda, const double* b, int ldb, double* c, int ldc,
                       bool a_resident, bool b_resident) {
  const std::size_t a_bytes = doubles(m, k);
  const std::size_t b_bytes = doubles(n, k);
  const std::size_t c_bytes = doubles(m, n);
  Call call{gpu::Op::kGemm, static_cast<double>(blas::gemm_flops(m, n, k)),
            static_cast<std::int64_t>(std::max(m, n)) * k,
            a_bytes + b_bytes + c_bytes, c_bytes};
  if (!a_resident) call.stage(a_bytes);
  if (!b_resident) call.stage(b_bytes);
  run(
      rank, call,
      [&] {
        blas::gemm(blas::Trans::kNo, blas::Trans::kYes, m, n, k, 1.0, a, lda,
                   b, ldb, 0.0, c, ldc);
      },
      [&](gpu::Device& dev) {
        gpu::dev_gemm(rank, dev, blas::Trans::kNo, blas::Trans::kYes, m, n, k,
                      1.0, a, lda, b, ldb, 0.0, c, ldc);
      });
}

void Offload::run_trsm_left(pgas::Rank& rank, bool transposed, int n,
                            int nrhs, const double* diag, int ldd, double* x,
                            int ldx) {
  // An explicit threshold keys on the RHS panel (the buffer the solve
  // computes on), so thin solves stay on the CPU under it.
  const std::int64_t elems = static_cast<std::int64_t>(n) * nrhs;
  const std::size_t d_bytes = doubles(n, n);
  const std::size_t x_bytes = doubles(n, nrhs);
  Call c{gpu::Op::kTrsm, static_cast<double>(nrhs) * n * n, elems,
         d_bytes + x_bytes, x_bytes};
  c.stage(d_bytes + x_bytes);
  const auto trans = transposed ? blas::Trans::kYes : blas::Trans::kNo;
  run(
      rank, c,
      [&] {
        blas::trsm(blas::Side::kLeft, blas::UpLo::kLower, trans,
                   blas::Diag::kNonUnit, n, nrhs, 1.0, diag, ldd, x, ldx);
      },
      [&](gpu::Device& dev) {
        gpu::dev_trsm(rank, dev, blas::Side::kLeft, blas::UpLo::kLower, trans,
                      blas::Diag::kNonUnit, n, nrhs, 1.0, diag, ldd, x, ldx);
      });
}

void Offload::run_gemm_any(pgas::Rank& rank, blas::Trans trans_a, int m,
                           int n, int k, double alpha, const double* a,
                           int lda, const double* b, int ldb, double beta,
                           double* c, int ldc) {
  // Like run_trsm_left: an explicit threshold keys on the RHS/solution
  // panels (n = nrhs here), not on the factor block.
  const std::size_t a_bytes = doubles(m, k);
  const std::size_t b_bytes = doubles(k, n);
  const std::size_t c_bytes = doubles(m, n);
  Call call{gpu::Op::kGemm, static_cast<double>(blas::gemm_flops(m, n, k)),
            static_cast<std::int64_t>(std::max(m, k)) * n,
            a_bytes + b_bytes + c_bytes, c_bytes};
  call.stage(a_bytes + b_bytes);
  run(
      rank, call,
      [&] {
        blas::gemm(trans_a, blas::Trans::kNo, m, n, k, alpha, a, lda, b, ldb,
                   beta, c, ldc);
      },
      [&](gpu::Device& dev) {
        gpu::dev_gemm(rank, dev, trans_a, blas::Trans::kNo, m, n, k, alpha, a,
                      lda, b, ldb, beta, c, ldc);
      });
}

OpCounts Offload::total_counts() const {
  OpCounts total;
  for (const auto& c : counts_) total += c;
  return total;
}

void Offload::reset_counters() {
  for (auto& c : counts_) c = OpCounts{};
  fallbacks_.store(0, std::memory_order_relaxed);
  devices_.reset();
}

}  // namespace sympack::core
