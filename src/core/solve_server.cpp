#include "core/solve_server.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/solve.hpp"

namespace sympack::core {

SolveServer::SolveServer(SymPackSolver& solver) : solver_(&solver) {}

SolveServer::~SolveServer() = default;

bool SolveServer::submit(std::vector<double> b, int nrhs) {
  const auto n = static_cast<std::size_t>(solver_->sym_.n());
  if (nrhs <= 0 || b.size() != n * static_cast<std::size_t>(nrhs)) {
    throw std::invalid_argument("SolveServer::submit: rhs size mismatch");
  }
  const int cap = solver_->opts_.solve.server_max_queue;
  if (cap > 0 && queued_columns_ + nrhs > cap) {
    ++stats_.rejected;
    return false;
  }
  queue_.push_back(Request{std::move(b), nrhs});
  queued_columns_ += nrhs;
  ++stats_.requests;
  stats_.columns += nrhs;
  return true;
}

std::vector<std::vector<double>> SolveServer::drain() {
  if (queue_.empty()) return {};
  if (!solver_->factorized_) {
    throw std::logic_error("SolveServer::drain: solver not factorized");
  }
  const idx_t n = solver_->sym_.n();
  const auto& perm = solver_->perm_;
  const int total = queued_columns_;

  // Pack every queued column — permuted into the factor's ordering —
  // into one contiguous n x total block, so panel boundaries can cut
  // across request boundaries (a panel may mix columns from several
  // submissions; the columns are independent).
  std::vector<double> bp(static_cast<std::size_t>(n) * total);
  {
    std::size_t c = 0;
    for (const Request& req : queue_) {
      for (int j = 0; j < req.nrhs; ++j, ++c) {
        const double* src = req.b.data() + static_cast<std::size_t>(j) * n;
        double* dst = bp.data() + c * n;
        for (idx_t k = 0; k < n; ++k) {
          dst[k] = src[perm[static_cast<std::size_t>(k)]];
        }
      }
    }
  }

  const int conf = solver_->opts_.solve.rhs_panel;
  const int w = conf <= 0 ? total : std::min(conf, total);

  pgas::Runtime& rt = *solver_->rt_;
  solver_->restart_clocks();
  std::vector<double> xp(static_cast<std::size_t>(n) * total, 0.0);
  const bool overlap = solver_->opts_.solve.server_overlap;
  constexpr int kStallLimit = 10000;
  const std::uint64_t seed = solver_->opts_.interleave_seed;

  // Recovery loop (DESIGN.md §4h): a rank death mid-drain unwinds the
  // drive, the solver restores the victim's factor panels from the buddy
  // replicas, and the whole drain re-runs on fresh engines — in-flight
  // panels re-execute, queued requests are untouched (queue_ is only
  // cleared after the sweeps succeed). Degraded, not failed.
  for (int attempt = 0;; ++attempt) {
    try {
      run_sweeps(rt, bp, xp, total, w, overlap, kStallLimit, seed);
      break;
    } catch (const pgas::RankDeathError& e) {
      if (solver_->ckpt_ == nullptr ||
          attempt >= solver_->opts_.resilience.max_recoveries) {
        throw;
      }
      solver_->recover_from_death(e, /*hand_over=*/false);
      ++solver_->rec_.attempt;
      // The failed attempt's engines hold partial sweep state keyed to
      // the dead drive; rebuild from scratch and restart every panel.
      for (auto& eng : engines_) eng.reset();
      std::fill(xp.begin(), xp.end(), 0.0);
    }
  }
  stats_.serve_sim_s += rt.max_clock();

  // Split the solution block back into per-request vectors, unpermuted.
  std::vector<std::vector<double>> out;
  out.reserve(queue_.size());
  std::size_t c = 0;
  for (const Request& req : queue_) {
    std::vector<double> x(static_cast<std::size_t>(n) * req.nrhs);
    for (int j = 0; j < req.nrhs; ++j, ++c) {
      const double* src = xp.data() + c * n;
      double* dst = x.data() + static_cast<std::size_t>(j) * n;
      for (idx_t k = 0; k < n; ++k) {
        dst[perm[static_cast<std::size_t>(k)]] = src[k];
      }
    }
    out.push_back(std::move(x));
  }
  queue_.clear();
  queued_columns_ = 0;
  return out;
}

void SolveServer::run_sweeps(pgas::Runtime& rt, const std::vector<double>& bp,
                             std::vector<double>& xp, int total, int w,
                             bool overlap, int kStallLimit,
                             std::uint64_t seed) {
  const idx_t n = solver_->sym_.n();
  if (!engines_[0] || engines_remaps_ != solver_->remaps_) {
    engines_remaps_ = solver_->remaps_;
    for (auto& e : engines_) {
      e = std::make_unique<SolveEngine>(*solver_->rt_, *solver_->sview_,
                                        *solver_->tgview_, *solver_->store_,
                                        *solver_->offload_, solver_->opts_,
                                        solver_->tracer_);
    }
  }

  if (!overlap) {
    SolveEngine* e = engines_[0].get();
    for (int c0 = 0; c0 < total; c0 += w) {
      const int pw = std::min(w, total - c0);
      e->begin(bp.data() + static_cast<std::size_t>(c0) * n, pw);
      ++stats_.panels;
      rt.drive([e](pgas::Rank& r) { return e->step_phase(r); }, kStallLimit,
               seed);
      e->start_backward();
      rt.drive([e](pgas::Rank& r) { return e->step_phase(r); }, kStallLimit,
               seed);
      e->gather(xp.data() + static_cast<std::size_t>(c0) * n);
    }
  } else {
    // Pipeline: the forward sweep of batch i+1 and the backward sweep
    // of batch i interleave in one drive loop. The two engines have
    // independent endpoints and segments and share only the rank
    // clocks, so a rank alternates between the sweeps as messages
    // arrive instead of idling through the other batch's round trips.
    SolveEngine* prev = nullptr;
    int prev_c0 = 0;
    int cur_idx = 0;
    for (int c0 = 0; c0 < total; c0 += w) {
      const int pw = std::min(w, total - c0);
      SolveEngine* cur = engines_[cur_idx].get();
      cur->begin(bp.data() + static_cast<std::size_t>(c0) * n, pw);
      ++stats_.panels;
      if (prev != nullptr) {
        ++stats_.overlapped;
        rt.drive(
            [cur, prev](pgas::Rank& rank) {
              const pgas::Step a = cur->step_phase(rank);
              const pgas::Step b = prev->step_phase(rank);
              if (a == pgas::Step::kWorked || b == pgas::Step::kWorked) {
                return pgas::Step::kWorked;
              }
              if (a == pgas::Step::kDone && b == pgas::Step::kDone) {
                return pgas::Step::kDone;
              }
              return pgas::Step::kIdle;
            },
            kStallLimit, seed);
        prev->gather(xp.data() + static_cast<std::size_t>(prev_c0) * n);
      } else {
        rt.drive([cur](pgas::Rank& r) { return cur->step_phase(r); },
                 kStallLimit, seed);
      }
      cur->start_backward();
      prev = cur;
      prev_c0 = c0;
      cur_idx ^= 1;
    }
    rt.drive([prev](pgas::Rank& r) { return prev->step_phase(r); },
             kStallLimit, seed);
    prev->gather(xp.data() + static_cast<std::size_t>(prev_c0) * n);
  }
}

void SolveServer::refactorize(const sparse::CscMatrix& a) {
  solver_->refactorize(a);
  ++stats_.refactorizations;
}

}  // namespace sympack::core
