#include "core/solve.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "pgas/pool.hpp"

namespace sympack::core {

SolveEngine::SolveEngine(pgas::Runtime& rt, const symbolic::SymbolicView& sym,
                         const symbolic::TaskGraphView& tg, BlockStore& store,
                         Offload& offload, const SolverOptions& opts,
                         Tracer* tracer)
    : rt_(&rt), sym_(&sym), tg_(&tg), store_(&store), offload_(&offload),
      opts_(opts), stats_(tracer, opts.trace.metadata) {
  const idx_t ns = sym.num_snodes();
  target_blocks_.resize(ns);
  owned_diag_.assign(rt.nranks(), 0);
  owned_contrib_fwd_.assign(rt.nranks(), 0);
  owned_contrib_bwd_.assign(rt.nranks(), 0);
  const auto& map = tg.mapping();
  for (idx_t k = 0; k < ns; ++k) {
    ++owned_diag_[map(k, k)];
    const auto& sn = sym.snode(k);
    for (BlockSlot slot = 1;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const idx_t s = sn.blocks[slot - 1].target;
      target_blocks_[s].emplace_back(k, slot);
      // Each block produces exactly one contribution in each sweep.
      ++owned_contrib_fwd_[map(s, k)];
      ++owned_contrib_bwd_[map(s, k)];
    }
  }
  seg_.resize(ns);
  deps_.init(ns);  // once: ready times carry across the two sweeps
  per_rank_.resize(rt.nranks());
  if (taskrt::heap_policy(opts_.policy)) {
    levels_ = taskrt::tree_levels(sym, rt.model());
    for (PerRank& pr : per_rank_) pr.tasks.set_policy(opts_.policy);
  }
  net_.init(rt, opts_.fault, tracer, opts_.comm, opts_.resilience);
}

SolveEngine::~SolveEngine() { free_buffers(); }

void SolveEngine::free_buffers() {
  for (int r = 0; r < rt_->nranks(); ++r) {
    for (auto& g : per_rank_[r].owned_buffers) {
      rt_->rank(r).pool_deallocate(g);
    }
    per_rank_[r].owned_buffers.clear();
    per_rank_[r].eager_refs.clear();
  }
}

std::vector<double> SolveEngine::solve(const std::vector<double>& b,
                                       int nrhs) {
  const idx_t n = sym_->n();
  if (static_cast<idx_t>(b.size()) != n * nrhs) {
    throw std::invalid_argument("SolveEngine::solve: rhs size mismatch");
  }
  // Panel the RHS: each forward+backward sweep carries up to rhs_panel
  // columns (1 = per-vector sweeps, identical schedule to the
  // historical solver; 0 = all columns in one fused sweep).
  const int conf = opts_.solve.rhs_panel;
  const int w = conf <= 0 ? nrhs : std::min(conf, nrhs);
  std::vector<double> x(static_cast<std::size_t>(n) * nrhs, 0.0);
  for (int c0 = 0; c0 < nrhs; c0 += w) {
    const int pw = std::min(w, nrhs - c0);
    begin(b.data() + static_cast<std::size_t>(c0) * n, pw);
    drive_phase();
    start_backward();
    drive_phase();
    gather(x.data() + static_cast<std::size_t>(c0) * n);
  }
  return x;
}

void SolveEngine::begin(const double* panel, int nrhs) {
  const idx_t n = sym_->n();
  nrhs_ = nrhs;
  // Scatter the panel into per-supernode segments at the diagonal owners.
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    const auto& sn = sym_->snode(k);
    const idx_t w = sn.width();
    seg_[k].assign(static_cast<std::size_t>(w) * nrhs, 0.0);
    if (store_->numeric() && panel != nullptr) {
      for (int c = 0; c < nrhs; ++c) {
        for (idx_t r = 0; r < w; ++r) {
          seg_[k][r + static_cast<std::size_t>(c) * w] =
              panel[(sn.first + r) + static_cast<std::size_t>(c) * n];
        }
      }
    }
  }
  cur_backward_ = false;
  // Fresh panel, fresh dataflow epoch: ready times from a previous
  // panel must not seed this one (the serving layer resets the clocks
  // between drains; within one solve() the clocks are monotone and the
  // carried times were redundant anyway).
  deps_.clear_ready();
  reset_phase(/*backward=*/false);
}

void SolveEngine::start_backward() {
  cur_backward_ = true;
  reset_phase(/*backward=*/true);
}

pgas::Step SolveEngine::step_phase(pgas::Rank& rank) {
  return step(rank, cur_backward_);
}

void SolveEngine::gather(double* x) {
  // Gather the solution (x overwrote the segments in the backward sweep).
  const idx_t n = sym_->n();
  if (store_->numeric() && x != nullptr) {
    for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
      const auto& sn = sym_->snode(k);
      const idx_t w = sn.width();
      for (int c = 0; c < nrhs_; ++c) {
        for (idx_t r = 0; r < w; ++r) {
          x[(sn.first + r) + static_cast<std::size_t>(c) * n] =
              seg_[k][r + static_cast<std::size_t>(c) * w];
        }
      }
    }
  }
  free_buffers();
}

void SolveEngine::reset_phase(bool backward) {
  const auto& map = tg_->mapping();
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    deps_.set_count(
        k, backward ? static_cast<int>(sym_->snode(k).blocks.size())
                    : static_cast<int>(target_blocks_[k].size()));
  }
  for (auto& pr : per_rank_) {
    pr.tasks.clear();
    pr.done_diag = 0;
    pr.done_contrib = 0;
    // Eager payloads pinned for the previous sweep die here: a stale
    // forward-sweep payload must never satisfy a backward-sweep task.
    pr.eager_refs.clear();
  }
  // Inboxes drop; under recovery the sequence numbers also restart per
  // sweep (the forward ledger must not satisfy backward re-requests).
  net_.reset_phase();
  // Seed the sweep with supernodes that have no outstanding
  // contributions (leaves forward, roots backward).
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    if (deps_.count(k) == 0) {
      push(map(k, k), Task{Task::Type::kDiag, k, 0, nullptr, deps_.ready(k)},
           backward);
    }
  }
}

void SolveEngine::drive_phase() {
  rt_->drive([this](pgas::Rank& rank) { return step_phase(rank); },
             /*stall_limit=*/10000, opts_.interleave_seed);
}

pgas::Step SolveEngine::step(pgas::Rank& rank, bool backward) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  int worked = rank.progress(pr.tasks.empty() ? pgas::Rank::kIdle
                                              : pr.tasks.next_ready());
  // A killed rank stops participating; the solve recovery path restores
  // its factor panels from the buddy checkpoints and re-runs the sweep.
  if (net_.recovery() && !rank.alive()) return pgas::Step::kIdle;
  const std::vector<Msg> msgs = net_.drain(me);
  for (const Msg& m : msgs) handle_msg(rank, m, backward);
  worked += static_cast<int>(msgs.size());
  const bool progressed = !msgs.empty() || !pr.tasks.empty();
  if (!pr.tasks.empty()) {
    const Task task = pr.tasks.pop();
    rank.merge_clock(task.ready);
    if (task.type == Task::Type::kDiag) {
      execute_diag(rank, task.k, backward);
    } else {
      execute_contrib(rank, task, backward);
    }
    ++worked;
  }
  if (worked > 0) {
    net_.on_worked(me, progressed);
    return pgas::Step::kWorked;
  }
  // Nothing else to do: flush any coalesced signals still parked in the
  // outboxes so consumers are not starved (and termination can be
  // reached — a rank never reports done with signals still queued).
  if (rank.flush_signals() > 0) {
    net_.on_worked(me, /*progressed=*/false);
    return pgas::Step::kWorked;
  }

  const idx_t owned_contrib =
      backward ? owned_contrib_bwd_[me] : owned_contrib_fwd_[me];
  const bool done = pr.done_diag == owned_diag_[me] &&
                    pr.done_contrib == owned_contrib && pr.tasks.empty() &&
                    !net_.has_pending(me) && !rank.has_pending_rpcs();
  if (done) return pgas::Step::kDone;
  net_.on_idle(rank);
  return pgas::Step::kIdle;
}

void SolveEngine::execute_diag(pgas::Rank& rank, idx_t k, bool backward) {
  const double begin = rank.now();
  const auto& sn = sym_->snode(k);
  const int w = static_cast<int>(sn.width());
  const idx_t dbid = store_->block_id(k, 0);
  offload_->run_trsm_left(rank, backward, w, nrhs_, store_->data(dbid), w,
                          store_->numeric() ? seg_[k].data() : nullptr, w);
  deps_.set_ready(k, rank.now());
  ++per_rank_[rank.id()].done_diag;
  if (stats_.tracing()) {
    stats_.task_span(rank.id(),
                     backward ? taskrt::TaskTag::kSolveBwd
                              : taskrt::TaskTag::kSolveFwd,
                     k, 0, 0, begin, rank.now());
  }
  publish_solution(rank, k, backward);
}

void SolveEngine::publish_solution(pgas::Rank& rank, idx_t k, bool backward) {
  const int me = rank.id();
  const auto& map = tg_->mapping();
  const auto& sn = sym_->snode(k);
  const std::size_t bytes =
      sizeof(double) * static_cast<std::size_t>(sn.width()) * nrhs_;

  // Consumers: forward, the owners of panel-k blocks (they multiply by
  // y_k); backward, the owners of blocks *targeting* k (they need x_k).
  std::vector<int> consumers;
  if (!backward) {
    for (BlockSlot slot = 1;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      consumers.push_back(map(sn.blocks[slot - 1].target, k));
    }
  } else {
    for (const auto& [panel, slot] : target_blocks_[k]) {
      (void)slot;
      consumers.push_back(map(k, panel));
    }
  }
  std::sort(consumers.begin(), consumers.end());
  consumers.erase(std::unique(consumers.begin(), consumers.end()),
                  consumers.end());

  const bool has_remote =
      std::any_of(consumers.begin(), consumers.end(),
                  [me](int r) { return r != me; });

  // Eager (DESIGN.md §4e): the segment rides inside the signal; one
  // shared buffer serves every remote consumer (and ledger retransmits).
  // Otherwise it is published one-sidedly: remote consumers receive a
  // signal and pull the segment with rget, exactly like factor blocks.
  const bool eager = net_.eager(bytes);
  std::shared_ptr<const double> payload;
  pgas::GlobalPtr src{};
  if (store_->numeric() && eager && has_remote) {
    auto buf = pgas::shared_host_buffer(rank, bytes / sizeof(double));
    std::memcpy(buf.get(), seg_[k].data(), bytes);
    payload = std::move(buf);
  } else if (store_->numeric() && !eager) {
    src = rank.pool_allocate_host(bytes);
    std::memcpy(src.addr, seg_[k].data(), bytes);
    per_rank_[me].owned_buffers.push_back(src);
  }
  for (int r : consumers) {
    if (r == me) {
      // Local consumers: enqueue their contribution tasks directly.
      enqueue_consumers(me, k, store_->numeric() ? seg_[k].data() : nullptr,
                        rank.now(), backward);
    } else {
      net_.send(rank, r,
                Msg{Msg::Type::kX, k, 0, 0, src, bytes,
                    eager ? static_cast<std::uint32_t>(bytes) : 0u, payload});
    }
  }
}

void SolveEngine::enqueue_consumers(int rank_id, idx_t k,
                                    const double* operand, double ready,
                                    bool backward) {
  const auto& map = tg_->mapping();
  if (!backward) {
    const auto& blocks = sym_->snode(k).blocks;
    for (BlockSlot slot = 1; slot <= static_cast<idx_t>(blocks.size());
         ++slot) {
      if (map(blocks[slot - 1].target, k) == rank_id) {
        push(rank_id, Task{Task::Type::kContrib, k, slot, operand, ready},
             backward);
      }
    }
  } else {
    for (const auto& [panel, slot] : target_blocks_[k]) {
      if (map(k, panel) == rank_id) {
        push(rank_id, Task{Task::Type::kContrib, panel, slot, operand, ready},
             backward);
      }
    }
  }
}

void SolveEngine::push(int rank_id, const Task& task, bool backward) {
  taskrt::ReadyQueue<Task>& q = per_rank_[rank_id].tasks;
  q.push(task, taskrt::heap_policy(q.policy())
                   ? task_priority(*sym_, levels_, task.k, task.slot, backward)
                   : 0);
}

std::int64_t SolveEngine::task_priority(const symbolic::SymbolicView& sym,
                                        const taskrt::TreeLevels& levels,
                                        idx_t k, BlockSlot slot,
                                        bool backward) {
  if (backward) return taskrt::level_priority(levels.height[k]);
  const idx_t fed = slot == 0 ? k : sym.snode(k).blocks[slot - 1].target;
  return taskrt::level_priority(levels.blevel[fed]);
}

void SolveEngine::handle_msg(pgas::Rank& rank, const Msg& msg,
                             bool backward) {
  // Either message type dereferences a panel's metadata on the receiver
  // (solution segments in particular cross supernode neighborhoods the
  // receiver may not retain under a sharded view — first touch pulls and
  // caches).
  tg_->touch(rank, msg.type == Msg::Type::kX ? msg.k : msg.panel);
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  if (msg.type == Msg::Type::kX) {
    // Fetch the published segment, then enqueue the local contribution
    // tasks that consume it.
    const double* operand = nullptr;
    double ready;
    if (msg.eager_bytes > 0) {
      // Eager: the segment arrived inline; pin the shared payload for
      // the sweep because Task::operand outlives the Msg.
      if (msg.payload) {
        pr.eager_refs.push_back(msg.payload);
        operand = msg.payload.get();
      }
      ready = rank.now();
    } else if (store_->numeric()) {
      auto buf = rank.pool_allocate_host(msg.bytes);
      pr.owned_buffers.push_back(buf);
      ready = net_.with_retry(rank, [&] {
        return rank.rget(msg.data, buf.addr, msg.bytes, pgas::MemKind::kHost);
      });
      operand = buf.local<double>();
    } else {
      ready = rank.transfer_completion(msg.bytes, tg_->mapping()(msg.k, msg.k),
                                       pgas::MemKind::kHost,
                                       pgas::MemKind::kHost);
      rank.advance(rt_->model().rma_issue_s);
      ++rank.stats().gets;
      rank.stats().bytes_from_host += msg.bytes;
    }
    stats_.fetch_mark(me, msg.k, 0, ready);
    enqueue_consumers(me, msg.k, operand, ready, backward);
    return;
  }

  // kContrib: a partial sum arrives for a segment this rank owns.
  if (msg.eager_bytes > 0) {
    // Eager: apply the inline partial sum directly (it is consumed
    // synchronously, so no pinning is needed).
    stats_.fetch_mark(me, msg.panel, msg.slot, rank.now());
    apply_contribution(rank, msg.panel, msg.slot,
                       msg.payload ? msg.payload.get() : nullptr, rank.now(),
                       backward);
    return;
  }
  const double* z = nullptr;
  double ready;
  std::vector<double> tmp;
  if (store_->numeric()) {
    tmp.resize(msg.bytes / sizeof(double));
    ready = net_.with_retry(rank, [&] {
      return rank.rget(msg.data, reinterpret_cast<std::byte*>(tmp.data()),
                       msg.bytes, pgas::MemKind::kHost);
    });
    z = tmp.data();
  } else {
    const auto& blk = sym_->snode(msg.panel).blocks[msg.slot - 1];
    const int sender = tg_->mapping()(blk.target, msg.panel);
    ready = rank.transfer_completion(msg.bytes, sender, pgas::MemKind::kHost,
                                     pgas::MemKind::kHost);
    rank.advance(rt_->model().rma_issue_s);
    ++rank.stats().gets;
    rank.stats().bytes_from_host += msg.bytes;
  }
  stats_.fetch_mark(me, msg.panel, msg.slot, ready);
  apply_contribution(rank, msg.panel, msg.slot, z, ready, backward);
}

void SolveEngine::execute_contrib(pgas::Rank& rank, const Task& task,
                                  bool backward) {
  const double begin = rank.now();
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const idx_t panel = task.k;
  const BlockSlot slot = task.slot;
  const auto& sn = sym_->snode(panel);
  const auto& blk = sn.blocks[slot - 1];
  const idx_t s = blk.target;
  const int w = static_cast<int>(sn.width());
  const int m = static_cast<int>(blk.nrows);
  const idx_t bid = store_->block_id(panel, slot);
  const bool numeric = store_->numeric();

  // Forward: z = B y_panel (m x nrhs). Backward: z = B^T x_s|rows
  // (w x nrhs).
  const int out_rows = backward ? w : m;
  std::vector<double> z;
  if (numeric) z.resize(static_cast<std::size_t>(out_rows) * nrhs_);
  if (!backward) {
    offload_->run_gemm_any(rank, blas::Trans::kNo, m, nrhs_, w, 1.0,
                           store_->data(bid), m, task.operand, w, 0.0,
                           numeric ? z.data() : nullptr, m);
  } else {
    // Extract the rows of x_s this block touches.
    const auto& tgt = sym_->snode(s);
    std::vector<double> xsub;
    if (numeric) {
      xsub.resize(static_cast<std::size_t>(m) * nrhs_);
      for (int c = 0; c < nrhs_; ++c) {
        for (int r = 0; r < m; ++r) {
          const idx_t gr = sn.below[blk.row_off + r] - tgt.first;
          xsub[r + static_cast<std::size_t>(c) * m] =
              task.operand[gr + static_cast<std::size_t>(c) * tgt.width()];
        }
      }
    }
    offload_->run_gemm_any(rank, blas::Trans::kYes, w, nrhs_, m, 1.0,
                           store_->data(bid), m,
                           numeric ? xsub.data() : nullptr, m, 0.0,
                           numeric ? z.data() : nullptr, w);
  }
  ++pr.done_contrib;

  // Fan the partial sum in to the segment owner.
  const idx_t dest = backward ? panel : s;
  if (stats_.tracing()) {
    // b = the supernode whose solution segment this contribution
    // consumed; tgt = the segment it folds into (its Y/X diag task).
    stats_.task_span(rank.id(),
                     backward ? taskrt::TaskTag::kContribBwd
                              : taskrt::TaskTag::kContribFwd,
                     panel, slot, backward ? s : panel, begin, rank.now(),
                     dest, 0);
  }
  const int dest_owner = tg_->mapping()(dest, dest);
  if (dest_owner == me) {
    apply_contribution(rank, panel, slot, numeric ? z.data() : nullptr,
                       rank.now(), backward);
    return;
  }
  const std::size_t bytes =
      sizeof(double) * static_cast<std::size_t>(out_rows) * nrhs_;
  if (net_.eager(bytes)) {
    Msg m{Msg::Type::kContrib, 0, panel, slot, pgas::GlobalPtr{}, bytes,
          static_cast<std::uint32_t>(bytes), nullptr};
    if (numeric) {
      auto payload = pgas::shared_host_buffer(rank, bytes / sizeof(double));
      std::memcpy(payload.get(), z.data(), bytes);
      m.payload = std::move(payload);
    }
    net_.send(rank, dest_owner, std::move(m));
    return;
  }
  pgas::GlobalPtr buf{};
  if (numeric) {
    buf = rank.pool_allocate_host(bytes);
    std::memcpy(buf.addr, z.data(), bytes);
    pr.owned_buffers.push_back(buf);
  }
  net_.send(rank, dest_owner,
            Msg{Msg::Type::kContrib, 0, panel, slot, buf, bytes, 0, nullptr});
}

void SolveEngine::apply_contribution(pgas::Rank& rank, idx_t panel,
                                     BlockSlot slot, const double* z,
                                     double ready, bool backward) {
  const auto& sn = sym_->snode(panel);
  const auto& blk = sn.blocks[slot - 1];
  const idx_t dest = backward ? panel : blk.target;
  if (store_->numeric() && z != nullptr) {
    auto& seg = seg_[dest];
    if (!backward) {
      const auto& tgt = sym_->snode(dest);
      const int m = static_cast<int>(blk.nrows);
      for (int c = 0; c < nrhs_; ++c) {
        for (int r = 0; r < m; ++r) {
          const idx_t gr = sn.below[blk.row_off + r] - tgt.first;
          seg[gr + static_cast<std::size_t>(c) * tgt.width()] -=
              z[r + static_cast<std::size_t>(c) * m];
        }
      }
    } else {
      const int w = static_cast<int>(sn.width());
      for (int c = 0; c < nrhs_; ++c) {
        for (int r = 0; r < w; ++r) {
          seg[r + static_cast<std::size_t>(c) * w] -=
              z[r + static_cast<std::size_t>(c) * w];
        }
      }
    }
  }
  if (deps_.satisfy(dest, ready)) {
    push(rank.id(),
         Task{Task::Type::kDiag, dest, 0, nullptr,
              std::max(deps_.ready(dest), rank.now())},
         backward);
  }
}

}  // namespace sympack::core
