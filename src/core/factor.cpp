#include "core/factor.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/solver.hpp"
#include "pgas/pool.hpp"

namespace sympack::core {

FactorEngine::FactorEngine(pgas::Runtime& rt, const symbolic::SymbolicView& sym,
                           const symbolic::TaskGraphView& tg, BlockStore& store,
                           Offload& offload, const SolverOptions& opts,
                           Tracer* tracer, RecoveryContext* rec)
    : rt_(&rt), sym_(&sym), tg_(&tg), store_(&store), offload_(&offload),
      opts_(opts), stats_(tracer, opts.trace.metadata), rec_(rec) {
  per_rank_.resize(rt.nranks());
  // Aggregated panels run the RTQ FIFO whatever the policy says (the
  // scheduling-policy ablation targets the push placement).
  const Policy policy =
      opts_.variant == Variant::kFanIn ? Policy::kFifo : opts_.policy;
  for (PerRank& pr : per_rank_) pr.rtq.set_policy(policy);
  net_.init(rt, opts_.fault, tracer, opts_.comm, opts_.resilience);
  // Supernodal elimination-tree depths for the critical-path policy.
  // The parent of a supernode holds its first below-row; parents have
  // larger indices, so a descending sweep resolves all depths.
  const idx_t ns = sym.num_snodes();
  snode_depth_.assign(ns, 0);
  for (idx_t k = ns - 1; k >= 0; --k) {
    const auto& below = sym.snode(k).below;
    if (!below.empty()) {
      snode_depth_[k] = snode_depth_[sym.snode_of(below.front())] + 1;
    }
  }
  if (policy == Policy::kBottomLevel) {
    snode_blevel_ = bottom_levels(sym, rt.model());
  }
  goal_factor_.resize(rt.nranks());
  goal_update_.resize(rt.nranks());
  for (int r = 0; r < rt.nranks(); ++r) {
    goal_factor_[r] = tg.owned_factor_tasks(r);
    goal_update_[r] = tg.owned_update_tasks(r);
  }

  // Dependency counts as if every update pushed: the updates landing in
  // the block, plus the panel's diagonal factor for an F block.
  deps_.init(store.num_blocks());
  for (idx_t k = 0; k < ns; ++k) {
    const idx_t nslots = 1 + static_cast<idx_t>(sym.snode(k).blocks.size());
    for (BlockSlot slot = 0; slot < nslots; ++slot) {
      const idx_t bid = store.block_id(k, slot);
      if (complete(bid)) {
        // Warm start: the block's factor task already ran in a previous
        // attempt (data restored from the buddy checkpoint) — no deps,
        // no task, one less goal for the owner.
        --goal_factor_[store.owner(bid)];
        continue;
      }
      deps_.set_count(bid, static_cast<int>(tg.update_count(k, slot)) +
                               (slot == 0 ? 0 : 1));
    }
  }
  // Re-place the updates that do not push. An update folding into a
  // complete block never re-runs: it leaves its rank's goal. An
  // aggregated update counts toward its producer's goal, and only the
  // producer's first aggregate into a block is a dependency of it.
  const auto& map = tg.mapping();
  for (idx_t j = 0; j < ns; ++j) {
    if (rec_ == nullptr && !aggregates(j)) continue;
    const auto& sn = sym.snode(j);
    const idx_t nbj = static_cast<idx_t>(sn.blocks.size());
    for (idx_t si = 1; si <= nbj; ++si) {
      const idx_t s = sn.blocks[si - 1].target;
      for (idx_t ti = 1; ti <= si; ++ti) {
        const int pusher = map(s, sn.blocks[ti - 1].target);
        const idx_t bid = update_target_bid(j, si, ti);
        if (complete(bid)) {
          --goal_update_[pusher];
          continue;
        }
        if (applied(j, si, ti)) {
          // Folded into a survivor's block before the death.
          --goal_update_[pusher];
          deps_.set_count(bid, deps_.count(bid) - 1);
          continue;
        }
        if (!aggregates(j)) continue;
        const int producer = map(s, j);
        --goal_update_[pusher];
        ++goal_update_[producer];
        const bool first = ++per_rank_[producer].aggs[bid].pending == 1;
        deps_.set_count(bid, deps_.count(bid) - 1 + (first ? 1 : 0));
      }
    }
  }
  // Seed the RTQ: diagonal blocks with no incoming dependencies.
  for (idx_t k = 0; k < ns; ++k) {
    const idx_t bid = store.block_id(k, 0);
    if (!complete(bid) && deps_.count(bid) == 0) {
      enqueue(per_rank_[store.owner(bid)],
              Task{TaskType::kDiag, k, 0, 0, 0, 0.0});
    }
  }
}

FactorEngine::~FactorEngine() {
  // An abnormal unwind (rank death mid-phase) can leave fetched blocks
  // parked in the use caches; return their device allocations so the
  // next attempt starts with the full segment. Sent aggregates' staging
  // buffers are consumed by their receivers before those report done;
  // return them (pool-allocated) on every exit.
  for (int r = 0; r < static_cast<int>(per_rank_.size()); ++r) {
    pgas::Rank& rank = rt_->rank(r);
    per_rank_[r].cache.for_each([&rank](sparse::idx_t, RemoteFactor& rf) {
      if (!rf.device.is_null()) rank.deallocate(rf.device);
    });
    per_rank_[r].cache.clear();
    for (auto& g : per_rank_[r].out_buffers) rank.pool_deallocate(g);
    per_rank_[r].out_buffers.clear();
  }
}

int FactorEngine::runs_on(idx_t j, idx_t si, idx_t ti) const {
  const auto& sn = sym_->snode(j);
  const idx_t s = sn.blocks[si - 1].target;
  return tg_->mapping()(s, aggregates(j) ? j : sn.blocks[ti - 1].target);
}

idx_t FactorEngine::update_target_bid(idx_t k, idx_t si, idx_t ti) const {
  const auto& sn = sym_->snode(k);
  const idx_t t = sn.blocks[ti - 1].target;
  if (si == ti) return store_->block_id(t, 0);
  const idx_t s = sn.blocks[si - 1].target;
  return store_->block_id(t, sym_->find_block(t, s) + 1);
}

bool FactorEngine::update_needed(idx_t k, idx_t si, idx_t ti) const {
  return rec_ == nullptr ||
         (!complete(update_target_bid(k, si, ti)) && !applied(k, si, ti));
}

void FactorEngine::run() {
  if (rec_ != nullptr) publish_restored();
  rt_->drive([this](pgas::Rank& rank) { return step(rank); },
             /*stall_limit=*/10000, opts_.interleave_seed);
}

void FactorEngine::publish_restored() {
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    const idx_t nslots = 1 + static_cast<idx_t>(sym_->snode(k).blocks.size());
    for (BlockSlot slot = 0; slot < nslots; ++slot) {
      const idx_t bid = store_->block_id(k, slot);
      if (complete(bid)) share(rt_->rank(store_->owner(bid)), k, slot);
    }
  }
}

pgas::Step FactorEngine::step(pgas::Rank& rank) {
  PerRank& pr = per_rank_[rank.id()];
  int worked = rank.progress(pr.rtq.empty() ? pgas::Rank::kIdle
                                            : pr.rtq.next_ready());
  // A killed rank stops participating: it holds no runnable state (die()
  // dropped its inbox) and must not touch the protocol again until the
  // recovery loop resurrects it.
  if (net_.recovery() && !rank.alive()) return pgas::Step::kIdle;

  const std::vector<Signal> sigs = net_.drain(rank.id());
  for (const Signal& sig : sigs) handle_signal(rank, sig);
  worked += static_cast<int>(sigs.size());

  const bool progressed = !sigs.empty() || !pr.rtq.empty();
  if (!pr.rtq.empty()) {
    execute(rank, pr.rtq.pop());
    ++worked;
  }

  if (worked > 0) {
    net_.on_worked(rank.id(), progressed);
    return pgas::Step::kWorked;
  }

  // Out of local work: push any coalescing outbox onto the wire now
  // rather than waiting out the age window (latency bound; also
  // guarantees nothing is parked when this rank declares itself done).
  if (rank.flush_signals() > 0) {
    net_.on_worked(rank.id(), /*progressed=*/false);
    return pgas::Step::kWorked;
  }

  const int me = rank.id();
  const bool done = pr.done_factor == goal_factor_[me] &&
                    pr.done_update == goal_update_[me] &&
                    pr.rtq.empty() && !net_.has_pending(me) &&
                    !rank.has_pending_rpcs();
  if (done) return pgas::Step::kDone;
  net_.on_idle(rank);
  return pgas::Step::kIdle;
}

int FactorEngine::local_uses(int rank, idx_t k, BlockSlot slot) const {
  const auto& sn = sym_->snode(k);
  const auto& map = tg_->mapping();
  const idx_t nb = static_cast<idx_t>(sn.blocks.size());
  int uses = 0;
  if (slot == 0) {
    for (idx_t fs = 1; fs <= nb; ++fs) {
      if (map(sn.blocks[fs - 1].target, k) != rank) continue;
      if (complete(store_->block_id(k, fs))) {
        continue;  // that F task already ran in a previous attempt
      }
      ++uses;
    }
    return uses;
  }
  const idx_t si = slot;
  for (idx_t ti = 1; ti <= si; ++ti) {
    if (runs_on(k, si, ti) == rank && update_needed(k, si, ti)) ++uses;
  }
  for (idx_t si2 = si + 1; si2 <= nb; ++si2) {
    if (runs_on(k, si2, si) == rank && update_needed(k, si2, si)) ++uses;
  }
  return uses;
}

const std::vector<int>& FactorEngine::recipients(int owner, idx_t k,
                                                 BlockSlot slot,
                                                 std::vector<int>& out) const {
  if (aggregates(k) && slot > 0) {
    // An aggregated block is the source operand only of its owner's own
    // updates; remotely it is the pivot of U_{s',k,s} (s' > s), which run
    // on the owners of the other blocks of its panel column.
    const idx_t nb = static_cast<idx_t>(sym_->snode(k).blocks.size());
    for (idx_t si2 = slot + 1; si2 <= nb; ++si2) {
      const int r = runs_on(k, si2, slot);
      if (r != owner && update_needed(k, si2, slot)) out.push_back(r);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  // The task graph's precomputed P_F/P_D sets. On a recovery attempt, a
  // rank whose uses were all cut out with the completed sub-DAG is
  // skipped.
  const std::vector<int>& all = tg_->recipients(k, slot);
  if (rec_ == nullptr) return all;
  for (int r : all) {
    if (local_uses(r, k, slot) > 0) out.push_back(r);
  }
  return out;
}

double FactorEngine::charged_get(pgas::Rank& rank, std::size_t bytes,
                                 int from, bool to_device) {
  const double ready = rank.transfer_completion(
      bytes, from, pgas::MemKind::kHost,
      to_device ? pgas::MemKind::kDevice : pgas::MemKind::kHost);
  rank.advance(rt_->model().rma_issue_s);
  ++rank.stats().gets;
  rank.stats().bytes_from_host += bytes;
  if (to_device) rank.stats().bytes_to_device += bytes;
  return ready;
}

void FactorEngine::handle_signal(pgas::Rank& rank, const Signal& sig) {
  if (sig.kind == Signal::Kind::kAggregate) {
    // Producer sig.from owes target block (k, slot) nothing more. Eager:
    // the aggregate arrived inline (the Rank layer already charged the
    // wire bytes and arrival). Rendezvous: read it from the producer's
    // staging buffer. Link-level dedup has already filtered duplicates.
    if (sig.eager_bytes > 0) {
      apply_aggregate(rank, sig.k, sig.slot,
                      sig.payload ? sig.payload.get() : nullptr, rank.now());
      return;
    }
    const std::size_t bytes = store_->bytes(store_->block_id(sig.k, sig.slot));
    const double ready = charged_get(rank, bytes, sig.from, false);
    rank.merge_clock(std::max(sig.sent, rank.now()));
    apply_aggregate(rank, sig.k, sig.slot, sig.data, ready);
    return;
  }
  // A signal dereferences the source panel's metadata on the consumer;
  // under a sharded view a non-resident panel costs one metadata pull
  // here (then caches).
  tg_->touch(rank, sig.k);
  const int me = rank.id();
  const int uses = local_uses(me, sig.k, sig.slot);
  if (uses == 0) return;  // defensive; senders target consumers only

  const idx_t bid = store_->block_id(sig.k, sig.slot);
  const std::size_t bytes = store_->bytes(bid);
  const auto elems =
      static_cast<std::int64_t>(store_->nrows(bid)) * store_->ncols(bid);

  if (sig.eager_bytes > 0) {
    // Eager delivery: the block arrived inline with the signal (the
    // Rank layer already charged the wire bytes and arrival time), so
    // there is no pull rget and no device residency — eager targets the
    // latency-bound small blocks below the rendezvous threshold.
    RemoteFactor rf;
    rf.eager = sig.payload;
    rf.ref = FactorRef{sig.payload ? sig.payload.get() : nullptr, rank.now(),
                       false, bid};
    auto [entry, inserted] =
        per_rank_[me].cache.insert(bid, std::move(rf), uses);
    if (!inserted) return;  // duplicate signal: keep the original
    stage(per_rank_[me], bytes);
    stats_.fetch_mark(me, sig.k, sig.slot, entry->ref.ready);
    deliver(rank, sig.k, sig.slot, entry->ref);
    return;
  }

  // Pivots of aggregated updates stay in host memory.
  RemoteFactor rf;
  bool on_device = !aggregates(sig.k) && offload_->device_resident(elems);
  double ready;
  if (store_->numeric()) {
    const double* data = nullptr;
    if (on_device) {
      // "GPU block": fetch straight into device memory, skipping the
      // host staging hop (paper §4.2). Falls back to a host buffer when
      // the device segment is full.
      rf.device = rank.allocate_device(bytes, /*nothrow=*/true);
      if (rf.device.is_null()) {
        on_device = false;
        // Device share exhausted (or denied by the injector): take the
        // host staging path instead. Counted either way; traced only
        // under fault injection so fault-free traces stay byte-identical.
        ++rank.stats().oom_fallbacks;
        if (net_.recovery()) {
          stats_.mark(me, taskrt::kTrace_oom_fallbacks, rank.now());
        }
      }
    }
    if (on_device) {
      ready = net_.with_retry(rank, [&] {
        return rank.rget(store_->gptr(bid), rf.device.addr, bytes,
                         pgas::MemKind::kDevice);
      });
      data = rf.device.local<double>();
    } else {
      rf.host.resize(static_cast<std::size_t>(elems));
      ready = net_.with_retry(rank, [&] {
        return rank.rget(store_->gptr(bid),
                         reinterpret_cast<std::byte*>(rf.host.data()), bytes,
                         pgas::MemKind::kHost);
      });
      data = rf.host.data();
    }
    rf.ref = FactorRef{data, ready, on_device, bid};
  } else {
    // Protocol-only mode: no buffers move, but the transfer is charged
    // and counted identically.
    ready = charged_get(rank, bytes, store_->owner(bid), on_device);
    rf.ref = FactorRef{nullptr, ready, on_device, bid};
  }

  // Duplicate signals are deduplicated at the sender (recipients() is
  // sorted/unique), but a protocol bug must not silently shrink the
  // shared device segment: UseCache::insert keeps the original entry, so
  // free the copy we just fetched instead of leaking the device
  // allocation and re-delivering.
  const pgas::GlobalPtr fetched_device = rf.device;
  auto [entry, inserted] = per_rank_[me].cache.insert(bid, std::move(rf), uses);
  if (!inserted) {
    if (!fetched_device.is_null()) rank.deallocate(fetched_device);
    return;
  }
  stage(per_rank_[me], bytes);
  stats_.fetch_mark(me, sig.k, sig.slot, ready);
  deliver(rank, sig.k, sig.slot, entry->ref);
}

void FactorEngine::deliver(pgas::Rank& rank, idx_t k, BlockSlot slot,
                           const FactorRef& ref) {
  const int me = rank.id();
  PerRank& pr = per_rank_[me];
  const auto& sn = sym_->snode(k);
  const auto& map = tg_->mapping();
  const idx_t nb = static_cast<idx_t>(sn.blocks.size());

  if (slot == 0) {
    // Diagonal factor L_{k,k}: enables the panel's F tasks owned here.
    pr.diag_ref[k] = ref;
    for (idx_t fs = 1; fs <= nb; ++fs) {
      if (map(sn.blocks[fs - 1].target, k) != me) continue;
      const idx_t bid = store_->block_id(k, fs);
      if (complete(bid)) continue;
      if (deps_.satisfy(bid, ref.ready)) {
        enqueue(pr, Task{TaskType::kFactor, k, fs, 0, 0, deps_.ready(bid)});
      }
    }
    return;
  }

  const idx_t si = slot;
  // As the source operand of U_{s,k,t}, t <= s (includes the SYRK task
  // at ti == si, which has a single operand).
  for (idx_t ti = 1; ti <= si; ++ti) {
    if (runs_on(k, si, ti) == me && update_needed(k, si, ti)) {
      satisfy_update(rank, k, si, ti, ref, /*as_source=*/true);
    }
  }
  // As the pivot operand of U_{s',k,s}, s' > s (strictly, so the SYRK
  // task is not double-counted).
  for (idx_t si2 = si + 1; si2 <= nb; ++si2) {
    if (runs_on(k, si2, si) == me && update_needed(k, si2, si)) {
      satisfy_update(rank, k, si2, si, ref, /*as_source=*/false);
    }
  }
}

void FactorEngine::satisfy_update(pgas::Rank& rank, idx_t j, idx_t si,
                                  idx_t ti, const FactorRef& ref,
                                  bool as_source) {
  PerRank& pr = per_rank_[rank.id()];
  const std::uint64_t key = ukey(j, si, ti);
  auto [it, inserted] = pr.pending_updates.try_emplace(key);
  UpdateState& st = it->second;
  if (inserted) st.remaining = (si == ti) ? 1 : 2;
  if (as_source) {
    st.src = ref;
    if (si == ti) st.piv = ref;  // SYRK: one block plays both roles
  } else {
    st.piv = ref;
  }
  if (--st.remaining == 0) {
    const double ready = std::max(st.src.ready, st.piv.ready);
    enqueue(pr, Task{TaskType::kUpdate, j, 0, si, ti, ready});
  }
}

void FactorEngine::publish(pgas::Rank& rank, idx_t k, BlockSlot slot) {
  ++per_rank_[rank.id()].done_factor;
  if (rec_ != nullptr) {
    // Resilience: the finished panel is now part of the completed
    // sub-DAG (a later attempt will not re-run it) and its bytes are
    // replicated to the buddy before any consumer depends on them.
    const idx_t bid = store_->block_id(k, slot);
    rec_->complete[bid] = 1;
    if (rec_->ckpt != nullptr) {
      net_.with_retry(rank, [&] {
        rec_->ckpt->save(rank, bid);
        return rank.now();
      });
    }
  }
  share(rank, k, slot);
}

void FactorEngine::share(pgas::Rank& rank, idx_t k, BlockSlot slot) {
  const idx_t bid = store_->block_id(k, slot);
  // Local consumers are satisfied directly (no message, data in place).
  if (local_uses(rank.id(), k, slot) > 0) {
    deliver(rank, k, slot,
            FactorRef{store_->data(bid), rank.now(), false, -1});
  }
  // Remote consumers get a signal RPC (Fig. 4 step 1); they will pull
  // the block with a one-sided get when they next poll — unless the
  // block is small enough for the eager protocol, in which case the
  // data rides inside the signal and the pull round trip is skipped.
  std::vector<int> scratch;
  const std::vector<int>& to = recipients(rank.id(), k, slot, scratch);
  if (to.empty()) return;
  Signal sig{k, slot, 0, nullptr};
  inline_payload(rank, sig, store_->data(bid), store_->bytes(bid));
  for (int r : to) net_.send(rank, r, sig);
}

bool FactorEngine::inline_payload(pgas::Rank& rank, Signal& sig,
                                  const double* src, std::size_t bytes) {
  if (!net_.eager(bytes)) return false;
  sig.eager_bytes = static_cast<std::uint32_t>(bytes);
  if (store_->numeric()) {
    // One pooled buffer serves every recipient (the signal copies share
    // it); it returns to the pool when the last consumer's uses drain.
    auto buf = pgas::shared_host_buffer(rank, bytes / sizeof(double));
    std::memcpy(buf.get(), src, bytes);
    sig.payload = std::move(buf);
  }
  return true;
}

void FactorEngine::execute(pgas::Rank& rank, const Task& task) {
  rank.merge_clock(task.ready);
  const double begin = rank.now();
  switch (task.type) {
    case TaskType::kDiag: execute_diag(rank, task); break;
    case TaskType::kFactor: execute_factor(rank, task); break;
    case TaskType::kUpdate: execute_update(rank, task); break;
  }
  if (stats_.tracing()) {
    switch (task.type) {
      case TaskType::kDiag:
        stats_.task_span(rank.id(), taskrt::TaskTag::kDiag, task.k, 0, 0,
                         begin, rank.now());
        break;
      case TaskType::kFactor:
        stats_.task_span(rank.id(), taskrt::TaskTag::kFactor, task.k,
                         task.slot, 0, begin, rank.now());
        break;
      case TaskType::kUpdate: {
        // Dependency-edge hint for the analyzer (metadata builds only):
        // the block this update folded into — (t, 0) for the SYRK task,
        // (t, slot of row-block s) for GEMM — names the D/F task it
        // helps unlock.
        idx_t tgt = -1, tgt_slot = -1;
        if (stats_.metadata()) {
          const auto& sn = sym_->snode(task.k);
          const idx_t s = sn.blocks[task.si - 1].target;
          const idx_t t = sn.blocks[task.ti - 1].target;
          tgt = t;
          tgt_slot = (task.si == task.ti) ? 0 : sym_->find_block(t, s) + 1;
        }
        stats_.task_span(rank.id(), taskrt::TaskTag::kUpdate, task.k, task.si,
                         task.ti, begin, rank.now(), tgt, tgt_slot);
        break;
      }
    }
  }
}

void FactorEngine::execute_diag(pgas::Rank& rank, const Task& task) {
  const auto& sn = sym_->snode(task.k);
  const int w = static_cast<int>(sn.width());
  const idx_t bid = store_->block_id(task.k, 0);
  const int info = offload_->run_potrf(rank, w, store_->data(bid), w);
  if (info != 0) throw NotPositiveDefiniteError(sn.first + info - 1);
  publish(rank, task.k, 0);
}

void FactorEngine::execute_factor(pgas::Rank& rank, const Task& task) {
  PerRank& pr = per_rank_[rank.id()];
  const auto& sn = sym_->snode(task.k);
  const int w = static_cast<int>(sn.width());
  const idx_t bid = store_->block_id(task.k, task.slot);
  const int m = static_cast<int>(store_->nrows(bid));

  const auto diag_it = pr.diag_ref.find(task.k);
  if (diag_it == pr.diag_ref.end()) {
    throw std::logic_error("FactorEngine: F task ran before its diagonal");
  }
  const FactorRef diag = diag_it->second;  // copy: publish may rehash
  offload_->run_trsm(rank, m, w, diag.data, w, store_->data(bid), m,
                     diag.on_device);
  publish(rank, task.k, task.slot);
  // Each F task accounts for one use of the (possibly remote, possibly
  // device-resident) diagonal factor; the cache entry is freed with the
  // last one.
  release_ref(rank, diag);
}

void FactorEngine::execute_update(pgas::Rank& rank, const Task& task) {
  PerRank& pr = per_rank_[rank.id()];
  const idx_t j = task.k;
  const auto& sn = sym_->snode(j);
  const int w = static_cast<int>(sn.width());

  const auto it = pr.pending_updates.find(ukey(j, task.si, task.ti));
  if (it == pr.pending_updates.end()) {
    throw std::logic_error("FactorEngine: update task without state");
  }
  const UpdateState st = it->second;
  pr.pending_updates.erase(it);

  const auto& sblk = sn.blocks[task.si - 1];
  const auto& tblk = sn.blocks[task.ti - 1];
  const idx_t s = sblk.target;
  const idx_t t = tblk.target;
  const int m = static_cast<int>(sblk.nrows);
  const int np = static_cast<int>(tblk.nrows);
  const auto& tgt_sn = sym_->snode(t);
  const bool numeric = store_->numeric();
  // SYRK updates the diagonal block of supernode t, GEMM block B_{s,t}.
  const BlockSlot tslot = (s == t) ? 0 : sym_->find_block(t, s) + 1;
  const idx_t tbid = store_->block_id(t, tslot);
  const idx_t ld = store_->nrows(tbid);
  // A pushed update folds into the target block (this rank owns it); an
  // aggregated one into this rank's aggregate buffer for the block.
  Aggregate* agg = aggregates(j) ? &pr.aggs.at(tbid) : nullptr;
  double* target = nullptr;
  if (numeric && agg == nullptr) {
    target = store_->data(tbid);
  } else if (numeric) {
    if (agg->buf.empty()) {
      agg->buf.assign(store_->bytes(tbid) / sizeof(double), 0.0);
    }
    target = agg->buf.data();
  }

  if (s == t) {
    if (numeric) {
      std::vector<double> scratch(static_cast<std::size_t>(m) * m, 0.0);
      offload_->run_syrk(rank, m, w, st.src.data, m, scratch.data(), m,
                         st.src.on_device);
      // Scatter-add (scratch holds -L L^T on its lower triangle).
      for (int c = 0; c < m; ++c) {
        const idx_t gc = sn.below[sblk.row_off + c] - tgt_sn.first;
        for (int r = c; r < m; ++r) {
          const idx_t gr = sn.below[sblk.row_off + r] - tgt_sn.first;
          target[gr + gc * ld] += scratch[r + static_cast<std::size_t>(c) * m];
        }
      }
    } else {
      offload_->run_syrk(rank, m, w, nullptr, m, nullptr, m,
                         st.src.on_device);
    }
    offload_->charge_scatter(rank,
                             sizeof(double) * static_cast<std::size_t>(m) * m);
  } else {
    if (numeric) {
      std::vector<double> scratch(static_cast<std::size_t>(m) * np);
      offload_->run_gemm(rank, m, np, w, st.src.data, m, st.piv.data, np,
                         scratch.data(), m, st.src.on_device,
                         st.piv.on_device);
      for (int c = 0; c < np; ++c) {
        const idx_t gc = sn.below[tblk.row_off + c] - tgt_sn.first;
        for (int r = 0; r < m; ++r) {
          const idx_t gr =
              store_->row_offset_in_block(t, tslot, sn.below[sblk.row_off + r]);
          target[gr + gc * ld] -= scratch[r + static_cast<std::size_t>(c) * m];
        }
      }
    } else {
      offload_->run_gemm(rank, m, np, w, nullptr, m, nullptr, np, nullptr, m,
                         st.src.on_device, st.piv.on_device);
    }
    offload_->charge_scatter(
        rank, sizeof(double) * static_cast<std::size_t>(m) * np);
  }

  ++pr.done_update;
  release_ref(rank, st.src);
  if (task.si != task.ti) release_ref(rank, st.piv);
  if (agg == nullptr) {
    if (rec_ != nullptr) {
      rec_->applied[rec_->update_index(j, task.si, task.ti)] = 1;
    }
    complete_target_update(rank, t, tslot, rank.now());
  } else if (--agg->pending == 0) {
    flush_aggregate(rank, t, tslot, *agg);
    // Inlined, staged or applied: the buffer has served its purpose.
    pr.aggs.erase(tbid);
  }
}

void FactorEngine::flush_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot,
                                   const Aggregate& agg) {
  const int me = rank.id();
  const idx_t bid = store_->block_id(t, slot);
  const int owner = store_->owner(bid);
  const double* buf = agg.buf.empty() ? nullptr : agg.buf.data();
  if (owner == me) {
    apply_aggregate(rank, t, slot, buf, rank.now());
    return;
  }
  // Send the aggregate (one message carrying the whole block
  // contribution, §2.3's second message type). Small aggregates go eager
  // — inlined into the signal, no staging buffer and no pull on the
  // receiver; larger ones are staged in a pool-backed buffer of this
  // rank's segment for the owner to read.
  const std::size_t bytes = store_->bytes(bid);
  Signal sig{t, slot, 0, nullptr, Signal::Kind::kAggregate, me};
  if (!inline_payload(rank, sig, buf, bytes) && store_->numeric()) {
    auto g = rank.pool_allocate_host(bytes);
    std::memcpy(g.addr, buf, bytes);
    per_rank_[me].out_buffers.push_back(g);
    sig.data = g.local<double>();
  }
  sig.sent = rank.now();
  net_.send(rank, owner, sig);
}

void FactorEngine::apply_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot,
                                   const double* buf, double ready) {
  const idx_t bid = store_->block_id(t, slot);
  if (store_->numeric() && buf != nullptr) {
    // The aggregate buffer holds the (negative) update sum to be added.
    double* target = store_->data(bid);
    const std::size_t elems = store_->bytes(bid) / sizeof(double);
    for (std::size_t i = 0; i < elems; ++i) target[i] += buf[i];
  }
  offload_->charge_scatter(rank, store_->bytes(bid));
  complete_target_update(rank, t, slot, std::max(ready, rank.now()));
}

void FactorEngine::complete_target_update(pgas::Rank& rank, idx_t t,
                                          BlockSlot slot, double ready) {
  const idx_t bid = store_->block_id(t, slot);
  if (deps_.satisfy(bid, ready)) {
    enqueue(per_rank_[rank.id()],
            Task{slot == 0 ? TaskType::kDiag : TaskType::kFactor, t, slot,
                 0, 0, deps_.ready(bid)});
  }
}

void FactorEngine::stage(PerRank& pr, std::size_t bytes) {
  pr.staged_bytes += bytes;
  pr.staged_peak = std::max(pr.staged_peak, pr.staged_bytes);
}

void FactorEngine::release_ref(pgas::Rank& rank, const FactorRef& ref) {
  if (ref.cache_bid < 0) return;
  PerRank& pr = per_rank_[rank.id()];
  pr.cache.release(ref.cache_bid, [&](RemoteFactor& rf) {
    if (!rf.device.is_null()) rank.deallocate(rf.device);
    pr.staged_bytes -= store_->bytes(ref.cache_bid);
  });
}

std::vector<double> FactorEngine::bottom_levels(
    const symbolic::SymbolicView& sym, const pgas::MachineModel& model) {
  // One level of the tree also costs one signal: the panel's factor
  // reaches its consumers by RPC and a pull.
  const double level_s = model.rpc_overhead_s + model.net_latency_s;
  // Parents have larger indices (see the depth sweep in the constructor).
  const idx_t ns = sym.num_snodes();
  std::vector<double> blevel(static_cast<std::size_t>(ns), 0.0);
  for (idx_t k = ns - 1; k >= 0; --k) {
    const auto& sn = sym.snode(k);
    const double w = static_cast<double>(sn.width());
    const double r = static_cast<double>(sn.nrows_below());
    blevel[k] = w * w * w / 3.0 / (model.cpu_potrf_Gflops * 1e9) +
                r * w * w / (model.cpu_trsm_Gflops * 1e9) + level_s;
    if (!sn.below.empty()) blevel[k] += blevel[sym.snode_of(sn.below.front())];
  }
  return blevel;
}

std::int64_t FactorEngine::bottom_level_priority(double blevel_s,
                                                 bool panel_task) {
  // Whole picoseconds; clamped below the panel-task offset, so no
  // update outranks a panel task.
  constexpr std::int64_t kPanelTask = std::int64_t{1} << 62;
  const auto level = static_cast<std::int64_t>(
      std::min(blevel_s * 1e12, static_cast<double>(kPanelTask / 2)));
  return panel_task ? kPanelTask + level : level;
}

std::uint64_t FactorEngine::peak_staged_bytes() const {
  std::uint64_t total = 0;
  for (const PerRank& pr : per_rank_) total += pr.staged_peak;
  return total;
}

idx_t FactorEngine::task_depth(const Task& task) const {
  if (task.type != TaskType::kUpdate) return snode_depth_[task.k];
  const auto& sn = sym_->snode(task.k);
  return snode_depth_[sn.blocks[task.ti - 1].target];
}

void FactorEngine::enqueue(PerRank& pr, const Task& task) {
  // kPriority: lowest supernode first (drains the bottom of the
  // elimination tree, which feeds the critical path). kCriticalPath:
  // deepest target supernode first (the task whose result feeds the
  // longest remaining elimination-tree chain). kBottomLevel: panel
  // tasks first, an update by its source panel j (task.k), so the
  // updates reading one fetched copy of j's blocks run back to back and
  // the copy is freed sooner. The queue itself only orders by this
  // number (core/taskrt/ready_queue.hpp).
  std::int64_t prio = 0;
  if (pr.rtq.policy() == Policy::kPriority) {
    prio = -static_cast<std::int64_t>(task.k);
  } else if (pr.rtq.policy() == Policy::kCriticalPath) {
    prio = static_cast<std::int64_t>(task_depth(task));
  } else if (pr.rtq.policy() == Policy::kBottomLevel) {
    prio = bottom_level_priority(snode_blevel_[task.k],
                                 task.type != TaskType::kUpdate);
  }
  pr.rtq.push(task, prio);
}

}  // namespace sympack::core
