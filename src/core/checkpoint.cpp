#include "core/checkpoint.hpp"

#include <cstddef>

#include "core/taskrt/stats.hpp"
#include "core/trace.hpp"

namespace sympack::core {

CheckpointStore::CheckpointStore(pgas::Runtime& rt, BlockStore& store,
                                 int replicas, Tracer* tracer)
    : rt_(&rt),
      store_(&store),
      replicas_(replicas),
      tracer_(tracer),
      saved_(static_cast<std::size_t>(store.num_blocks()), 0),
      copies_(static_cast<std::size_t>(store.num_blocks())),
      holder_(static_cast<std::size_t>(store.num_blocks()), -1) {}

CheckpointStore::~CheckpointStore() {
  for (idx_t bid = 0; bid < store_->num_blocks(); ++bid) {
    if (!copies_[bid].is_null()) {
      rt_->rank(holder_[bid]).deallocate(copies_[bid]);
    }
  }
}

void CheckpointStore::save(pgas::Rank& rank, idx_t bid) {
  if (replicas_ <= 0) return;
  const std::size_t nbytes = store_->bytes(bid);
  if (holder_[bid] != buddy(bid)) {
    // First save, or the block changed owner in a hand-over: the
    // replica belongs on the current owner's buddy.
    if (!copies_[bid].is_null()) {
      rt_->rank(holder_[bid]).deallocate(copies_[bid]);
      copies_[bid] = pgas::GlobalPtr{};
    }
    holder_[bid] = buddy(bid);
  }
  if (store_->numeric()) {
    if (copies_[bid].is_null()) {
      // Replica lives in the buddy's shared segment. A plain allocation,
      // not the slab pool: save() runs on the owner's thread, and a pool
      // acquire bumps the acquiring rank's own counters, which only the
      // buddy's thread may write.
      copies_[bid] = rt_->rank(holder_[bid]).allocate_host(nbytes);
    }
    rank.copy(store_->gptr(bid), copies_[bid], nbytes);
  } else {
    // Protocol-only run: no buffers exist, but the wire cost of the
    // replication is still charged so schedule-level studies (and the
    // recovery overhead gate) see the checkpoint traffic.
    rank.transfer_completion(nbytes, holder_[bid], pgas::MemKind::kHost,
                             pgas::MemKind::kHost);
    rank.advance(rt_->model().rma_issue_s);
    ++rank.stats().puts;
    rank.stats().bytes_from_host += nbytes;
  }
  saved_[bid] = 1;
  ++rank.stats().ckpt_saves;
  if (tracer_ != nullptr) {
    tracer_->record(rank.id(), taskrt::kTrace_ckpt_saves, rank.now(),
                    rank.now());
  }
}

void CheckpointStore::restore(pgas::Rank& rank, idx_t bid) {
  const std::size_t nbytes = store_->bytes(bid);
  if (store_->numeric()) {
    rank.rget(copies_[bid], reinterpret_cast<std::byte*>(store_->data(bid)),
              nbytes, pgas::MemKind::kHost);
  } else {
    rank.transfer_completion(nbytes, holder_[bid], pgas::MemKind::kHost,
                             pgas::MemKind::kHost);
    rank.advance(rt_->model().rma_issue_s);
    ++rank.stats().gets;
    rank.stats().bytes_from_host += nbytes;
  }
  ++rank.stats().ckpt_restores;
  if (tracer_ != nullptr) {
    tracer_->record(rank.id(), taskrt::kTrace_ckpt_restores, rank.now(),
                    rank.now());
  }
}

void CheckpointStore::reset() {
  saved_.assign(saved_.size(), 0);
  // Replica buffers are kept: refactorize reuses them (same geometry).
}

}  // namespace sympack::core
