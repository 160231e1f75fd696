// Size-classed slab pool for shared-segment host buffers.
//
// The fan-out comm path allocates one host staging buffer per message
// (fan-in aggregate vectors, solve kX/kContrib payloads, eager inlined
// payloads) and frees it as soon as the consumer has absorbed it — a
// textbook allocate/deallocate churn pattern. The pool recycles those
// buffers through per-rank free lists bucketed by power-of-two size
// class, so steady-state traffic allocates nothing.
//
// Design constraints, in order:
//   * Peak-memory accounting stays exact: every slab is a real
//     Rank::allocate_host allocation registered with the Runtime, and a
//     cached (free-listed) slab stays registered — the pool is a cache
//     in front of the raw allocator, never a separate arena. Exhaustion
//     (oversize request, disabled pool) falls back to the raw allocator.
//   * Single-writer stats: only acquire() bumps pool_hits/pool_misses,
//     and only on the acquiring rank's own CommStats (acquire is called
//     from the thread driving that rank). release() may run on any
//     thread (shared_ptr deleters fire wherever the last reference
//     dies), so it touches no stats; the free lists themselves are
//     guarded by a per-rank shard mutex.
//   * No simulated-time charge: allocation is host-side bookkeeping in
//     the real solver too; the model has never charged for it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "pgas/global_ptr.hpp"

namespace sympack::pgas {

class Rank;

/// Pool knobs (Runtime::Config::pool; SYMPACK_POOL_* env overlay via
/// env_pool_config). The pool is on by default and serves per-message
/// buffers only (eager payloads, solve staging, fan-in aggregates) plus
/// buddy-checkpoint replicas; factor blocks are long-lived exact-size
/// allocate_host blocks and never pass through it. It changes no
/// simulated time and emits no trace events unless a hook is installed.
struct PoolConfig {
  bool enabled = true;
  /// Requests above this bypass the pool entirely (fan-in aggregates and
  /// solve panels can reach megabytes; caching those would pin too much
  /// memory).
  std::size_t max_block_bytes = 256u << 10;
  /// Per-rank cap on bytes parked in free lists; release() beyond the
  /// cap frees the slab for real instead of caching it.
  std::size_t max_cached_bytes = 32u << 20;
};

/// Overlay SYMPACK_POOL / SYMPACK_POOL_MAX_BLOCK / SYMPACK_POOL_MAX_CACHED
/// onto `base` (same pattern as env_fault_config).
PoolConfig env_pool_config(PoolConfig base);

class SlabPool {
 public:
  /// Called (when installed) with the rank id on every pool hit/miss so
  /// the solver can emit zero-width trace events without the pool
  /// depending on core::Tracer. Only installed when the eager/coalesced
  /// fast path is enabled — legacy-transport runs trace nothing.
  using EventHook = std::function<void(int rank, bool hit)>;

  void init(int nranks, const PoolConfig& cfg);

  /// Allocate `bytes` of host memory on `rank`, recycling a cached slab
  /// of the matching size class when one is free. Must be called from
  /// the thread driving `rank` (bumps its CommStats).
  GlobalPtr acquire(Rank& rank, std::size_t bytes);

  /// Return a buffer obtained from acquire(). Safe from any thread.
  /// Pointers the pool does not know (raw allocate_host results) are
  /// passed through to Rank::deallocate, so call sites can free
  /// uniformly.
  void release(Rank& rank, GlobalPtr ptr);

  /// Free every cached slab on `rank` (Runtime teardown, before the
  /// leak check).
  void drain(Rank& rank);

  [[nodiscard]] std::size_t cached_bytes(int rank) const;

  void set_event_hook(EventHook hook);

 private:
  struct Shard {
    mutable std::mutex mutex;
    // Free slabs per size class (index = log2(class size) - kMinShift).
    std::vector<std::vector<std::byte*>> free_lists;
    // Every live pool-owned slab's size class, so release() can route a
    // pointer back to its list (and distinguish pool slabs from raw
    // allocations).
    std::unordered_map<std::byte*, int> class_of;
    std::size_t cached_bytes = 0;
  };

  // Smallest class is 64 B: fan-in aggregate rows and solve RHS pieces
  // are a few doubles, and sub-cacheline classes would just fragment.
  static constexpr int kMinShift = 6;

  [[nodiscard]] int class_index(std::size_t bytes) const;
  [[nodiscard]] std::size_t class_bytes(int idx) const {
    return std::size_t{1} << (kMinShift + idx);
  }

  PoolConfig cfg_{};
  int num_classes_ = 0;
  // unique_ptr: Shard holds a mutex and must not move when the vector
  // is sized.
  std::vector<std::unique_ptr<Shard>> shards_;
  EventHook hook_;
  mutable std::mutex hook_mutex_;
};

/// A pool-backed host buffer of `count` doubles on `rank`, returned to
/// the pool when the last reference dies (from whichever thread that
/// happens on). This is the eager payload carrier: one producer-side
/// buffer is shared by every recipient's inlined copy of the signal.
std::shared_ptr<double> shared_host_buffer(Rank& rank, std::size_t count);

}  // namespace sympack::pgas
