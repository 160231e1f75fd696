// The numeric factorization engine (paper §3.2-§3.4, Figures 3-4), with
// both placements of the update task from Ashcraft's taxonomy (§2.3).
//
// Every rank runs the same loop (one call = one "step"):
//   1. progress(): execute incoming signal RPCs, which append to the
//      local notification list (Fig. 4 steps 1/3/4);
//   2. poll: for each notification, issue a one-sided rget of the factor
//      block (into host memory, or directly into device memory for "GPU
//      blocks") and decrement the dependency counters of the local tasks
//      waiting on it (steps 5/6);
//   3. pick one task from the ready-task queue (RTQ) per the scheduling
//      policy and execute it.
// Task completion publishes the produced factor block: dependent local
// tasks are satisfied immediately and remote consumer ranks receive a
// signal RPC. A rank is done when all of its statically assigned tasks
// (its LTQ) have executed.
//
// Fan-out and fan-in differ only in where U_{s,j,t} runs. The engine
// makes that decision once per source panel j (aggregates()):
//   push       U runs on the owner of the target block B_{s,t} and folds
//              into it directly (fan-out, the paper's choice); factor
//              blocks are broadcast to every rank updating with them.
//   aggregate  U runs on the owner of the source block L_{s,j} and folds
//              into that rank's aggregate buffer for B_{s,t}; the buffer
//              is sent once, when the producer owes the block nothing
//              more (§2.3's second message type). Factor blocks then
//              travel only down their own panel column.
// A target block's dependency count is its number of pushed updates,
// plus its number of distinct aggregating producers, plus the diagonal
// for an F block. Aggregated panels differ from pushed ones in three
// ways the fan-in golden schedules pin: the RTQ runs FIFO whatever the
// policy, fetched pivots stay in host memory, and aggregate signals do
// not touch a sharded view (they land on the target's owner, which
// always holds the panel).
//
// The engine owns only the *algorithm*: which tasks exist, what unlocks
// them, and what executing one does. The task-runtime substrate —
// policy-driven ready queue, dependency counters, signal transport with
// the full recovery protocol, use-counted fetch cache, tracer hook —
// lives in core/taskrt/ and is shared with the solve engine.
//
// Thread-safety (audited; see DESIGN.md "Threading memory model" and
// §4d): the engine holds no locks because every mutable member is
// single-writer. per_rank_[r] (RTQ, caches, aggregate buffers, counters)
// and the endpoint's slot r are touched only by the thread driving rank
// r — signal RPCs mutate the *target's* slot, but RPC bodies execute
// inside the target's progress(), i.e. on the target's own thread.
// deps_[bid] is touched only by the thread driving owner(bid): a pushed
// update runs on the block's owner, and an aggregate is accumulated at
// its producer but applied by the owner (apply_aggregate, after the
// aggregate signal). Reads of published data after a signal are ordered
// by the inbox-mutex release/acquire pair in Rank::rpc/progress.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/block_store.hpp"
#include "core/checkpoint.hpp"
#include "core/offload.hpp"
#include "core/options.hpp"
#include "core/taskrt/dep_tracker.hpp"
#include "core/taskrt/endpoint.hpp"
#include "core/taskrt/ready_queue.hpp"
#include "core/taskrt/stats.hpp"
#include "core/taskrt/use_cache.hpp"
#include "core/trace.hpp"
#include "pgas/runtime.hpp"
#include "symbolic/view.hpp"

namespace sympack::core {

class FactorEngine {
 public:
  /// `rec` (may be null) is the resilience hand-off: when set, every
  /// published block is marked complete + checkpointed to its buddy, and
  /// — on a recovery attempt, when rec->complete already has entries —
  /// the completed sub-DAG is cut out: those blocks' tasks never re-run,
  /// their data (restored by the solver) is re-published to the
  /// still-pending consumers from run()'s prologue, and the per-rank
  /// termination goals and aggregate counts shrink accordingly.
  FactorEngine(pgas::Runtime& rt, const symbolic::SymbolicView& sym,
               const symbolic::TaskGraphView& tg, BlockStore& store,
               Offload& offload, const SolverOptions& opts,
               Tracer* tracer = nullptr, RecoveryContext* rec = nullptr);
  ~FactorEngine();
  FactorEngine(const FactorEngine&) = delete;
  FactorEngine& operator=(const FactorEngine&) = delete;

  /// Run the factorization to completion. Throws NotPositiveDefiniteError
  /// (core/solver.hpp) naming the factor's permuted column if a diagonal
  /// pivot fails, and pgas::RankDeathError when a killed rank is
  /// confirmed dead (the solver's recovery loop catches that one).
  void run();

  /// High-water of fetched remote factor blocks held at once (host,
  /// device or inline copies in the use caches), per rank, summed over
  /// ranks. Not part of the runtime's peak memory (host copies live
  /// outside its allocation registry).
  [[nodiscard]] std::uint64_t peak_staged_bytes() const;

  /// Bottom level of every supernode (Policy::kBottomLevel), in
  /// simulated seconds: the time of its POTRF (w³/3 flops) and TRSM
  /// (r·w² flops; w = width, r = rows below the diagonal block) at the
  /// model's CPU rates, plus one signal (RPC + pull latency), plus its
  /// parent's bottom level. The latency term keeps deep chains of small
  /// panels from ranking below a few heavy ones in latency-bound runs.
  static std::vector<double> bottom_levels(const symbolic::SymbolicView& sym,
                                           const pgas::MachineModel& model);
  /// Policy::kBottomLevel priority of a ready task whose supernode (D/F)
  /// or source panel (U) has bottom level `blevel_s`: every panel task
  /// outranks every update, and within each class the larger bottom
  /// level pops first. The updates of one source panel share a
  /// priority, so they pop together, in insertion order.
  static std::int64_t bottom_level_priority(double blevel_s, bool panel_task);

 private:
  // --- task representation -------------------------------------------
  enum class TaskType : std::uint8_t { kDiag, kFactor, kUpdate };
  struct Task {
    TaskType type;
    idx_t k = -1;        // supernode (D/F) or source panel j (U)
    BlockSlot slot = 0;  // block slot (F); unused for D
    idx_t si = 0, ti = 0;  // U: source/pivot block slots (>=1) in panel k
    double ready = 0.0;    // earliest simulated start
  };

  /// Reference to factor-block data available at this rank (either a
  /// pointer into local block storage or into a fetched remote copy).
  struct FactorRef {
    const double* data = nullptr;  // null in protocol-only mode
    double ready = 0.0;
    bool on_device = false;
    idx_t cache_bid = -1;  // block id of the cache entry, -1 if local
  };

  struct RemoteFactor {
    std::vector<double> host;  // host copy (when not device resident)
    pgas::GlobalPtr device;    // device copy (when resident)
    /// Eager-inlined payload (shared with the producer's other
    /// recipients); keeps the pooled buffer alive for this consumer's
    /// uses when the signal carried the data inline.
    std::shared_ptr<const double> eager;
    FactorRef ref;
  };

  struct UpdateState {
    int remaining = 0;
    FactorRef src;  // L_{s,j}
    FactorRef piv;  // L_{t,j} (same as src for SYRK tasks)
  };

  /// Aggregate buffer for one target block at one producer rank.
  struct Aggregate {
    std::vector<double> buf;  // shape of the target block; empty in dry runs
    int pending = 0;          // updates this rank still owes the block
  };

  struct Signal {
    /// kBlock: factor block (k, slot) is published. kAggregate: rank
    /// `from` has folded every update it owed into target block (k, slot).
    enum class Kind : std::uint8_t { kBlock, kAggregate };
    idx_t k;
    BlockSlot slot;
    /// Eager protocol (DESIGN.md §4e): nonzero means the block's (or the
    /// aggregate's) bytes ride inside this signal and the consumer skips
    /// the pull. Set even in protocol-only runs (wire accounting without
    /// data); `payload` is null there. A copy of the signal in the
    /// ReliableLink ledger shares the payload buffer, so retransmits
    /// replay the data inline.
    std::uint32_t eager_bytes = 0;
    std::shared_ptr<const double> payload;
    Kind kind = Kind::kBlock;
    int from = -1;                 // aggregate: producer rank
    const double* data = nullptr;  // aggregate: producer's staging buffer
    double sent = 0.0;             // aggregate: simulated send time

    /// taskrt::Endpoint's eager contract (found via ADL).
    friend std::size_t inline_payload_bytes(const Signal& s) {
      return s.eager_bytes;
    }
  };

  struct PerRank {
    taskrt::ReadyQueue<Task> rtq;
    std::unordered_map<std::uint64_t, UpdateState> pending_updates;
    taskrt::UseCache<RemoteFactor> cache;           // key: block id
    std::unordered_map<idx_t, FactorRef> diag_ref;  // key: supernode
    std::unordered_map<idx_t, Aggregate> aggs;      // key: target block id
    std::vector<pgas::GlobalPtr> out_buffers;       // sent aggregates
    std::uint64_t staged_bytes = 0;  // fetched blocks live in `cache`
    std::uint64_t staged_peak = 0;   // high-water of staged_bytes
    idx_t done_factor = 0;
    idx_t done_update = 0;
  };

  static std::uint64_t ukey(idx_t j, idx_t si, idx_t ti) {
    return (static_cast<std::uint64_t>(j) << 42) |
           (static_cast<std::uint64_t>(si) << 21) |
           static_cast<std::uint64_t>(ti);
  }

  /// The placement decision: does U_{s,j,t} for source panel j aggregate
  /// at the source's owner (fan-in) rather than push to the target's?
  [[nodiscard]] bool aggregates(idx_t /*j*/) const {
    return opts_.variant == Variant::kFanIn;
  }
  /// Rank that runs U_{j, si, ti}: the owner of B_{s,t} (push) or of
  /// L_{s,j} (aggregate).
  [[nodiscard]] int runs_on(idx_t j, idx_t si, idx_t ti) const;
  /// Has block `bid`'s factor task already run in a previous attempt?
  [[nodiscard]] bool complete(idx_t bid) const {
    return rec_ != nullptr && rec_->complete[bid] != 0;
  }
  [[nodiscard]] bool applied(idx_t j, idx_t si, idx_t ti) const {
    return rec_ != nullptr && rec_->applied[rec_->update_index(j, si, ti)] != 0;
  }

  pgas::Step step(pgas::Rank& rank);
  void handle_signal(pgas::Rank& rank, const Signal& sig);
  /// Count the U/F tasks at `rank` that consume factor block (k, slot).
  /// On a recovery attempt, tasks whose target block is already complete
  /// are excluded (they will not re-run).
  int local_uses(int rank, idx_t k, BlockSlot slot) const;
  /// Ranks other than `owner` that consume factor block (k, slot); `out`
  /// is scratch space the result may live in.
  const std::vector<int>& recipients(int owner, idx_t k, BlockSlot slot,
                                     std::vector<int>& out) const;
  /// Block id update task U_{k, si, ti} folds into.
  idx_t update_target_bid(idx_t k, idx_t si, idx_t ti) const;
  /// Does U_{k, si, ti} (re-)run this attempt? Always true without a
  /// recovery context; false when its target block is already complete.
  bool update_needed(idx_t k, idx_t si, idx_t ti) const;
  /// Recovery prologue: re-publish every already-complete block (data
  /// restored by the solver) to the consumers that still need it.
  void publish_restored();
  /// Make factor block (k, slot) available at `rank` via `ref`.
  void deliver(pgas::Rank& rank, idx_t k, BlockSlot slot,
               const FactorRef& ref);
  void satisfy_update(pgas::Rank& rank, idx_t j, idx_t si, idx_t ti,
                      const FactorRef& ref, bool as_source);
  void publish(pgas::Rank& rank, idx_t k, BlockSlot slot);
  /// Hand factor block (k, slot), complete at its owner `rank`, to every
  /// consumer: local ones in place, remote ones by signal.
  void share(pgas::Rank& rank, idx_t k, BlockSlot slot);
  /// Inline `bytes` of `src` into `sig` if the eager protocol takes
  /// them; returns whether it did.
  bool inline_payload(pgas::Rank& rank, Signal& sig, const double* src,
                      std::size_t bytes);
  /// A pull charged to `rank` without moving bytes (protocol-only
  /// fetches, reads of an aggregate from its producer's segment).
  double charged_get(pgas::Rank& rank, std::size_t bytes, int from,
                     bool to_device);
  void execute(pgas::Rank& rank, const Task& task);
  void execute_diag(pgas::Rank& rank, const Task& task);
  void execute_factor(pgas::Rank& rank, const Task& task);
  void execute_update(pgas::Rank& rank, const Task& task);
  /// Send (or, at the owner, apply) this rank's finished aggregate for
  /// target block (t, slot).
  void flush_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot,
                       const Aggregate& agg);
  void apply_aggregate(pgas::Rank& rank, idx_t t, BlockSlot slot,
                       const double* buf, double ready);
  /// One dependency of target block (t, slot) arrived at `ready`.
  void complete_target_update(pgas::Rank& rank, idx_t t, BlockSlot slot,
                              double ready);
  /// Count a fetched block of `bytes` into `pr`'s staged copies
  /// (release_ref takes it out with the last use).
  static void stage(PerRank& pr, std::size_t bytes);
  void release_ref(pgas::Rank& rank, const FactorRef& ref);
  /// Push a task with its policy priority (kPriority: -supernode;
  /// kCriticalPath: elimination-tree depth; kBottomLevel:
  /// bottom_level_priority; queue order otherwise).
  void enqueue(PerRank& pr, const Task& task);

  pgas::Runtime* rt_;
  const symbolic::SymbolicView* sym_;
  const symbolic::TaskGraphView* tg_;
  BlockStore* store_;
  Offload* offload_;
  SolverOptions opts_;
  taskrt::EngineStats stats_;
  /// Resilience hand-off (null without buddy checkpointing). The solver
  /// owns it; it outlives every factorization attempt's engine.
  RecoveryContext* rec_ = nullptr;
  /// Per-rank termination goals. Equal to the TaskGraph totals for an
  /// all-push run; moved to the producers for aggregated updates and
  /// reduced by the completed sub-DAG on a recovery attempt.
  std::vector<idx_t> goal_factor_;
  std::vector<idx_t> goal_update_;

  /// Scheduling priority of a ready task (kCriticalPath policy): the
  /// elimination-tree depth of the supernode the task feeds.
  [[nodiscard]] idx_t task_depth(const Task& task) const;

  // Single-writer: slot r is read and written only by the thread driving
  // rank r (see the taskrt::Endpoint contract for the signal path).
  std::vector<PerRank> per_rank_;
  /// Signal transport + recovery protocol (shared task-runtime layer).
  /// The sequence protocol matters doubly for aggregates: applying one is
  /// NOT idempotent (it adds the payload and consumes a dependency), so
  /// duplicates must be filtered by the link's dedup, not the handler.
  taskrt::Endpoint<Signal> net_;
  // Per-block dependency state; each entry is touched only by the thread
  // driving the block's owner rank (see the thread-safety note above),
  // so no atomics are needed in threaded mode.
  taskrt::DepTracker deps_;
  // Supernode depth in the supernodal elimination tree (root = 0).
  // Immutable after construction.
  std::vector<idx_t> snode_depth_;
  // bottom_levels() in seconds, built only under Policy::kBottomLevel.
  // Immutable after construction.
  std::vector<double> snode_blevel_;

  /// White-box access for regression tests (duplicate-signal leak test).
  friend struct FactorEngineTestPeer;
};

}  // namespace sympack::core
