// Distributed triangular solve: L y = b (forward) then L^T x = y
// (backward), using the factored blocks in place (paper's solve phase,
// Figures 8/10/12).
//
// Both sweeps are task-based over the same block distribution as the
// factorization and use the same signal-RPC + one-sided-get protocol:
//   forward:  the owner of diagonal block k solves the panel RHS segment
//             once all descendant contributions have been folded in,
//             broadcasts y_k to the owners of panel-k blocks; each block
//             owner computes z = B_{s,k} y_k and fans the partial sum in
//             to the owner of supernode s.
//   backward: the owner of supernode s broadcasts x_s to the owners of
//             blocks *targeting* s; each computes w = B_{s,k}^T x_s|rows
//             and fans it in to the owner of panel k.
//
// The solve is bound by the dependency chain through the tree, not by
// flops, so under the heap policies (kPriority, kCriticalPath and the
// default kBottomLevel) each rank pops the task with the longest
// remaining chain first: forward by the bottom level of the segment the
// task feeds, backward by that segment's subtree height (task_priority;
// the levels are taskrt::tree_levels, shared with the factorization).
// kFifo and kLifo run the solve FIFO. The queue, per-segment dependency
// counters, and the message transport with its recovery protocol are
// the shared core/taskrt/ layer. The endpoint is reset between the
// sweeps: sequence numbers restart so the forward ledger cannot satisfy
// backward-sweep re-requests.
//
// Thread-safety (audited; see DESIGN.md "Threading memory model" and
// §4d): no locks because every mutable member is single-writer.
// per_rank_[r] and the endpoint's slot r are touched only by the thread
// driving rank r (RPC bodies run inside the target's progress()).
// seg_[k] and deps_[k] are touched only by the thread driving the
// segment owner mapping(k, k): remote contributions arrive as messages
// and are folded in by the owner itself in apply_contribution. Published
// segments and contribution buffers are written before the signal RPC is
// enqueued and read after it is dequeued, so the inbox mutex orders the
// data transfer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_store.hpp"
#include "core/offload.hpp"
#include "core/options.hpp"
#include "core/taskrt/dep_tracker.hpp"
#include "core/taskrt/endpoint.hpp"
#include "core/taskrt/ready_queue.hpp"
#include "core/taskrt/stats.hpp"
#include "core/taskrt/tree_levels.hpp"
#include "core/trace.hpp"
#include "pgas/runtime.hpp"
#include "symbolic/view.hpp"

namespace sympack::core {

class SolveEngine {
 public:
  /// `tracer` (optional) records every solve task's simulated execution
  /// span ("Y k" / "C k:slot" forward, "X k" / "Z k:slot" backward) with
  /// the same conventions as the factorization engines, so one Chrome
  /// trace shows factor and solve side by side and the critical-path
  /// profiler can analyze either phase. The solve-phase goldens hash
  /// CommStats only and never attach a tracer, so this is purely
  /// additive.
  SolveEngine(pgas::Runtime& rt, const symbolic::SymbolicView& sym,
              const symbolic::TaskGraphView& tg, BlockStore& store,
              Offload& offload, const SolverOptions& opts,
              Tracer* tracer = nullptr);
  ~SolveEngine();
  SolveEngine(const SolveEngine&) = delete;
  SolveEngine& operator=(const SolveEngine&) = delete;

  /// Solve L L^T x = b for `nrhs` right-hand sides stored column-major
  /// in `b` (permuted ordering). The solve runs as ceil(nrhs/rhs_panel)
  /// panel sweeps (SolverOptions::solve.rhs_panel; 1 = the historical
  /// per-vector sweeps, 0 = one fused sweep carrying all nrhs columns):
  /// each sweep's diagonal solves are nb x w TRSMs and its block
  /// contributions GEMM panel updates, and every protocol message
  /// carries the whole w-column segment. Returns x (also permuted
  /// ordering). In protocol-only mode the returned vector is
  /// zero-filled but the full task/communication schedule still runs.
  std::vector<double> solve(const std::vector<double>& b, int nrhs);

  /// Incremental sweep API (used by SolveServer to pipeline batches):
  /// arm one sweep at a time and step it externally, so two engines can
  /// interleave inside a single Runtime::drive loop — the backward
  /// sweep of batch i overlapped with the forward sweep of batch i+1.
  ///
  /// begin() scatters `panel` (n x nrhs column-major, permuted
  /// ordering; may be null in protocol-only runs) and arms the forward
  /// sweep; start_backward() arms the backward sweep; step_phase()
  /// advances the armed sweep on one rank; gather() collects the
  /// solution into `x` (n x nrhs) and releases the sweep's buffers.
  void begin(const double* panel, int nrhs);
  void start_backward();
  pgas::Step step_phase(pgas::Rank& rank);
  void gather(double* x);

  /// Ready-queue priority of a solve task under the heap policies: the
  /// level of the segment the task feeds, in whole picoseconds. Forward,
  /// Y k (slot 0) feeds k and C (panel k, slot) feeds
  /// blocks[slot-1].target, each ranked by bottom level; backward, X k
  /// and Z (panel k, slot) both feed k, ranked by subtree height.
  static std::int64_t task_priority(const symbolic::SymbolicView& sym,
                                    const taskrt::TreeLevels& levels,
                                    idx_t k, BlockSlot slot, bool backward);

 private:
  struct Msg {
    enum class Type : std::uint8_t { kX, kContrib } type;
    idx_t k;          // kX: supernode whose solution segment is published
    idx_t panel;      // kContrib: source panel
    BlockSlot slot;   // kContrib: block slot in the panel
    pgas::GlobalPtr data;
    std::size_t bytes;
    /// Eager protocol (DESIGN.md §4e): nonzero means the segment /
    /// partial sum rides inside the message and `data` is unused. Set
    /// even in protocol-only runs; `payload` is null there. Ledger
    /// copies share the buffer, so retransmits replay the data inline.
    std::uint32_t eager_bytes = 0;
    std::shared_ptr<const double> payload;

    friend std::size_t inline_payload_bytes(const Msg& m) {
      return m.eager_bytes;
    }
  };
  struct Task {
    enum class Type : std::uint8_t { kDiag, kContrib } type;
    idx_t k;         // kDiag: supernode; kContrib: panel
    BlockSlot slot;  // kContrib only
    const double* operand;  // solution segment the contribution consumes
    double ready;
  };
  struct PerRank {
    /// Heap by task_priority under the heap policies, else FIFO.
    taskrt::ReadyQueue<Task> tasks;
    idx_t done_diag = 0;
    idx_t done_contrib = 0;
    std::vector<pgas::GlobalPtr> owned_buffers;  // freed at phase end
    /// Eager kX payloads pinned for this sweep: Task::operand points
    /// into them and outlives the Msg, so the consumer holds a
    /// reference until the phase resets (reset_phase drops them —
    /// stale payloads never leak into the next sweep).
    std::vector<std::shared_ptr<const double>> eager_refs;
  };

  pgas::Step step(pgas::Rank& rank, bool backward);
  void handle_msg(pgas::Rank& rank, const Msg& msg, bool backward);
  void execute_diag(pgas::Rank& rank, idx_t k, bool backward);
  void execute_contrib(pgas::Rank& rank, const Task& task, bool backward);
  void publish_solution(pgas::Rank& rank, idx_t k, bool backward);
  /// Enqueue on `rank_id` the contribution tasks that consume segment k
  /// (forward: panel-k blocks; backward: blocks targeting k).
  void enqueue_consumers(int rank_id, idx_t k, const double* operand,
                         double ready, bool backward);
  /// The one push site: every ready task enters its rank's queue here,
  /// with its task_priority.
  void push(int rank_id, const Task& task, bool backward);
  void apply_contribution(pgas::Rank& rank, idx_t panel, BlockSlot slot,
                          const double* z, double ready, bool backward);
  void drive_phase();
  void reset_phase(bool backward);
  void free_buffers();

  pgas::Runtime* rt_;
  const symbolic::SymbolicView* sym_;
  const symbolic::TaskGraphView* tg_;
  BlockStore* store_;
  Offload* offload_;
  SolverOptions opts_;
  taskrt::EngineStats stats_;
  int nrhs_ = 1;          // columns carried by the sweep in flight
  bool cur_backward_ = false;  // which sweep step_phase() advances

  // Tree levels for task_priority; empty unless the queues are heaps.
  taskrt::TreeLevels levels_;
  // (panel, slot) pairs targeting each supernode (transpose structure).
  std::vector<std::vector<std::pair<idx_t, BlockSlot>>> target_blocks_;
  // Per-supernode RHS/solution segment, owned by the diagonal owner.
  std::vector<std::vector<double>> seg_;
  // Per-supernode outstanding contributions + segment-complete sim time
  // (ready times deliberately persist across the two sweeps: the
  // backward sweep starts from the forward sweep's completion times).
  taskrt::DepTracker deps_;
  std::vector<PerRank> per_rank_;
  /// Message transport + recovery protocol. Dedup is load-bearing: kX
  /// enqueues contribution tasks and kContrib decrements a dependency
  /// counter, neither of which is idempotent. Reset between sweeps.
  taskrt::Endpoint<Msg> net_;
  // Per-rank totals for termination.
  std::vector<idx_t> owned_diag_;
  std::vector<idx_t> owned_contrib_fwd_;
  std::vector<idx_t> owned_contrib_bwd_;
};

}  // namespace sympack::core
