// User-facing solver options.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "blas/kernels/tiling.hpp"
#include "ordering/ordering.hpp"
#include "support/backoff.hpp"
#include "symbolic/mapping.hpp"
#include "symbolic/symbolic.hpp"

namespace sympack::core {

/// RTQ scheduling policy (paper §3.4 leaves this as future work and uses
/// "whichever task is at the top of the queue"; we expose the knob for
/// the scheduling ablation). The lines below order the factorization.
/// The triangular solve has one order for the three heap policies
/// (kPriority, kCriticalPath, kBottomLevel): the task with the longest
/// remaining chain first, forward by the bottom level of the segment it
/// feeds, backward by that segment's subtree height (core/solve.hpp).
/// Under kFifo and kLifo the solve runs FIFO.
///   kFifo / kLifo      queue order
///   kPriority          lowest target supernode first
///   kCriticalPath      deepest supernode first (tasks feeding the
///                      longest elimination-tree chain run first)
///   kBottomLevel       the default: panel tasks (diagonal and
///                      off-diagonal factorizations) before any update,
///                      each by its supernode's bottom level (POTRF +
///                      TRSM time at the model's CPU rates plus one
///                      signal latency, summed up the elimination tree
///                      to the root); updates by their *source* panel's
///                      bottom level, so the updates that read one
///                      fetched factor copy run back to back and the
///                      copy is freed sooner. Faster than FIFO at 7 of
///                      the 9 BENCH_scheduler.json points; it adds at
///                      most half the staged copies kCriticalPath adds
///                      over FIFO (DESIGN.md §4m)
///   kAuto              measured per matrix: symbolic_factorize runs
///                      cheap protocol-only pilot factorizations, feeds
///                      the traces through the critical-path analyzer
///                      (core/critpath.hpp), and resolves to the fixed
///                      policy (and supernode split width) with the
///                      shortest measured critical path. Never reaches
///                      the engines unresolved.
enum class Policy {
  kFifo,
  kLifo,
  kPriority,
  kCriticalPath,
  kBottomLevel,
  kAuto
};

Policy parse_policy(const std::string& name);
std::string policy_name(Policy p);

/// What to do when a device allocation fails mid-factorization
/// (paper §4.2 "fallback options").
enum class GpuFallback { kCpu, kThrow };

struct GpuOptions {
  bool enabled = true;
  /// Per-operation offload overrides, in *elements* of the operation's
  /// largest buffer. Unset (the default), each call is placed by the
  /// machine model: it runs on the device iff launch + device kernel time
  /// + the PCIe copies of its non-resident operands and of its result
  /// beat the CPU kernel time (core/offload.hpp). Set, the operation
  /// offloads exactly the calls with at least this many elements (0 =
  /// always, a huge value = never).
  std::optional<std::int64_t> potrf_threshold;
  std::optional<std::int64_t> trsm_threshold;
  std::optional<std::int64_t> syrk_threshold;
  std::optional<std::int64_t> gemm_threshold;
  /// Factor blocks at least this large (elements) are marked "GPU
  /// blocks" and fetched straight into device memory on the consumer
  /// (the paper's direct remote-host-to-device copy optimization).
  std::int64_t device_resident_threshold = 128 * 128;
  GpuFallback fallback = GpuFallback::kCpu;
};

/// Which member of Ashcraft's algorithm taxonomy (paper §2.3) runs the
/// numeric phase. The paper's symPACK is fan-out; the fan-in variant is
/// provided for the algorithm-family ablation.
enum class Variant { kFanOut, kFanIn };

Variant parse_variant(const std::string& name);
std::string variant_name(Variant v);

/// Recovery-protocol tuning. Only consulted when the runtime has a fault
/// injector attached (Runtime::fault_injection_enabled()); with faults
/// off the engines never touch these and the schedules are byte-identical
/// to a build without the recovery machinery.
struct FaultToleranceOptions {
  /// Consecutive idle step() calls on a rank before it suspects a lost
  /// signal and broadcasts a pull re-request to every producer. The
  /// threshold doubles after each re-request round (reset on progress),
  /// so a rank that is merely slow does not storm the wire.
  int rerequest_idle_limit = 32;
  /// Hard cap on consecutive re-request rounds without a delivered
  /// message (the budget refills on every in-order delivery). After
  /// this many rounds the rank stops re-requesting and lets the stall
  /// guard / watchdog of Runtime::drive fire — an unrecoverable bug must still abort
  /// instead of re-requesting forever (which would count as work and
  /// defeat the stall detection).
  int max_rerequest_rounds = 1000;
  /// Backoff schedule for transient one-sided transfer failures
  /// (pgas::TransferError from rget/copy).
  support::BackoffPolicy rma_backoff{};
};

/// Rank-death resilience (DESIGN.md §4h): buddy checkpoint replication
/// of completed factor panels plus restart-based re-execution recovery.
/// buddy_replicas = 0 (the default) turns the whole subsystem off — no
/// checkpoint traffic, no death scan, no recovery attempts — so every
/// golden schedule hash is bit-identical to a build without it.
struct ResilienceOptions {
  /// Buddy copies kept of every completed supernode factor panel
  /// (replicated to rank (owner+1) mod nranks as it completes). 0 = off;
  /// currently at most 1 is meaningful (single-failure model).
  int buddy_replicas = 0;
  /// Consecutive idle step() calls before a rank scans its peers for a
  /// death (the failure-detection timeout, in units of the rank's own
  /// heartbeat). Confirmation throws pgas::RankDeathError, which the
  /// solver's recovery loop catches.
  int detect_idle = 64;
  /// Simulated seconds charged to the resurrected rank on top of the
  /// survivors' clock frontier (process restart + re-join cost). Kept
  /// small relative to typical phase times so the recovery-overhead gate
  /// (<= 1.5x fault-free) measures the protocol, not this constant.
  double restart_delay_s = 1e-4;
  /// Recovery attempts per phase before the death is surfaced to the
  /// caller as fatal.
  int max_recoveries = 3;
};

/// Overlay SYMPACK_BUDDY_REPLICAS / SYMPACK_DETECT_IDLE /
/// SYMPACK_RESTART_DELAY_S / SYMPACK_MAX_RECOVERIES onto `base` (applied
/// at solver construction).
ResilienceOptions env_resilience_options(ResilienceOptions base);

/// Eager/coalesced signal-transport tuning (DESIGN.md §4e). Both knobs
/// default ON (the measured fast path). `eager_bytes = 0, coalesce =
/// false` is the paper's pure-rendezvous Fig. 4 protocol, which the
/// legacy golden schedule hashes pin explicitly.
struct CommOptions {
  /// Payloads strictly smaller than this many bytes are inlined into the
  /// signal RPC itself (eager protocol), skipping the consumer's pull
  /// rget round trip. 0 disables (pure rendezvous). 4096 is the tuned
  /// sweet spot from the bench_comm sweep: it covers the latency-bound
  /// small-panel/aggregate-row traffic while leaving bandwidth-bound
  /// blocks on the RMA path.
  std::int64_t eager_bytes = 4096;
  /// Batch signals to the same destination rank into one RPC per
  /// progress quantum (per-destination outboxes in pgas::Rank, flushed
  /// by age or when the sender runs out of work). Batch boundaries
  /// depend on host interleaving when ranks run on threads, so rpcs_sent
  /// is the one CommStats counter that may differ from a sequential run.
  bool coalesce = true;
};

/// Overlay SYMPACK_EAGER_BYTES / SYMPACK_COALESCE onto `base` (same
/// pattern as pgas::env_fault_config; applied at solver construction).
CommOptions env_comm_options(CommOptions base);

/// Blocked multi-RHS solve tuning (DESIGN.md §4f). A solve with nrhs
/// right-hand sides sweeps ceil(nrhs / rhs_panel) RHS *panels*: each
/// sweep carries up to rhs_panel columns, so the per-supernode diagonal
/// solve becomes one TRSM on a width x panel block and every
/// off-diagonal contribution one GEMM panel update — converting the
/// solve hot path from per-vector Level-2 sweeps into the tiled GEMM
/// engine, and amortizing every signal/rget of the solve protocol over
/// the panel width.
struct SolveOptions {
  /// RHS panel width. 0 (default) = unbounded: all nrhs columns ride
  /// one fused forward+backward sweep. 1 reproduces the paper's
  /// per-vector sweeps bit-for-bit (one RHS per sweep, pinned by the
  /// legacy solve goldens in tests/test_schedule.cpp).
  int rhs_panel = 0;
  /// SolveServer: pipeline consecutive panels so the backward sweep of
  /// batch i runs concurrently with the forward sweep of batch i+1 on
  /// the simulated cluster (two engines sharing the rank clocks). Off =
  /// strictly sequential sweeps (useful to isolate batching from
  /// overlap in the ablation).
  bool server_overlap = true;
  /// SolveServer admission cap: the largest number of columns drain()
  /// will queue before it starts refusing submissions (guards a serving
  /// deployment against unbounded request memory). 0 = unlimited.
  int server_max_queue = 0;
};

/// Overlay SYMPACK_RHS_PANEL / SYMPACK_SOLVE_OVERLAP /
/// SYMPACK_SOLVE_MAX_QUEUE onto `base` (applied at solver construction).
SolveOptions env_solve_options(SolveOptions base);

/// Tracing detail (DESIGN.md §4g). With `metadata` off (the default) an
/// attached Tracer records exactly the historical event stream — same
/// events, same names — so the golden schedule hashes, which fold every
/// event's rank and name, stay bit-identical. Turning it on adds (a)
/// structured per-event metadata (task kind, supernode, slot indices,
/// dependency-edge hints) and (b) zero-width block-fetch marks on the
/// consumer rank, which together let core::CritPathAnalyzer rebuild the
/// task DAG and split cross-rank gaps into comm vs. wait.
struct TraceOptions {
  bool metadata = false;
};

/// Overlay SYMPACK_TRACE_META onto `base` (applied at solver
/// construction).
TraceOptions env_trace_options(TraceOptions base);

/// Overlay SYMPACK_SYMBOLIC_SHARD onto `base` (applied at solver
/// construction). Sharding changes only where symbolic metadata lives —
/// the factor, schedule, and CommStats protocol counters are unchanged.
symbolic::SymbolicOptions env_symbolic_options(symbolic::SymbolicOptions base);

struct SolverOptions {
  ordering::Method ordering = ordering::Method::kNestedDissection;
  Variant variant = Variant::kFanOut;
  symbolic::SymbolicOptions symbolic{};
  /// Bottom subtrees on single ranks, the 2D grid above them (falls
  /// back to plain 2D where no layer balances; DESIGN.md §4l).
  symbolic::Mapping::Kind mapping = symbolic::Mapping::Kind::kSubtreeLayer;
  Policy policy = Policy::kBottomLevel;
  GpuOptions gpu{};
  /// Cache-block / panel sizes for the CPU dense kernels the tasks run
  /// on (src/blas/kernels/). Defaults to the process-wide configuration
  /// (environment overrides included), so leaving it untouched is a
  /// no-op; bench_autotune and gpu::sweep_tile_configs() produce tuned
  /// values to plug in here. Applied at solver construction.
  blas::kernels::TileConfig kernel_tiles = blas::kernels::config();
  /// When false, numeric kernels and data movement are skipped while the
  /// full task/communication protocol and the simulated-time accounting
  /// still run. Used by the large strong-scaling sweeps where only the
  /// schedule matters; correctness runs use numeric = true.
  bool numeric = true;
  /// Interleaving-fuzzer seed for the sequential (cooperative) driver:
  /// nonzero permutes the rank stepping order every sweep from a
  /// xoshiro256** stream seeded with this value, exploring adversarial
  /// schedules deterministically. A driver failure logs the seed so the
  /// exact schedule can be replayed. 0 = plain round-robin.
  std::uint64_t interleave_seed = 0;
  /// Self-healing knobs for runs under fault injection (see
  /// FaultToleranceOptions; no-op when the runtime has no injector).
  FaultToleranceOptions fault{};
  /// Rank-death resilience: buddy checkpointing + restart recovery
  /// (default off: zero overhead, schedules bit-identical).
  ResilienceOptions resilience{};
  /// Eager/coalesced signal transport (default on: eager_bytes=4096,
  /// coalesce=true).
  CommOptions comm{};
  /// Blocked multi-RHS solve + SolveServer tuning (default rhs_panel=0:
  /// one fused sweep over every right-hand side).
  SolveOptions solve{};
  /// Tracing detail (default off: attached tracers see the historical
  /// event stream byte-for-byte).
  TraceOptions trace{};
};

}  // namespace sympack::core
