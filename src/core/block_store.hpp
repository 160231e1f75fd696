// Distributed storage of the factor's supernodal panels, at block
// granularity: every block (diagonal or below-diagonal) is a dense
// column-major matrix allocated from its owner rank's shared segment, so
// remote ranks can rget() it one-sidedly (paper §3.4).
//
// Thread-safety (audited; see DESIGN.md "Threading memory model"): all
// geometry (owner_, base_, nrows_, ncols_, pointers) is immutable while
// an engine runs (recovery rehomes blocks only between drives). Block
// *data* is written only by the owner's thread; a consumer rgets it only
// after the owner's signal RPC, and the inbox mutex release/acquire on
// that RPC orders the write before the read.
#pragma once

#include <vector>

#include "pgas/runtime.hpp"
#include "sparse/csc.hpp"
#include "symbolic/view.hpp"

namespace sympack::core {

using sparse::idx_t;
using symbolic::BlockSlot;

class BlockStore {
 public:
  /// Allocates every block on its owner. When `numeric` is false no
  /// buffers are allocated (protocol-only runs); geometry queries still
  /// work.
  BlockStore(const symbolic::SymbolicView& sym,
             const symbolic::TaskGraphView& tg, pgas::Runtime& rt,
             bool numeric);
  ~BlockStore();
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  [[nodiscard]] idx_t num_blocks() const {
    return static_cast<idx_t>(owner_.size());
  }
  [[nodiscard]] idx_t block_id(idx_t k, BlockSlot slot) const {
    return base_[k] + slot;
  }
  [[nodiscard]] int owner(idx_t bid) const { return owner_[bid]; }
  [[nodiscard]] idx_t nrows(idx_t bid) const { return nrows_[bid]; }
  [[nodiscard]] idx_t ncols(idx_t bid) const { return ncols_[bid]; }
  [[nodiscard]] std::size_t bytes(idx_t bid) const {
    return sizeof(double) * static_cast<std::size_t>(nrows_[bid]) *
           static_cast<std::size_t>(ncols_[bid]);
  }
  /// Host data pointer (nullptr in protocol-only mode).
  [[nodiscard]] double* data(idx_t bid) { return data_[bid]; }
  [[nodiscard]] const double* data(idx_t bid) const { return data_[bid]; }
  [[nodiscard]] pgas::GlobalPtr gptr(idx_t bid) const { return gptr_[bid]; }

  [[nodiscard]] bool numeric() const { return numeric_; }

  /// (Re)initialize the owned blocks from the permuted matrix: zero the
  /// panels, then scatter A's lower-triangle entries into place. No-op in
  /// protocol-only mode.
  void assemble(const sparse::CscMatrix& a_permuted);

  /// Re-assemble only the blocks with select[bid] != 0 (zero, then
  /// scatter the A entries that land in them). Recovery uses this to
  /// rebuild the still-incomplete panels after a rank death without
  /// touching completed (checkpoint-restored) blocks. No-op in
  /// protocol-only mode.
  void assemble_subset(const sparse::CscMatrix& a_permuted,
                       const std::vector<char>& select);

  /// Move every block whose owner in `tg` differs from its current one
  /// to the new owner: the buffer is freed on the old owner and a fresh
  /// one allocated on the new. Recovery uses this after re-dealing a dead
  /// rank's unfinished panels; the moved blocks are incomplete, so the
  /// caller re-assembles them.
  void rehome(const symbolic::TaskGraphView& tg);

  /// Gather the factor into a dense n x n lower-triangular matrix
  /// (column-major). Test/inspection helper for small problems.
  [[nodiscard]] std::vector<double> to_dense_lower() const;

  /// Row offset of global row `row` inside below-block `slot` (>= 1) of
  /// supernode k; -1 if absent.
  [[nodiscard]] idx_t row_offset_in_block(idx_t k, BlockSlot slot,
                                          idx_t row) const;

 private:
  const symbolic::SymbolicView* sym_;
  pgas::Runtime* rt_;
  bool numeric_;
  std::vector<idx_t> base_;    // snode -> first block id
  std::vector<int> owner_;     // per block
  std::vector<idx_t> nrows_;   // per block
  std::vector<idx_t> ncols_;   // per block
  std::vector<double*> data_;  // per block (nullptr when !numeric)
  std::vector<pgas::GlobalPtr> gptr_;
};

}  // namespace sympack::core
