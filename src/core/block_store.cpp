#include "core/block_store.hpp"

#include <algorithm>
#include <cstring>

namespace sympack::core {

BlockStore::BlockStore(const symbolic::SymbolicView& sym,
                       const symbolic::TaskGraphView& tg, pgas::Runtime& rt,
                       bool numeric)
    : sym_(&sym), rt_(&rt), numeric_(numeric) {
  const idx_t ns = sym.num_snodes();
  base_.resize(ns + 1);
  base_[0] = 0;
  for (idx_t k = 0; k < ns; ++k) {
    base_[k + 1] = base_[k] + 1 + static_cast<idx_t>(sym.snode(k).blocks.size());
  }
  const idx_t nb = base_[ns];
  owner_.resize(nb);
  nrows_.resize(nb);
  ncols_.resize(nb);
  data_.assign(nb, nullptr);
  gptr_.assign(nb, pgas::GlobalPtr{});

  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym.snode(k);
    const idx_t w = sn.width();
    for (BlockSlot slot = 0;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const idx_t bid = base_[k] + slot;
      owner_[bid] = tg.owner(k, slot);
      nrows_[bid] = slot == 0 ? w : sn.blocks[slot - 1].nrows;
      ncols_[bid] = w;
      if (numeric_) {
        // Exact-size and unpooled: the store lives as long as the solver
        // (every refactorize reuses these blocks), so a size-class pool
        // would only round each block up and keep nothing to recycle.
        auto g = rt.rank(owner_[bid]).allocate_host(bytes(bid));
        gptr_[bid] = g;
        data_[bid] = g.local<double>();
      }
    }
  }
}

BlockStore::~BlockStore() {
  if (!numeric_) return;
  for (idx_t bid = 0; bid < num_blocks(); ++bid) {
    if (!gptr_[bid].is_null()) {
      rt_->rank(owner_[bid]).deallocate(gptr_[bid]);
    }
  }
}

void BlockStore::rehome(const symbolic::TaskGraphView& tg) {
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    for (BlockSlot slot = 0; slot < base_[k + 1] - base_[k]; ++slot) {
      const idx_t bid = base_[k] + slot;
      const int owner = tg.owner(k, slot);
      if (owner == owner_[bid]) continue;
      if (numeric_) {
        rt_->rank(owner_[bid]).deallocate(gptr_[bid]);
        gptr_[bid] = rt_->rank(owner).allocate_host(bytes(bid));
        data_[bid] = gptr_[bid].local<double>();
      }
      owner_[bid] = owner;
    }
  }
}

idx_t BlockStore::row_offset_in_block(idx_t k, BlockSlot slot,
                                      idx_t row) const {
  const auto& sn = sym_->snode(k);
  const auto& blk = sn.blocks[slot - 1];
  const auto begin = sn.below.begin() + blk.row_off;
  const auto end = begin + blk.nrows;
  const auto it = std::lower_bound(begin, end, row);
  if (it == end || *it != row) return -1;
  return static_cast<idx_t>(it - begin);
}

void BlockStore::assemble(const sparse::CscMatrix& a) {
  if (!numeric_) return;
  for (idx_t bid = 0; bid < num_blocks(); ++bid) {
    std::memset(data_[bid], 0, bytes(bid));
  }
  const idx_t ns = sym_->num_snodes();
  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym_->snode(k);
    for (idx_t j = sn.first; j <= sn.last; ++j) {
      const idx_t col = j - sn.first;
      for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
        const idx_t i = a.rowind()[p];
        const double v = a.values()[p];
        if (i <= sn.last) {
          // Diagonal block (lower triangle).
          const idx_t bid = base_[k];
          data_[bid][(i - sn.first) + col * nrows_[bid]] = v;
        } else {
          // Locate the below-block containing row i.
          const idx_t slot = sym_->find_block(k, sym_->snode_of(i)) + 1;
          const idx_t off = row_offset_in_block(k, slot, i);
          const idx_t bid = base_[k] + slot;
          data_[bid][off + col * nrows_[bid]] = v;
        }
      }
    }
  }
}

void BlockStore::assemble_subset(const sparse::CscMatrix& a,
                                 const std::vector<char>& select) {
  if (!numeric_) return;
  for (idx_t bid = 0; bid < num_blocks(); ++bid) {
    if (select[bid] != 0) std::memset(data_[bid], 0, bytes(bid));
  }
  const idx_t ns = sym_->num_snodes();
  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym_->snode(k);
    for (idx_t j = sn.first; j <= sn.last; ++j) {
      const idx_t col = j - sn.first;
      for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
        const idx_t i = a.rowind()[p];
        const double v = a.values()[p];
        if (i <= sn.last) {
          const idx_t bid = base_[k];
          if (select[bid] == 0) continue;
          data_[bid][(i - sn.first) + col * nrows_[bid]] = v;
        } else {
          const idx_t slot = sym_->find_block(k, sym_->snode_of(i)) + 1;
          const idx_t bid = base_[k] + slot;
          if (select[bid] == 0) continue;
          const idx_t off = row_offset_in_block(k, slot, i);
          data_[bid][off + col * nrows_[bid]] = v;
        }
      }
    }
  }
}

std::vector<double> BlockStore::to_dense_lower() const {
  const idx_t n = sym_->n();
  std::vector<double> out(static_cast<std::size_t>(n) * n, 0.0);
  if (!numeric_) return out;
  for (idx_t k = 0; k < sym_->num_snodes(); ++k) {
    const auto& sn = sym_->snode(k);
    const idx_t w = sn.width();
    // Diagonal block: lower triangle only.
    const idx_t dbid = base_[k];
    for (idx_t c = 0; c < w; ++c) {
      for (idx_t r = c; r < w; ++r) {
        out[(sn.first + r) + static_cast<std::size_t>(sn.first + c) * n] =
            data_[dbid][r + c * nrows_[dbid]];
      }
    }
    for (BlockSlot slot = 1;
         slot <= static_cast<idx_t>(sn.blocks.size()); ++slot) {
      const idx_t bid = base_[k] + slot;
      const auto& blk = sn.blocks[slot - 1];
      for (idx_t c = 0; c < w; ++c) {
        for (idx_t r = 0; r < blk.nrows; ++r) {
          const idx_t row = sn.below[blk.row_off + r];
          out[row + static_cast<std::size_t>(sn.first + c) * n] =
              data_[bid][r + c * nrows_[bid]];
        }
      }
    }
  }
  return out;
}

}  // namespace sympack::core
