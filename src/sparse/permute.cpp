#include "sparse/permute.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace sympack::sparse {

bool is_permutation(const std::vector<idx_t>& perm) {
  const idx_t n = static_cast<idx_t>(perm.size());
  std::vector<bool> seen(n, false);
  for (idx_t v : perm) {
    if (v < 0 || v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

std::vector<idx_t> invert_permutation(const std::vector<idx_t>& perm) {
  if (!is_permutation(perm)) {
    throw std::invalid_argument("invert_permutation: not a permutation");
  }
  std::vector<idx_t> inv(perm.size());
  for (std::size_t k = 0; k < perm.size(); ++k) {
    inv[perm[k]] = static_cast<idx_t>(k);
  }
  return inv;
}

CscMatrix permute_symmetric(const CscMatrix& a,
                            const std::vector<idx_t>& perm) {
  const idx_t n = a.n();
  if (static_cast<idx_t>(perm.size()) != n) {
    throw std::invalid_argument("permute_symmetric: size mismatch");
  }
  const auto iperm = invert_permutation(perm);
  const auto& acolptr = a.colptr();
  const auto& arowind = a.rowind();
  // Entry (i, j) of A lands at (max, min) of (iperm[i], iperm[j]) in B.
  // A stores every diagonal (CscMatrix invariant), so B's columns have
  // theirs too. Count per column, then scatter.
  std::vector<idx_t> colptr(n + 1, 0);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t p = acolptr[j]; p < acolptr[j + 1]; ++p) {
      ++colptr[std::min(iperm[arowind[p]], iperm[j]) + 1];
    }
  }
  for (idx_t j = 0; j < n; ++j) colptr[j + 1] += colptr[j];
  std::vector<idx_t> rowind(arowind.size());
  std::vector<double> values(arowind.size());
  {
    std::vector<idx_t> cursor(colptr.begin(), colptr.end() - 1);
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t p = acolptr[j]; p < acolptr[j + 1]; ++p) {
        const idx_t pi = iperm[arowind[p]];
        const idx_t pj = iperm[j];
        const idx_t q = cursor[std::min(pi, pj)]++;
        rowind[q] = std::max(pi, pj);
        values[q] = a.values()[p];
      }
    }
  }
  // Sort each column by row, carrying the values along.
  std::vector<std::pair<idx_t, double>> column;
  for (idx_t j = 0; j < n; ++j) {
    const auto first = rowind.begin() + colptr[j];
    const auto last = rowind.begin() + colptr[j + 1];
    if (std::is_sorted(first, last)) continue;
    column.clear();
    for (idx_t q = colptr[j]; q < colptr[j + 1]; ++q) {
      column.emplace_back(rowind[q], values[q]);
    }
    std::sort(column.begin(), column.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (idx_t q = colptr[j]; q < colptr[j + 1]; ++q) {
      rowind[q] = column[q - colptr[j]].first;
      values[q] = column[q - colptr[j]].second;
    }
  }
  return CscMatrix(n, std::move(colptr), std::move(rowind),
                   std::move(values));
}

std::vector<double> permute_vector(const std::vector<double>& x,
                                   const std::vector<idx_t>& perm) {
  std::vector<double> out(x.size());
  for (std::size_t k = 0; k < perm.size(); ++k) out[k] = x[perm[k]];
  return out;
}

std::vector<double> unpermute_vector(const std::vector<double>& x,
                                     const std::vector<idx_t>& perm) {
  std::vector<double> out(x.size());
  for (std::size_t k = 0; k < perm.size(); ++k) out[perm[k]] = x[k];
  return out;
}

std::vector<idx_t> identity_permutation(idx_t n) {
  std::vector<idx_t> p(n);
  std::iota(p.begin(), p.end(), idx_t{0});
  return p;
}

std::vector<idx_t> compose(const std::vector<idx_t>& p1,
                           const std::vector<idx_t>& p2) {
  if (p1.size() != p2.size()) {
    throw std::invalid_argument("compose: size mismatch");
  }
  std::vector<idx_t> out(p1.size());
  for (std::size_t k = 0; k < p2.size(); ++k) out[k] = p1[p2[k]];
  return out;
}

}  // namespace sympack::sparse
