#include "ordering/etree.hpp"

#include <algorithm>
#include <stdexcept>

#include "sparse/permute.hpp"

namespace sympack::ordering {
namespace {

// Liu's algorithm for one entry a(i,k), k < i: walk up from k to the
// root of its current subtree, compressing the path to i, and make i
// that root's parent. Entries with k >= i fall through.
void link_row_entry(idx_t k, idx_t i, std::vector<idx_t>& parent,
                    std::vector<idx_t>& ancestor) {
  while (k != -1 && k < i) {
    const idx_t next = ancestor[k];
    ancestor[k] = i;
    if (next == -1) {
      parent[k] = i;
      break;
    }
    k = next;
  }
}

}  // namespace

std::vector<idx_t> elimination_tree(const sparse::CscMatrix& a) {
  const idx_t n = a.n();
  std::vector<idx_t> parent(n, -1);
  std::vector<idx_t> ancestor(n, -1);  // path-compressed virtual forest
  // Liu's algorithm: process columns left to right; for each entry
  // a(i,j) with i > j (lower triangle), walk j's subtree from the *row*
  // perspective. Equivalently: for column i of the upper triangle we walk
  // each k < i with a(i,k) != 0. Lower CSC gives exactly those (i, k)
  // pairs when scanning column k, so we process by increasing i using a
  // row-bucketed traversal.
  //
  // Implementation: transpose the lower structure into row lists first.
  std::vector<idx_t> rowptr(n + 1, 0);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      const idx_t i = a.rowind()[p];
      if (i != j) ++rowptr[i + 1];
    }
  }
  for (idx_t i = 0; i < n; ++i) rowptr[i + 1] += rowptr[i];
  std::vector<idx_t> rowind(rowptr[n]);
  {
    std::vector<idx_t> cursor(rowptr.begin(), rowptr.end() - 1);
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
        const idx_t i = a.rowind()[p];
        if (i != j) rowind[cursor[i]++] = j;
      }
    }
  }

  for (idx_t i = 0; i < n; ++i) {
    for (idx_t p = rowptr[i]; p < rowptr[i + 1]; ++p) {
      link_row_entry(rowind[p], i, parent, ancestor);  // k < i, a(i,k) != 0
    }
  }
  return parent;
}

std::vector<idx_t> elimination_tree(const Graph& g,
                                    const std::vector<idx_t>& perm) {
  const idx_t n = g.n;
  if (static_cast<idx_t>(perm.size()) != n) {
    throw std::invalid_argument("elimination_tree: size mismatch");
  }
  const auto iperm = sparse::invert_permutation(perm);
  std::vector<idx_t> parent(n, -1);
  std::vector<idx_t> ancestor(n, -1);
  // Row i of the permuted lower triangle is the neighbours of old
  // vertex perm[i] with a smaller new index (larger ones are skipped).
  for (idx_t i = 0; i < n; ++i) {
    const idx_t v = perm[i];
    for (idx_t p = g.adjptr[v]; p < g.adjptr[v + 1]; ++p) {
      link_row_entry(iperm[g.adjind[p]], i, parent, ancestor);
    }
  }
  return parent;
}

std::vector<idx_t> postorder(const std::vector<idx_t>& parent) {
  const idx_t n = static_cast<idx_t>(parent.size());
  // Build child lists (reverse order so the stack pops them in order).
  std::vector<idx_t> head(n, -1), next(n, -1);
  for (idx_t j = n - 1; j >= 0; --j) {
    const idx_t p = parent[j];
    if (p >= 0) {
      next[j] = head[p];
      head[p] = j;
    }
  }
  std::vector<idx_t> post;
  post.reserve(n);
  std::vector<idx_t> stack;
  // Iterative DFS per root; explicit state to emit in postorder.
  std::vector<idx_t> child_cursor(head);  // next unvisited child
  for (idx_t r = 0; r < n; ++r) {
    if (parent[r] != -1) continue;
    stack.push_back(r);
    while (!stack.empty()) {
      const idx_t v = stack.back();
      const idx_t c = child_cursor[v];
      if (c != -1) {
        child_cursor[v] = next[c];
        stack.push_back(c);
      } else {
        post.push_back(v);
        stack.pop_back();
      }
    }
  }
  if (static_cast<idx_t>(post.size()) != n) {
    throw std::runtime_error("postorder: parent array is not a forest");
  }
  return post;
}

std::vector<idx_t> column_counts(const sparse::CscMatrix& a,
                                 const std::vector<idx_t>& parent) {
  const idx_t n = a.n();
  std::vector<idx_t> counts(n, 1);  // diagonal
  std::vector<idx_t> mark(n, -1);
  // For each row i, the columns j < i with L(i,j) != 0 form the "row
  // subtree": the union of etree paths from each k (a(i,k) != 0, k < i)
  // up to i. Walk each path until hitting a node already marked for i.
  // Row-bucketed traversal (same transpose trick as elimination_tree).
  std::vector<idx_t> rowptr(n + 1, 0);
  for (idx_t j = 0; j < n; ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      const idx_t i = a.rowind()[p];
      if (i != j) ++rowptr[i + 1];
    }
  }
  for (idx_t i = 0; i < n; ++i) rowptr[i + 1] += rowptr[i];
  std::vector<idx_t> rowind(rowptr[n]);
  {
    std::vector<idx_t> cursor(rowptr.begin(), rowptr.end() - 1);
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
        const idx_t i = a.rowind()[p];
        if (i != j) rowind[cursor[i]++] = j;
      }
    }
  }
  std::fill(mark.begin(), mark.end(), idx_t{-1});
  for (idx_t i = 0; i < n; ++i) {
    mark[i] = i;
    for (idx_t p = rowptr[i]; p < rowptr[i + 1]; ++p) {
      idx_t k = rowind[p];
      while (mark[k] != i) {
        mark[k] = i;
        ++counts[k];  // L(i,k) is a nonzero
        k = parent[k];
        if (k < 0) break;  // defensive; cannot happen for k on path to i
      }
    }
  }
  return counts;
}

idx_t factor_nnz(const std::vector<idx_t>& counts) {
  idx_t total = 0;
  for (idx_t c : counts) total += c;
  return total;
}

double factor_flops(const std::vector<idx_t>& counts) {
  double total = 0.0;
  for (idx_t c : counts) {
    const double cc = static_cast<double>(c);
    total += cc * cc;
  }
  return total;
}

bool is_valid_etree(const std::vector<idx_t>& parent) {
  const idx_t n = static_cast<idx_t>(parent.size());
  for (idx_t j = 0; j < n; ++j) {
    if (parent[j] != -1 && (parent[j] <= j || parent[j] >= n)) return false;
  }
  return true;
}

}  // namespace sympack::ordering
