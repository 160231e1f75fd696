// Elimination tree machinery (paper §2.2): the etree encodes column
// dependencies of the Cholesky factor and drives supernode detection,
// symbolic factorization, and the task graph.
#pragma once

#include <vector>

#include "ordering/graph.hpp"
#include "sparse/csc.hpp"
#include "sparse/types.hpp"

namespace sympack::ordering {

using sparse::idx_t;

/// Compute the elimination tree of A (lower CSC). parent[j] = parent
/// column of j, or -1 for roots. Liu's algorithm with path compression.
std::vector<idx_t> elimination_tree(const sparse::CscMatrix& a);

/// Elimination tree of P A P^T straight from A's adjacency graph, where
/// `perm` is new-to-old (sparse/permute.hpp): equal to
/// elimination_tree(permute_symmetric(a, perm)) without building the
/// permuted matrix.
std::vector<idx_t> elimination_tree(const Graph& g,
                                    const std::vector<idx_t>& perm);

/// Postorder of the forest given by `parent`; children are visited before
/// parents. Returns the postorder as new-to-old: post[k] = node visited
/// k-th.
std::vector<idx_t> postorder(const std::vector<idx_t>& parent);

/// Column counts of the Cholesky factor L (including the diagonal), i.e.
/// nnz(L(:,j)). Computed by row-subtree traversal in O(nnz(L)).
std::vector<idx_t> column_counts(const sparse::CscMatrix& a,
                                 const std::vector<idx_t>& parent);

/// Total factor nonzeros implied by column counts.
idx_t factor_nnz(const std::vector<idx_t>& counts);

/// Factorization flops (standard column-Cholesky count: sum of
/// counts[j]^2 over columns).
double factor_flops(const std::vector<idx_t>& counts);

/// True if `parent` is a topologically valid forest over n nodes with
/// parent[j] > j or -1 (the etree property after any fill-reducing
/// permutation has been applied).
bool is_valid_etree(const std::vector<idx_t>& parent);

}  // namespace sympack::ordering
