// Unified entry point for fill-reducing orderings.
#pragma once

#include <string>
#include <vector>

#include "ordering/graph.hpp"
#include "sparse/csc.hpp"

namespace sympack::ordering {

enum class Method {
  kNatural,           // identity
  kRcm,               // reverse Cuthill-McKee
  kAmd,               // approximate minimum degree
  kNestedDissection,  // our Scotch substitute (paper default)
};

Method parse_method(const std::string& name);
std::string method_name(Method method);

/// Compute a fill-reducing permutation (new-to-old) for A. AMD and
/// nested-dissection results come back renumbered in a postorder of
/// their elimination tree (same fill, contiguous subtrees); RCM and
/// natural are returned as computed.
std::vector<idx_t> compute_ordering(const sparse::CscMatrix& a, Method method);

/// Fill statistics of factorizing A under permutation `perm`: factor
/// nonzeros and flops via the elimination-tree column counts.
struct FillStats {
  idx_t factor_nnz = 0;
  double flops = 0.0;
};
FillStats evaluate_ordering(const sparse::CscMatrix& a,
                            const std::vector<idx_t>& perm);

}  // namespace sympack::ordering
