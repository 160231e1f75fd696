#include "ordering/ordering.hpp"

#include <stdexcept>

#include "ordering/amd.hpp"
#include "ordering/etree.hpp"
#include "ordering/nd.hpp"
#include "ordering/rcm.hpp"
#include "sparse/permute.hpp"

namespace sympack::ordering {

Method parse_method(const std::string& name) {
  if (name == "natural" || name == "none") return Method::kNatural;
  if (name == "rcm" || name == "RCM") return Method::kRcm;
  if (name == "amd" || name == "AMD" || name == "MMD") return Method::kAmd;
  if (name == "nd" || name == "ND" || name == "scotch" || name == "SCOTCH") {
    return Method::kNestedDissection;
  }
  throw std::invalid_argument("unknown ordering method: " + name);
}

std::string method_name(Method method) {
  switch (method) {
    case Method::kNatural: return "natural";
    case Method::kRcm: return "rcm";
    case Method::kAmd: return "amd";
    case Method::kNestedDissection: return "nd";
  }
  return "?";
}

std::vector<idx_t> compute_ordering(const sparse::CscMatrix& a,
                                    Method method) {
  if (method == Method::kNatural) {
    return sparse::identity_permutation(a.n());
  }
  const Graph g = build_graph(a);
  if (method == Method::kRcm) return rcm(g);
  const auto perm = method == Method::kAmd ? amd(g) : nested_dissection(g);
  // Renumber in an etree postorder: an equivalent ordering (same fill),
  // but every subtree becomes a contiguous column range, so each chain
  // in the tree lies next to its parent for supernode amalgamation.
  return sparse::compose(perm, postorder(elimination_tree(g, perm)));
}

FillStats evaluate_ordering(const sparse::CscMatrix& a,
                            const std::vector<idx_t>& perm) {
  const auto permuted = sparse::permute_symmetric(a, perm);
  const auto parent = elimination_tree(permuted);
  const auto counts = column_counts(permuted, parent);
  FillStats stats;
  stats.factor_nnz = factor_nnz(counts);
  stats.flops = factor_flops(counts);
  return stats;
}

}  // namespace sympack::ordering
