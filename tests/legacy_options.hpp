// The pre-fast-path transport settings, for tests whose subject is the
// legacy protocol: golden hashes captured on it, exact CommStats parity
// across drive modes, rendezvous reference legs. The library defaults are
// the eager/coalesced transport (core/options.hpp); these tests pin the
// old wire protocol explicitly so they keep checking what they name.
//
// Likewise the ordering and supernode partition those hashes were
// captured on: the raw nested-dissection permutation (before
// compute_ordering renumbered it in an etree postorder) and the old
// relaxed-amalgamation thresholds; the inbox rule they ran under
// (progress() draining the whole inbox before any ready task runs); and
// the 2D block-cyclic map they were all captured on (the default became
// the subtree layer later).
#pragma once

#include <utility>

#include "core/options.hpp"
#include "ordering/graph.hpp"
#include "ordering/nd.hpp"
#include "pgas/runtime.hpp"
#include "sparse/permute.hpp"

namespace sympack {

/// The progress rule every schedule captured before arrival-ordered
/// progress ran under: drain the whole inbox in enqueue order, merging
/// the clock to each arrival.
inline constexpr pgas::Progress kLegacyProgress = pgas::Progress::kDrainAll;

/// Pure rendezvous (paper Fig. 4): no eager inlining, no coalescing.
inline core::CommOptions legacy_comm() {
  core::CommOptions comm;
  comm.eager_bytes = 0;
  comm.coalesce = false;
  return comm;
}

/// A matrix and the solver options to factor it with.
struct OrderedProblem {
  sparse::CscMatrix a;
  core::SolverOptions opts;
};

/// `a` pre-permuted with the raw nested-dissection ordering and `opts`
/// set to keep it (natural ordering), to amalgamate with the old
/// (8, 0.15) thresholds and to map 2D block-cyclically: the supernode
/// partition and map every golden captured before the etree postorder
/// was factored on.
inline OrderedProblem legacy_ordered(const sparse::CscMatrix& a,
                                     core::SolverOptions opts = {}) {
  opts.mapping = symbolic::Mapping::Kind::k2dBlockCyclic;
  opts.ordering = ordering::Method::kNatural;
  opts.symbolic.relax_small = 8;
  opts.symbolic.relax_ratio = 0.15;
  return {sparse::permute_symmetric(
              a, ordering::nested_dissection(ordering::build_graph(a))),
          std::move(opts)};
}

}  // namespace sympack
