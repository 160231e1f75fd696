// Ablation E: block-to-process mapping. The paper argues the 2D
// block-cyclic distribution "has the advantage of reducing the presence
// of serial bottlenecks, as a 1D row or column cyclic distribution would
// assign excessive work to each process" (§3.3). This bench quantifies
// that claim, next to the two locality-aware maps: subtree-to-subcube
// (proportional) and the default subtree layer (bottom subtrees on
// single ranks, the 2D grid above them).
//
// Options: --matrix flan --scale 1.0 --nodes 4,16 --ppn 4
#include <cstdio>

#include "common.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace sympack;
  const support::Options opts(argc, argv);
  const auto info = bench::make_matrix(opts.get_string("matrix", "flan"),
                                       opts.get_double("scale", 1.0));
  const auto nodes_list = opts.get_int_list("nodes", {4, 16});
  const int ppn = static_cast<int>(opts.get_int("ppn", 4));

  std::printf("== Ablation: block-to-process mapping (%s) ==\n",
              info.name.c_str());
  support::AsciiTable table(
      {"nodes", "2D block-cyclic (s)", "1D row-cyclic (s)",
       "1D col-cyclic (s)", "proportional (s)", "subtree layer (s)"});
  for (const auto nodes : nodes_list) {
    std::vector<std::string> row = {std::to_string(nodes)};
    for (const auto kind : {symbolic::Mapping::Kind::k2dBlockCyclic,
                            symbolic::Mapping::Kind::kRowCyclic,
                            symbolic::Mapping::Kind::kColCyclic,
                            symbolic::Mapping::Kind::kProportional,
                            symbolic::Mapping::Kind::kSubtreeLayer}) {
      pgas::Runtime::Config cfg;
      cfg.nranks = static_cast<int>(nodes) * ppn;
      cfg.ranks_per_node = ppn;
      pgas::Runtime rt(cfg);
      core::SolverOptions sopts;
      sopts.numeric = false;
      sopts.ordering = ordering::Method::kNatural;  // pre-permuted
      sopts.mapping = kind;
      core::SymPackSolver solver(rt, sopts);
      solver.symbolic_factorize(info.matrix);
      solver.factorize();
      row.push_back(support::AsciiTable::fmt(
          solver.report().factor_sim_s, 4));
    }
    table.add_row(row);
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("expected shape: 2D block-cyclic beats both 1D mappings at "
              "scale (paper §3.3); the locality-aware maps (proportional, "
              "subtree layer) can beat all three.\n");
  return 0;
}
