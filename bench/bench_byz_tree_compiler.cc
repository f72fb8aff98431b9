// Experiment T7 -- Theorem 3.5 (byzantine compilation over tree packings).
// Claims: any r-round algorithm compiles to ~O(DTP)-overhead-per-round
// f-mobile-resilient form given a weak (k, DTP, eta) packing; correctness
// holds under arbitrary mobile strategies.
// Measured here: the per-simulated-round overhead decomposition, read from
// ByzSchedule internals.  The correctness grid (strategies x f x n) and the
// L0-iterative vs sparse-one-shot ablation are the byz_tree and
// byz_correction_modes lines of campaigns/paper_headline.campaign.
#include <iostream>

#include "compile/byz_tree_compiler.h"
#include "compile/expander_packing.h"
#include "exp/bench_args.h"
#include "graph/generators.h"
#include "util/table.h"

using namespace mobile;

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);

  std::cout << "# T7: Byzantine tree-packing compiler (Theorem 3.5)\n\n";
  std::cout << "## Overhead decomposition (schedule anatomy)\n\n";
  util::Table anatomy({"n", "f", "z iters", "sketch steps", "ecc steps",
                       "chunks", "rounds/iter", "rounds/sim-round"});
  const std::vector<std::pair<int, int>> anatomyGrid =
      args.smoke ? std::vector<std::pair<int, int>>{{12, 1}, {16, 2}}
                 : std::vector<std::pair<int, int>>{
                       {12, 1}, {16, 2}, {24, 3}, {32, 4}};
  for (const auto& [n, f] : anatomyGrid) {
    const graph::Graph g = graph::clique(n);
    const auto pk = compile::cliquePackingKnowledge(g);
    const compile::ByzSchedule s =
        compile::ByzSchedule::compute(*pk, 1, f, {});
    anatomy.addRow({util::Table::num(n), util::Table::num(f),
                    util::Table::num(s.z), util::Table::num(s.sketchSteps),
                    util::Table::num(s.eccSteps), util::Table::num(s.chunks),
                    util::Table::num(s.roundsPerIteration),
                    util::Table::num(s.roundsPerSimRound)});
  }
  anatomy.print(std::cout);

  std::cout << "\npaper: overhead ~O(DTP) per round hiding log factors "
               "(z = O(log f) iterations x eta x rho, plus the ECC chunks); "
               "DTP = 2 on cliques so the overhead is polylog -- visible "
               "above as the f-driven growth of z and chunks only.\n";

  exp::maybeWriteReports(args, "T7_byz_tree_compiler", {});
  return 0;
}
