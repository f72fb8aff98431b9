// Experiment T3 -- Theorem 1.2 (static-to-mobile secure compilation).
// Claims: r' = 2r + t rounds; f' = floor(f(t+1)/(r+t)) mobile resilience;
// outputs equal the fault-free run; adversary views are input-independent.
// Measured here: the total-variation distance between eavesdropper views
// under two different inputs, merged from observe-hook histograms.  Round
// counts and output equivalence across payloads, graph families and t are
// the static_to_mobile* lines of campaigns/paper_headline.campaign.
#include <iostream>
#include <map>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/static_to_mobile.h"
#include "exp/bench_args.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/stats.h"
#include "util/table.h"

using namespace mobile;

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);

  std::cout << "# T3: Static-to-mobile compiler (Theorem 1.2)\n\n";
  std::cout << "## View indistinguishability across inputs (perfect "
               "security, measured statistically)\n\n";
  const graph::Graph g = graph::cycle(8);
  const std::vector<std::uint64_t> in1(8, 1), in2(8, 250);
  const std::uint64_t seeds = args.smoke ? 40 : 200;
  std::vector<exp::TrialSpec> viewSpecs;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    for (int which = 0; which < 2; ++which) {
      exp::TrialSpec spec;
      spec.group = which == 0 ? "input=x1" : "input=x2";
      spec.seed = seed * 2 + static_cast<std::uint64_t>(which);
      spec.graphFactory = [g] { return g; };
      spec.algoFactory = [which, in1, in2](const graph::Graph& gg) {
        const sim::Algorithm inner =
            algo::makeGossipHash(gg, 3, which == 0 ? in1 : in2);
        return compile::compileStaticToMobile(gg, inner, 6);
      };
      spec.adversaryFactory = [](const graph::Graph&) {
        return std::make_unique<adv::CampingEavesdropper>(
            std::vector<graph::EdgeId>{0, 4}, 2);
      };
      spec.observe = [](const sim::Network&, const adv::Adversary* adv,
                        exp::TrialResult& r) {
        for (const auto& rec : adv->viewLog())
          if (rec.uv.present)
            r.extra["nib" + std::to_string(rec.uv.at(0) & 0xf)] += 1.0;
      };
      viewSpecs.push_back(std::move(spec));
    }
  }
  exp::ExperimentDriver driver({args.threads});
  const std::vector<exp::TrialResult> viewResults = driver.runAll(viewSpecs);
  // Merge per-trial histograms: by input for the signal TV, by seed
  // parity for the same-distribution noise floor.
  std::map<std::uint64_t, std::uint64_t> distA, distB, nullA, nullB;
  for (const auto& r : viewResults) {
    auto& dist = r.group == "input=x1" ? distA : distB;
    auto& nullD = (r.seed / 2) % 2 == 0 ? nullA : nullB;
    for (const auto& [key, count] : r.extra)
      if (key.rfind("nib", 0) == 0) {
        const std::uint64_t nib = std::stoull(key.substr(3));
        dist[nib] += static_cast<std::uint64_t>(count);
        nullD[nib] += static_cast<std::uint64_t>(count);
      }
  }
  const double tv = util::totalVariation(distA, distB);
  const double nullTv = util::totalVariation(nullA, nullB);
  util::Table sec({"graph", "seeds", "TV(view|x1, view|x2)", "null TV est",
                   "indistinguishable?"});
  sec.addRow({"cycle 8", util::Table::num(seeds), util::Table::fixed(tv, 4),
              util::Table::fixed(nullTv, 4),
              util::Table::boolean(tv < 2.5 * (nullTv + 0.01))});
  sec.print(std::cout);
  std::cout << "\npaper: perfect security (views identically distributed); "
               "measured: TV between inputs matches the same-input sampling "
               "noise floor.\n";

  exp::maybeWriteReports(args, "T3_static_to_mobile", viewResults);
  return 0;
}
