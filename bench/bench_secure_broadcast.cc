// Experiment T5 -- Theorem A.4 (mobile-secure broadcast).
// Claim (paper): ~O(D + sqrt(f b n) + b) rounds via fragments/landmarks.
// Our dispersal substitution costs ~O((D + W) * eta * f)
// (docs/architecture.md section 12, substitution 3).  Measured here: the
// scaling shape in f, read from the compiled schedule, and eavesdropper
// view independence, merged from observe-hook histograms.  The delivery
// grid (n x f x W under a mobile eavesdropper) is the secure_broadcast
// line of campaigns/paper_headline.campaign.
#include <iostream>
#include <map>

#include "adv/strategies.h"
#include "compile/secure_broadcast.h"
#include "exp/bench_args.h"
#include "exp/precompute_cache.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/stats.h"
#include "util/table.h"

using namespace mobile;

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);

  std::cout << "# T5: Mobile-secure broadcast (Theorem A.4 architecture)\n\n";
  std::cout << "## Scaling shape (rounds vs f, W=1, n=16)\n\n";
  {
    const graph::Graph g = graph::clique(16);
    const auto pk = exp::PrecomputeCache::global().starPacking(g, 2);
    std::vector<double> fvals, rounds;
    util::Table shape({"f", "rounds"});
    const std::vector<int> shapeFs = args.smoke
                                         ? std::vector<int>{1, 2, 4}
                                         : std::vector<int>{1, 2, 3, 4, 6, 8};
    for (const int f : shapeFs) {
      const sim::Algorithm a =
          compile::makeMobileSecureBroadcast(g, pk, {1}, f);
      shape.addRow({util::Table::num(f), util::Table::num(a.rounds)});
      fvals.push_back(f);
      rounds.push_back(a.rounds);
    }
    shape.print(std::cout);
    std::cout << "\nlog-log slope rounds vs f: "
              << util::Table::fixed(util::logLogSlope(fvals, rounds), 2)
              << "  (dispersal substitution is linear in f; the paper's "
                 "landmark machinery would flatten this to sqrt)\n";
  }

  std::cout << "\n## View independence of the secret\n\n";
  const graph::Graph g = graph::clique(10);
  const std::uint64_t seedCount = args.smoke ? 16 : 80;
  std::vector<exp::TrialSpec> viewSpecs;
  for (std::uint64_t seed = 0; seed < seedCount; ++seed) {
    for (int which = 0; which < 2; ++which) {
      exp::TrialSpec spec;
      spec.group = which == 0 ? "secret=0" : "secret=~0";
      spec.seed = seed * 2 + static_cast<std::uint64_t>(which);
      spec.graphFactory = [g] { return g; };
      spec.algoFactory = [which](const graph::Graph& gg) {
        const auto pkk = exp::PrecomputeCache::global().starPacking(gg, 2);
        return compile::makeMobileSecureBroadcast(
            gg, pkk, {which == 0 ? 0ULL : ~0ULL}, 2);
      };
      spec.adversaryFactory = [seed](const graph::Graph&) {
        return std::make_unique<adv::RandomEavesdropper>(2, 300 + seed);
      };
      // Histogram the low nibble of every observed u->v word; merged
      // across trials below (each trial only touches its own result).
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
  std::map<std::uint64_t, std::uint64_t> distA, distB;
  for (const auto& r : viewResults) {
    auto& dist = r.group == "secret=0" ? distA : distB;
    for (const auto& [key, count] : r.extra)
      if (key.rfind("nib", 0) == 0)
        dist[std::stoull(key.substr(3))] += static_cast<std::uint64_t>(count);
  }
  std::cout << "TV(secret=0 vs secret=~0) = "
            << util::Table::fixed(util::totalVariation(distA, distB), 4)
            << " (sampling noise level; " << viewResults.size()
            << " trials on " << args.threads << " thread(s))\n";

  exp::maybeWriteReports(args, "T5_secure_broadcast", viewResults);
  return 0;
}
