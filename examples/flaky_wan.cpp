// Flaky WAN: a small inter-datacenter mesh runs an interactive
// challenge-response handshake while a flaky backbone corrupts links in
// *bursts* -- long quiet stretches, then a round where dozens of links
// flap at once.  Per-round budgets are useless here; this is Theorem 4.1's
// round-error-rate model, and the rewind-if-error compiler absorbs it by
// detecting transcript divergence and rolling the whole network back.
//
// Expected output (exit code 0 on success): a report showing the two
// bursty global rounds being rewound ("global rounds rewound  : 2 of 15"),
// the potential function Phi ending at or above the handshake's round
// count, and "handshake outcome matches calm network: YES".
#include <cstdio>
#include <map>

#include "adv/strategies.h"
#include "algo/payloads.h"
#include "compile/expander_packing.h"
#include "compile/rewind_compiler.h"
#include "exp/bench_args.h"
#include "graph/generators.h"
#include "sim/network.h"

int main(int argc, char** argv) {
  using namespace mobile;
  const exp::BenchArgs args = exp::parseBenchArgs(argc, argv);

  const graph::Graph g = graph::clique(8);  // 8 datacenters, full mesh
  const auto packing = compile::cliquePackingKnowledge(g);

  // An adaptive handshake between two coordinator sites: each message
  // depends on the previous response (the hard case for naive replay).
  // --smoke shortens the handshake; the burst-rewind story is unchanged.
  const sim::Algorithm handshake = algo::makePingPong(
      g, 0, 1, /*rounds=*/args.smoke ? 2 : 3, 0xaaaa, 0xbbbb, 32);
  const std::uint64_t want = sim::faultFreeFingerprint(g, handshake, 1);

  compile::RewindOptions opts;
  auto shared = std::make_shared<compile::RewindShared>();
  const compile::RewindSchedule sched =
      compile::rewindSchedule(*packing, handshake.rounds, 1, opts);
  compile::computeGamma(g, handshake, 1,
                        static_cast<int>(sched.globalRounds) + handshake.rounds,
                        shared.get());
  const sim::Algorithm compiled =
      compile::compileRewind(g, handshake, packing, 1, opts, shared);

  // The outage script: during the first two global rounds, six specific
  // backbone links flap through the ENTIRE round-initialization phase --
  // more simultaneous tuple corruptions than the correction procedure's
  // d = 4f capacity, so those global rounds are unrecoverable and the
  // network must rewind.  Total: 96 edge-rounds, well under the f*r'
  // round-error-rate contract.
  std::map<int, std::vector<graph::EdgeId>> outage;
  for (int gr = 0; gr < 2; ++gr)
    for (int r = 1; r <= sched.initRounds; ++r)
      outage[gr * sched.roundsPerGlobal + r] = {0, 1, 2, 3, 4, 5};
  adv::ScriptedByzantine backbone(outage, sched.totalRounds, 2026);
  sim::Network net(g, compiled, 7, &backbone);
  net.run(compiled.rounds);

  std::printf("handshake rounds       : %d\n", handshake.rounds);
  std::printf("compiled global rounds : %ld (%ld network rounds)\n",
              static_cast<long>(sched.globalRounds),
              static_cast<long>(sched.totalRounds));
  std::printf("link flaps (bursts)    : %ld edge-rounds\n",
              net.ledger().total());
  int rewinds = 0;
  for (const int good : shared->networkGoodState)
    if (good == 0) ++rewinds;
  std::printf("global rounds rewound  : %d of %zu\n", rewinds,
              shared->networkGoodState.size());
  std::printf("final potential Phi    : %ld (needs >= %d)\n",
              shared->phi.empty() ? -1 : shared->phi.back(),
              handshake.rounds);
  const bool ok = net.outputsFingerprint() == want;
  std::printf("handshake outcome matches calm network: %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
