// The UDP message plane's headline invariant: a byz_tree-compiled
// execution split over a multi-rank plane behind a lossy channel
// (drop=0.1 reorder=0.1 dup=0.05) produces the bit-identical output
// fingerprint AND accounting (messages, max words, max congestion) of the
// single-process arena plane -- the transport is an implementation detail
// the algorithm cannot observe.  And when the network is unusable, a trial
// degrades to a structured per-trial error, never a hang (watchdog
// enforced here).
//
// Ranks are plain threads over a net::MemHub, each driving the full
// Transport -> LossyChannel -> PerfectLink -> UdpPlane stack; the
// multi-process path in `mc_campaign --spawn N` runs the identical code
// over real UDP sockets.
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "net/datagram.h"
#include "net/transport.h"
#include "net/udp_plane.h"
#include "scn/registry.h"
#include "scn/scenario.h"
#include "sim/network.h"

using namespace mobile;

namespace {

scn::Params goldenPoint() {
  return scn::Params::fromTokens(
      "graph=clique n=8 algo=gossip mask=32 compile=byz_tree f=2 seed=3");
}

/// Runs the golden point on `world` MemHub-backed ranks under `faults`,
/// one thread per rank.  Specs must be prebuilt (TrialBuilder is not
/// thread-safe).  Returns one TrialResult per rank.
std::vector<exp::TrialResult> runRanks(int world,
                                       const std::vector<exp::TrialSpec>& specs,
                                       const net::FaultSpec& faults,
                                       const net::PerfectLinkOptions& linkOpts,
                                       const net::UdpPlaneOptions& planeOpts) {
  net::MemHub hub(world);
  std::vector<exp::TrialResult> results(static_cast<std::size_t>(world));
  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      net::Transport transport(hub.open(r), r, world,
                               net::RealClock::instance());
      exp::TrialSpec spec = specs[static_cast<std::size_t>(r)];
      spec.planeFactory = [&transport, faults, linkOpts,
                           planeOpts](const graph::Graph&) {
        return std::make_shared<net::UdpPlane>(&transport, faults, linkOpts,
                                               planeOpts);
      };
      results[static_cast<std::size_t>(r)] = exp::runTrial(spec);
    });
  }
  for (auto& t : ranks) t.join();
  return results;
}

}  // namespace

TEST(NetPlane, LossyMultiRankMatchesArenaGolden) {
  scn::TrialBuilder builder;
  const exp::TrialResult arena = exp::runTrial(builder.build(goldenPoint(),
                                                            "golden"));
  ASSERT_TRUE(arena.ok);

  constexpr int kWorld = 3;
  std::vector<exp::TrialSpec> specs;
  for (int r = 0; r < kWorld; ++r)
    specs.push_back(builder.build(goldenPoint(), "golden"));

  net::FaultSpec faults;
  faults.drop = 0.1;
  faults.reorder = 0.1;
  faults.duplicate = 0.05;
  faults.seed = 42;
  net::UdpPlaneOptions planeOpts;
  planeOpts.session = 0xf15c;

  const auto results =
      runRanks(kWorld, specs, faults, net::PerfectLinkOptions{}, planeOpts);

  // Rank 0 holds the merged, globally exact trial: bit-identical to arena.
  ASSERT_TRUE(results[0].record);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[0].error.empty()) << results[0].error;
  EXPECT_EQ(results[0].fingerprint, arena.fingerprint);
  EXPECT_EQ(results[0].rounds, arena.rounds);
  EXPECT_EQ(results[0].messages, arena.messages);
  EXPECT_EQ(results[0].maxWords, arena.maxWords);
  EXPECT_EQ(results[0].maxCongestion, arena.maxCongestion);
  EXPECT_EQ(results[0].corruptions, arena.corruptions);
  // Replicas shipped their slices to rank 0 and must not be recorded.
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_FALSE(results[static_cast<std::size_t>(r)].record) << r;
    EXPECT_TRUE(results[static_cast<std::size_t>(r)].error.empty())
        << results[static_cast<std::size_t>(r)].error;
  }
}

TEST(NetPlane, TotalLossDegradesToStructuredErrorNotHang) {
  scn::TrialBuilder builder;
  constexpr int kWorld = 2;
  std::vector<exp::TrialSpec> specs;
  for (int r = 0; r < kWorld; ++r)
    specs.push_back(builder.build(goldenPoint(), "golden"));

  // A dead network: every egress datagram dropped.  The retry budget must
  // exhaust into a sim::PlaneError that runTrial converts to a structured
  // per-trial record -- bounded by the watchdog below, never a hang.
  net::FaultSpec faults;
  faults.drop = 1.0;
  net::PerfectLinkOptions linkOpts;
  linkOpts.rtoUs = 500;
  linkOpts.maxRetries = 3;
  net::UdpPlaneOptions planeOpts;
  planeOpts.session = 0xdead;
  planeOpts.roundTimeoutUs = 200'000;

  auto fut = std::async(std::launch::async, [&] {
    return runRanks(kWorld, specs, faults, linkOpts, planeOpts);
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "trial over a dead network hung instead of erroring";
  const auto results = fut.get();
  for (int r = 0; r < kWorld; ++r) {
    const exp::TrialResult& res = results[static_cast<std::size_t>(r)];
    EXPECT_FALSE(res.ok) << r;
    EXPECT_FALSE(res.error.empty()) << r;
  }
  // The headline failure is the transport, not a mystery: the error names
  // the retry budget or the round barrier timeout.
  const std::string& e0 = results[0].error;
  EXPECT_TRUE(e0.find("retry budget") != std::string::npos ||
              e0.find("timed out") != std::string::npos ||
              e0.find("timeout") != std::string::npos)
      << e0;
}

TEST(NetPlane, SingleProcessUdpTransportDegeneratesToArena) {
  // Without MOBILE_NET_WORLD the scn-built udp plane has no transport and
  // zero cross arcs: same results as arena, still recorded.
  scn::TrialBuilder builder;
  const exp::TrialResult arena = exp::runTrial(builder.build(goldenPoint(),
                                                            "golden"));
  scn::Params p = goldenPoint();
  p.set("transport", "udp");
  p.set("drop", "0.1");
  p.set("reorder", "0.1");
  p.set("dup", "0.05");
  const exp::TrialResult udp = exp::runTrial(builder.build(p, "golden_udp"));
  EXPECT_TRUE(udp.ok) << udp.error;
  EXPECT_TRUE(udp.record);
  EXPECT_EQ(udp.fingerprint, arena.fingerprint);
  EXPECT_EQ(udp.messages, arena.messages);
}
