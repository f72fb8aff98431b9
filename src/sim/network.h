// The synchronous CONGEST network engine.
//
// Drives the round schedule
//     all nodes send(i)  ->  adversary acts  ->  all nodes receive(i)
// with deterministic seeding, message-size enforcement, per-edge congestion
// accounting, and ground-truth corruption recording (the diff between each
// touched edge's copy-on-touch pre-image and the post-adversary plane feeds
// the CorruptionLedger).
//
// One round is six explicit phases (see step()): clearPhase, sendPhase,
// accountPhase, adversaryPhase, the plane's exchange hook, receivePhase.
// Messages live behind a MessagePlane (sim/message_plane.h): the default
// arena plane is the in-process sharded arena (sim/sharded_plane.h) with an
// inert exchange, while net::UdpPlane partitions the node set over
// processes and ships cross-range arcs over sockets between the adversary
// and receive phases.  clearPhase bumps each shard's epoch (fanned out over
// shards), sendPhase appends into per-sender slabs inside the sender's
// shard (and folds the bandwidth/congestion tallies into the same parallel
// pass, deposited in per-node slots), accountPhase is the O(local nodes)
// sequential reduction of those slots, and adversaryPhase diffs only the
// edges the TamperView touched -- O(f), not O(arcs x words).
//
// On a partitioned plane the engine drives only its local node range
// [plane->localNodeLo(), localNodeHi()): sends, receives, and the
// accounting tallies cover local nodes, allDone is resolved across engines
// through the plane's round barrier, and the per-engine accounting is
// merged post-run through MessagePlane::mergeTrial (exp::runTrial does
// this).  The in-process scripted adversary is a global, sequential
// contract and is rejected on a partitioned plane -- inject faults with
// net::LossyChannel instead.
//
// With NetworkOptions::numThreads > 1 the send and receive phases run in
// parallel over nodes -- sends append to the sender's own slab and write
// disjoint arc headers keyed by sender, receives only read the plane --
// while the accounting reduction and adversary phases stay sequential so
// the CorruptionLedger contract and the budget enforcement are untouched.
// The parallel path produces bit-identical outputs (and
// outputsFingerprint()) to the sequential path PROVIDED node callbacks
// touch only per-node state: algorithms built with a cross-node
// instrumentation side channel (ByzShared, RewindShared,
// ScheduledBroadcastShared, ExpanderPackingResult) write shared containers
// from inside send()/receive() and must run with numThreads = 1.  The same
// per-node-state property is what makes an algorithm safe to partition
// over a multi-process plane.  Trial-level parallelism
// (exp::ExperimentDriver) is always safe -- each trial owns its own side
// channels.
//
// docs/architecture.md spells out the contracts this header pins down:
// the round schedule, the corruption ground truth, the
// bandwidth/congestion accounting, the threading contract, and (section 9)
// the message-plane determinism contract.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "adv/adversary.h"
#include "graph/graph.h"
#include "sim/message.h"
#include "sim/message_plane.h"
#include "sim/node.h"
#include "sim/sharded_plane.h"

namespace mobile::util {
class ThreadPool;
}

namespace mobile::sim {

struct NetworkOptions {
  /// Per-message word cap (base CONGEST = 1 word; compiled protocols bundle
  /// wider logical messages -- experiments report normalized round counts
  /// via maxWordsObserved()).
  std::size_t maxWordsPerMsg = 1u << 16;
  /// Stop early once all nodes report done().
  bool stopWhenAllDone = true;
  /// Execution lanes for the send/receive phases.  1 (the default) is the
  /// strictly sequential engine; >1 parallelizes over nodes with
  /// bit-identical results for algorithms whose nodes touch only per-node
  /// state (see the threading contract above -- shared-instrumentation
  /// algorithms must stay at 1).
  int numThreads = 1;
  /// Arena shards for the message plane (contiguous node ranges, one
  /// ArcBuffer each -- see sim/sharded_plane.h).  0 (the default) follows
  /// numThreads; any value is clamped to [1, nodeCount].  Shard count is
  /// an execution detail: observable results are bit-identical at every
  /// setting (pinned by tests/test_arena_determinism.cc).
  int numShards = 0;
  /// Externally-built message plane (e.g. net::UdpPlane; src/sim cannot
  /// depend on src/net); null selects the in-process sharded arena.
  /// Shared: the transport session inside may outlive any single Network
  /// (trial rewinds reuse it).
  std::shared_ptr<MessagePlane> planeImpl;
};

class Network {
 public:
  /// The network owns its CorruptionLedger; read it through ledger().
  Network(const graph::Graph& g, const Algorithm& algo, std::uint64_t seed,
          adv::Adversary* adversary = nullptr, NetworkOptions opts = {});
  ~Network();

  /// Runs up to maxRounds; returns rounds actually executed.
  int run(int maxRounds);

  /// Runs exactly `count` further rounds (ignores done()).
  void runExact(int count);

  /// Rewinds the network to round 0 with fresh node state seeded from
  /// `seed`, reusing the arena slabs, traffic buffers, and -- when the
  /// algorithm provides reinitNode -- the node objects themselves: the
  /// cheap way for trial drivers to run many seeds over one graph.
  /// Counters and the ledger are cleared; the installed adversary is NOT
  /// touched (strategies are stateful -- swap in a fresh one via
  /// setAdversary()).
  void reset(std::uint64_t seed);
  /// reset() keeping the construction seed.
  void reset();

  /// Replaces the adversary (nullptr = fault-free) from the next round on.
  /// Rejected on a partitioned plane (global sequential contract).
  void setAdversary(adv::Adversary* adversary);

  [[nodiscard]] NodeState& node(graph::NodeId v) {
    return *nodes_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const NodeState& node(graph::NodeId v) const {
    return *nodes_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] const graph::Graph& graph() const { return g_; }
  [[nodiscard]] int roundsExecuted() const { return round_; }
  /// Cached conjunction of node done() flags (plane-resolved across
  /// engines when partitioned), refreshed at construction, reset(), and
  /// the end of every step() -- run() consults the cache instead of
  /// rescanning the whole graph before each round.
  [[nodiscard]] bool allDone() const { return allDone_; }

  /// All node outputs, index = node id.  On a partitioned plane only the
  /// local slice is live -- exp::runTrial merges slices across engines
  /// through MessagePlane::mergeTrial.
  [[nodiscard]] std::vector<std::uint64_t> outputs() const;
  /// Order-stable digest of outputs for equivalence checks.
  [[nodiscard]] std::uint64_t outputsFingerprint() const;

  // --- accounting ---------------------------------------------------------
  // Local-engine values; globally exact on the arena plane, per-rank
  // slices on a partitioned plane until mergeTrial combines them.
  [[nodiscard]] long messagesSent() const { return messagesSent_; }
  [[nodiscard]] long maxEdgeCongestion() const;
  /// Widest message observed (in 64-bit words); normalized CONGEST rounds
  /// = roundsExecuted() * maxWordsObserved().
  [[nodiscard]] std::size_t maxWordsObserved() const { return maxWords_; }
  [[nodiscard]] const adv::CorruptionLedger& ledger() const { return ledger_; }

  /// The sharded arena message storage (tests and probes; nodes never
  /// touch it directly).
  [[nodiscard]] const ShardedPlane& arcs() const { return plane_->storage(); }
  /// The plane driving this engine (arena by default).
  [[nodiscard]] MessagePlane& plane() { return *plane_; }
  /// Per-out-arc traffic counts (index = CSR arc id; local senders only on
  /// a partitioned plane).
  [[nodiscard]] const std::vector<long>& arcTraffic() const {
    return arcTraffic_;
  }
  /// Cumulative words materialized by the adversary's copy-on-touch
  /// snapshots -- the O(touched edges) ledger-cost contract is asserted
  /// against this (see tests/test_arena_determinism.cc).
  [[nodiscard]] std::uint64_t adversarySnapshotWords() const {
    return snapshotWords_;
  }

  // --- observability ------------------------------------------------------
  /// Phase order of step(); index space of phaseMillis()/kPhaseNames.
  static constexpr std::size_t kPhaseCount = 6;
  /// "clear", "send", "account", "adversary", "exchange", "receive".
  static const std::array<const char*, kPhaseCount> kPhaseNames;
  /// Accumulated wall time per phase (ms) since construction/reset().
  /// Recorded only while obs::enabled() -- all zeros otherwise (step()
  /// takes an untimed fast path; see stepObserved()).
  [[nodiscard]] const std::array<double, kPhaseCount>& phaseMillis() const {
    return phaseMs_;
  }

 private:
  void step();
  /// step() with per-phase timing, round/phase trace spans, adversary
  /// corruption instants, and registry tallies.  Taken only when
  /// obs::enabled(); emits nothing that feeds back into the run --
  /// goldens stay byte-identical (tests/test_obs.cc).  Kept out of line
  /// and cold so its span/timing machinery never degrades the untimed
  /// step() fast path's code layout (measured: letting the optimizer
  /// merge the two paths costs >20% on the MST round-throughput probe).
  [[gnu::noinline, gnu::cold]] void stepObserved();
  /// The obs-enabled tail of accountPhase (registry fold of the per-node
  /// deposit slots); outlined and cold for the same reason.
  [[gnu::noinline, gnu::cold]] void accountObserved();
  // The phases of one round, in order.  clear/account/adversary are
  // sequential; send/receive parallelize over (local) nodes when
  // numThreads > 1 (send also deposits per-node bandwidth tallies that
  // accountPhase reduces); the plane's exchange hook runs between
  // adversary and receive.
  void clearPhase();
  void sendPhase();
  void accountPhase();
  void adversaryPhase();
  void receivePhase();

  /// Runs fn(v) for every locally-driven node, on the pool when one is
  /// configured.
  void forEachLocalNode(const std::function<void(graph::NodeId)>& fn);
  void rebuildNodes();

  const graph::Graph& g_;
  Algorithm algo_;
  NetworkOptions opts_;
  std::uint64_t seed_;
  adv::Adversary* adversary_;
  adv::CorruptionLedger ledger_;
  std::unique_ptr<util::ThreadPool> pool_;  // only when numThreads > 1
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::shared_ptr<MessagePlane> plane_;
  std::vector<long> arcTraffic_;  // per out-arc, written by its sender only
  // Per-node send tallies deposited by the parallel send pass and reduced
  // sequentially in accountPhase (index = node id, valid for one round).
  std::vector<long> nodeMsgs_;
  std::vector<std::size_t> nodeMaxWords_;
  std::vector<std::size_t> nodeWords_;  // total words sent, same contract
  std::vector<char> nodeDone_;  // per node, from receive; 1 off this rank
  // Per-round adversary arena (touched set + copy-on-touch snapshots),
  // rewound in place by each round's TamperView -- steady state allocates
  // nothing.
  adv::TamperScratch tamperScratch_;
  long messagesSent_ = 0;
  std::size_t maxWords_ = 0;
  std::uint64_t snapshotWords_ = 0;
  std::array<double, kPhaseCount> phaseMs_{};  // obs-only; zero otherwise
  int round_ = 0;
  bool allDone_ = false;
};

/// Order-stable digest over an arbitrary output vector; outputsFingerprint()
/// is exactly this over outputs().  Exposed so experiments can fingerprint
/// an expected output vector without running a reference network.
[[nodiscard]] std::uint64_t fingerprintOutputs(
    const std::vector<std::uint64_t>& outputs);

/// Max over edges of the two directed arcs' summed traffic --
/// Network::maxEdgeCongestion() over its own counts, exposed so the trial
/// layer can recompute congestion from plane-merged traffic vectors.
[[nodiscard]] long maxEdgeCongestionOf(const graph::Graph& g,
                                       const std::vector<long>& arcTraffic);

/// Runs `algo` fault-free on `g` for its declared round count and returns
/// the outputs fingerprint -- the reference for compiled-equivalence tests.
[[nodiscard]] std::uint64_t faultFreeFingerprint(const graph::Graph& g,
                                                 const Algorithm& algo,
                                                 std::uint64_t seed);

}  // namespace mobile::sim
