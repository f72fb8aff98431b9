#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace mobile::sim {

const std::array<const char*, Network::kPhaseCount> Network::kPhaseNames = {
    "clear", "send", "account", "adversary", "exchange", "receive"};

namespace {

/// Engine metric ids, registered once at first observed use (the slow
/// registration path never runs on the obs-off path).
struct EngineMetricIds {
  obs::CounterId rounds;
  obs::CounterId messages;
  obs::CounterId sendWords;
  obs::CounterId corruptions;
  obs::HistogramId msgWords;
};

const EngineMetricIds& engineMetricIds() {
  static const EngineMetricIds ids = [] {
    EngineMetricIds m;
    obs::Registry& r = obs::registry();
    m.rounds = r.counter("engine.rounds");
    m.messages = r.counter("engine.messages");
    m.sendWords = r.counter("engine.send_words");
    m.corruptions = r.counter("adv.corruptions");
    m.msgWords = r.histogram("engine.msg_words");
    return m;
  }();
  return ids;
}

}  // namespace

Network::Network(const graph::Graph& g, const Algorithm& algo,
                 std::uint64_t seed, adv::Adversary* adversary,
                 NetworkOptions opts)
    : g_(g),
      algo_(algo),
      opts_(std::move(opts)),
      seed_(seed),
      adversary_(adversary),
      arcTraffic_(static_cast<std::size_t>(g.arcCount()), 0),
      nodeMsgs_(static_cast<std::size_t>(g.nodeCount()), 0),
      nodeMaxWords_(static_cast<std::size_t>(g.nodeCount()), 0),
      nodeWords_(static_cast<std::size_t>(g.nodeCount()), 0),
      nodeDone_(static_cast<std::size_t>(g.nodeCount()), 1) {
  g_.finalize();  // lock the CSR layout before any parallel phase reads it
  plane_ = opts_.planeImpl ? opts_.planeImpl
                          : std::make_shared<MessagePlane>();
  plane_->attach(g_,
                 opts_.numShards > 0 ? opts_.numShards : opts_.numThreads);
  if (adversary_ != nullptr && plane_->partitioned())
    throw std::logic_error(
        "in-process adversary is incompatible with a partitioned plane "
        "(its budget and ledger are global); use net::LossyChannel");
  if (opts_.numThreads > 1)
    pool_ = std::make_unique<util::ThreadPool>(opts_.numThreads);
  rebuildNodes();
}

Network::~Network() = default;

void Network::setAdversary(adv::Adversary* adversary) {
  if (adversary != nullptr && plane_->partitioned())
    throw std::logic_error(
        "in-process adversary is incompatible with a partitioned plane");
  adversary_ = adversary;
}

void Network::rebuildNodes() {
  util::Rng master(seed_);
  // Nodes receive independently split, private randomness streams, so the
  // stream node v observes does not depend on which engine drives it.  On
  // reset() the node objects (and the nodes_ vector) are reused in place
  // when the algorithm provides an in-place re-initializer; otherwise only
  // the vector storage survives and makeNode rebuilds each slot.
  const std::size_t n = static_cast<std::size_t>(g_.nodeCount());
  if (nodes_.size() != n) {
    nodes_.clear();
    nodes_.resize(n);
  }
  for (graph::NodeId v = 0; v < g_.nodeCount(); ++v) {
    auto& slot = nodes_[static_cast<std::size_t>(v)];
    util::Rng rng = master.split(static_cast<std::uint64_t>(v));
    if (slot && algo_.reinitNode && algo_.reinitNode(*slot, v, g_, rng))
      continue;
    slot = algo_.makeNode(v, g_, rng);
  }
  bool localDone = true;
  for (graph::NodeId v = plane_->localNodeLo(); v < plane_->localNodeHi();
       ++v)
    if (!nodes_[static_cast<std::size_t>(v)]->done()) {
      localDone = false;
      break;
    }
  // Resolve across engines even here: every rank must agree whether the
  // run starts at all.
  allDone_ = plane_->resolveAllDone(localDone);
}

void Network::reset(std::uint64_t seed) {
  seed_ = seed;
  round_ = 0;
  messagesSent_ = 0;
  maxWords_ = 0;
  snapshotWords_ = 0;
  plane_->reset();
  std::fill(arcTraffic_.begin(), arcTraffic_.end(), 0);
  phaseMs_.fill(0.0);
  ledger_.clear();
  rebuildNodes();
}

void Network::reset() { reset(seed_); }

void Network::forEachLocalNode(const std::function<void(graph::NodeId)>& fn) {
  const graph::NodeId lo = plane_->localNodeLo();
  const auto n = static_cast<std::size_t>(plane_->localNodeHi() - lo);
  if (pool_) {
    // A lane claims a contiguous block of nodes per atomic fetch, and calls
    // its own copy of this by-value closure (ThreadPool::parallelFor).
    const std::size_t grain = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(pool_->size()) * 4));
    pool_->parallelFor(
        n,
        [fn, lo](std::size_t i) { fn(lo + static_cast<graph::NodeId>(i)); },
        grain);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      fn(lo + static_cast<graph::NodeId>(i));
  }
}

void Network::clearPhase() {
  // Per shard: epoch bump invalidates every header, slab cursors rewind in
  // place.  No frees, and after warm-up no allocations either.  Shards are
  // independent arenas, so the clears fan out across the pool.  ALL shards
  // are cleared even on a partitioned plane -- remote arcs' headers must
  // be invalidated before the exchange installs this round's content.
  ShardedPlane& storage = plane_->storage();
  const std::size_t shards = storage.shardCount();
  if (pool_ && shards > 1) {
    pool_->parallelFor(shards,
                       [&](std::size_t s) { storage.beginRoundShard(s); });
  } else {
    storage.beginRound();
  }
}

void Network::sendPhase() {
  // Safe to parallelize: node v appends only into its own slab inside its
  // own shard and writes only the out-arc headers keyed by sender v
  // (ArcOutbox), and mutates only its own state/RNG.  The
  // bandwidth/congestion tallies fold into this same pass: each node scans
  // its own out-arcs -- the contiguous CSR range starting at the row's
  // firstArc(), all local to its shard -- and deposits its message count /
  // widest message in per-node slots that accountPhase reduces
  // sequentially.
  ShardedPlane& storage = plane_->storage();
  forEachLocalNode([&](graph::NodeId v) {
    ArcOutbox out(g_, v, storage);
    nodes_[static_cast<std::size_t>(v)]->send(round_, out);
    const std::size_t shard = storage.shardOfNode(v);
    const ArcBuffer& buf = storage.shard(shard);
    const graph::ArcId base = storage.arcBase(shard);
    const auto nbs = g_.neighbors(v);
    long sent = 0;
    std::size_t widest = 0;
    std::size_t wordSum = 0;
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      const graph::ArcId a = nbs.firstArc() + static_cast<graph::ArcId>(i);
      const graph::ArcId local = a - base;
      if (!buf.present(local)) continue;
      const std::size_t sz = buf.size(local);
      ++sent;
      widest = std::max(widest, sz);
      wordSum += sz;
      ++arcTraffic_[static_cast<std::size_t>(a)];
    }
    nodeMsgs_[static_cast<std::size_t>(v)] = sent;
    nodeMaxWords_[static_cast<std::size_t>(v)] = widest;
    // No obs hooks in this lambda, by measurement: even a dead
    // `if (obs::enabled())` branch here bloats the closure enough to cost
    // double-digit percent on the MST round-throughput probe.  The word
    // tally rides the existing per-node deposit slots instead, and
    // accountPhase folds it into the registry off the parallel path.
    nodeWords_[static_cast<std::size_t>(v)] = wordSum;
  });
}

void Network::accountPhase() {
  // O(local nodes) reduction of the per-node tallies the send pass
  // deposited.  Bandwidth enforcement happens here, before the adversary
  // acts, exactly as the per-arc scan used to.
  std::size_t widest = 0;
  for (graph::NodeId v = plane_->localNodeLo(); v < plane_->localNodeHi();
       ++v) {
    messagesSent_ += nodeMsgs_[static_cast<std::size_t>(v)];
    widest = std::max(widest, nodeMaxWords_[static_cast<std::size_t>(v)]);
  }
  if (widest > opts_.maxWordsPerMsg)
    throw std::logic_error("message exceeds bandwidth cap");
  maxWords_ = std::max(maxWords_, widest);
  if (obs::enabled()) accountObserved();
}

void Network::accountObserved() {
  // Sequential second scan of the per-node deposit slots: registry
  // traffic stays out of the parallel send lambda (see sendPhase) and --
  // because this body is outlined and cold -- out of accountPhase's fast
  // path when obs is disabled or compiled out.
  const EngineMetricIds& m = engineMetricIds();
  obs::Registry& reg = obs::registry();
  std::uint64_t msgs = 0;
  std::uint64_t words = 0;
  for (graph::NodeId v = plane_->localNodeLo(); v < plane_->localNodeHi();
       ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (nodeMsgs_[i] == 0) continue;
    msgs += static_cast<std::uint64_t>(nodeMsgs_[i]);
    words += nodeWords_[i];
    reg.observe(m.msgWords, nodeMaxWords_[i]);
  }
  if (msgs != 0) {
    reg.add(m.messages, msgs);
    reg.add(m.sendWords, words);
  }
}

void Network::adversaryPhase() {
  // Strictly sequential: the TamperView budget enforcement and the
  // copy-on-touch diff into the CorruptionLedger are order-sensitive
  // contracts.  Cost is O(touched edges): only edges the adversary charged
  // have pre-images, and untouched arcs are unreachable from the view.
  ledger_.beginRound();
  if (adversary_ == nullptr) return;
  ShardedPlane& storage = plane_->storage();
  adv::TamperView view(g_, adversary_->spec(), round_, storage,
                       ledger_.total(), tamperScratch_);
  adversary_->act(view);
  // Ground truth: which touched edges actually changed (a rewrite that
  // reproduces the original message is charged but not a corruption).
  // preImages() is sorted ascending by edge, matching the old full-plane
  // scan (and the old std::map iteration) for deterministic record order.
  const std::uint64_t* arena = view.snapshotArena();
  const bool obsOn = obs::enabled();
  const bool obsTracing = obs::tracing();
  std::uint64_t corrupted = 0;
  for (const auto& p : view.preImages()) {
    if (storage.view(g_.arcOfEdge(p.edge, 0)) !=
            MsgView(p.uvPresent, {arena + p.uvOff, p.uvLen}) ||
        storage.view(g_.arcOfEdge(p.edge, 1)) !=
            MsgView(p.vuPresent, {arena + p.vuOff, p.vuLen})) {
      ledger_.record(p.edge);
      ++corrupted;
      if (obsTracing) {
        // Adversary event trace: one instant per corrupted edge, fed from
        // the same diff that feeds the CorruptionLedger, with the pre-image
        // footprint (words snapshotted for this edge) as context.
        const graph::Edge& ed = g_.edge(p.edge);
        const obs::TraceArg args[] = {
            {"edge", static_cast<std::int64_t>(p.edge)},
            {"u", static_cast<std::int64_t>(ed.u)},
            {"v", static_cast<std::int64_t>(ed.v)},
            {"pre_words", static_cast<std::int64_t>(p.uvLen + p.vuLen)}};
        obs::tracer().instant("adv", "corrupt", args, 4);
      }
    }
  }
  if (obsOn && corrupted != 0)
    obs::registry().add(engineMetricIds().corruptions, corrupted);
  snapshotWords_ += view.snapshotWordsCopied();
}

void Network::receivePhase() {
  // Safe to parallelize: receives read the (frozen) arena and mutate only
  // per-node state.  Doneness is deposited per node here, so run() never
  // needs a second pass over the nodes, only one over these bytes.
  forEachLocalNode([this](graph::NodeId v) {
    ArcInbox in(g_, v, plane_->storage());
    NodeState& node = *nodes_[static_cast<std::size_t>(v)];
    node.receive(round_, in);
    nodeDone_[static_cast<std::size_t>(v)] = node.done() ? 1 : 0;
  });
  // The plane resolves across engines (arena: identity) so every rank
  // stops at the same round -- called unconditionally to keep partitioned
  // engines' barrier counts aligned.
  allDone_ = plane_->resolveAllDone(
      std::find(nodeDone_.begin(), nodeDone_.end(), 0) == nodeDone_.end());
}

void Network::step() {
  ++round_;
  if (obs::enabled()) {
    // One relaxed load + branch decides the whole round: the fast path
    // below carries zero instrumentation (and with the obs build OFF the
    // branch itself folds away).
    stepObserved();
    return;
  }
  clearPhase();
  sendPhase();
  accountPhase();
  adversaryPhase();
  // Cross-engine message movement (arena: no-op).  After this, every arc a
  // local node reads holds exactly what its sender sent this round.
  plane_->exchange(round_);
  receivePhase();
}

void Network::stepObserved() {
  obs::registry().add(engineMetricIds().rounds, 1);
  const obs::TraceArg roundArg[] = {{"round", round_}};
  const obs::Span roundSpan("engine", "round", roundArg, 1);
  std::size_t idx = 0;
  // Wall time per phase accumulates whenever obs is enabled; the nested
  // Span additionally lands a per-phase 'X' event when a tracer is live.
  const auto timed = [&](const char* name, auto&& phase) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      const obs::Span s("engine", name, roundArg, 1);
      phase();
    }
    phaseMs_[idx++] +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  };
  timed("clear", [&] { clearPhase(); });
  timed("send", [&] { sendPhase(); });
  timed("account", [&] { accountPhase(); });
  timed("adversary", [&] { adversaryPhase(); });
  timed("exchange", [&] { plane_->exchange(round_); });
  timed("receive", [&] { receivePhase(); });
}

int Network::run(int maxRounds) {
  int executed = 0;
  while (executed < maxRounds) {
    if (opts_.stopWhenAllDone && allDone_) break;
    step();
    ++executed;
  }
  return executed;
}

void Network::runExact(int count) {
  for (int i = 0; i < count; ++i) step();
}

std::vector<std::uint64_t> Network::outputs() const {
  std::vector<std::uint64_t> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->output());
  return out;
}

std::uint64_t fingerprintOutputs(const std::vector<std::uint64_t>& outputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t out : outputs) {
    h ^= out;
    h *= 0x100000001b3ULL;
    h ^= h >> 31;
  }
  return h;
}

std::uint64_t Network::outputsFingerprint() const {
  return fingerprintOutputs(outputs());
}

long maxEdgeCongestionOf(const graph::Graph& g,
                         const std::vector<long>& arcTraffic) {
  long best = 0;
  for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
    const long t = arcTraffic[static_cast<std::size_t>(g.arcOfEdge(e, 0))] +
                   arcTraffic[static_cast<std::size_t>(g.arcOfEdge(e, 1))];
    best = std::max(best, t);
  }
  return best;
}

long Network::maxEdgeCongestion() const {
  return maxEdgeCongestionOf(g_, arcTraffic_);
}

std::uint64_t faultFreeFingerprint(const graph::Graph& g,
                                   const Algorithm& algo, std::uint64_t seed) {
  Network net(g, algo, seed);
  net.run(algo.rounds);
  return net.outputsFingerprint();
}

}  // namespace mobile::sim
