// The sharded message plane: per-worker arenas over contiguous node ranges.
//
// One ArcBuffer serving every sender keeps all slab bookkeeping (and its
// false-sharing tail) in a single arena.  ShardedPlane splits the node set
// into `shardCount` contiguous ranges and gives each range its own
// ArcBuffer.  Because CSR arc ids are adjacency offsets, a contiguous node
// range [lo, hi) owns the contiguous arc range
// [g.firstOutArc(lo), g.firstOutArc(hi)) -- so shard membership of an arc
// is one binary search over shardCount+1 boundaries, and everything inside
// a shard is plain local offset arithmetic.
//
// Ownership rules (who touches which shard):
//   * node v's sends append into shard(shardOfNode(v)), local slab
//     v - nodeBase(s): the parallel send phase partitions writers by shard
//     construction, so two lanes never share an arena;
//   * receives resolve the sender's shard through the routing table (reads
//     are safe everywhere once sends are done);
//   * the adversary writes through putMsgAdversary(), which lands in the
//     owning shard's dedicated last slab -- the adversary phase is
//     sequential, so one extra writer per shard is fine.
//
// Determinism: message bytes live behind per-arc headers; which slab a
// word landed in is invisible to every reader.  Shard count (like thread
// count) therefore cannot change any observable value -- the golden tests
// in tests/test_arena_determinism.cc pin this at shards {1, 2, 8}.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "sim/arc_buffer.h"
#include "sim/message.h"

namespace mobile::sim {

class ShardedPlane {
 public:
  ShardedPlane() = default;
  ShardedPlane(const graph::Graph& g, int shardCount) {
    attach(g, shardCount);
  }

  /// (Re)shapes the plane: `shardCount` arenas over even contiguous node
  /// ranges of `g` (clamped to [1, max(1, n)]).  Requires a finalized
  /// graph; slab capacity is retained where the shapes match.
  void attach(const graph::Graph& g, int shardCount) {
    const auto n = static_cast<std::size_t>(g.nodeCount());
    const std::size_t s = std::clamp<std::size_t>(
        shardCount < 1 ? 1 : static_cast<std::size_t>(shardCount), 1,
        std::max<std::size_t>(1, n));
    nodeLo_.resize(s + 1);
    arcLo_.resize(s + 1);
    if (shards_.size() != s) shards_.resize(s);
    for (std::size_t i = 0; i <= s; ++i) {
      nodeLo_[i] = static_cast<graph::NodeId>(i * n / s);
      arcLo_[i] = nodeLo_[i] == static_cast<graph::NodeId>(n)
                      ? g.arcCount()
                      : g.firstOutArc(nodeLo_[i]);
    }
    for (std::size_t i = 0; i < s; ++i) {
      if (!shards_[i]) shards_[i] = std::make_unique<ArcBuffer>();
      shards_[i]->attach(
          static_cast<std::size_t>(arcLo_[i + 1] - arcLo_[i]),
          static_cast<std::size_t>(nodeLo_[i + 1] - nodeLo_[i]) + 1);
    }
  }

  [[nodiscard]] std::size_t shardCount() const { return shards_.size(); }

  // --- routing ------------------------------------------------------------
  [[nodiscard]] std::size_t shardOfNode(graph::NodeId v) const {
    const auto it = std::upper_bound(nodeLo_.begin(), nodeLo_.end(), v);
    return static_cast<std::size_t>(it - nodeLo_.begin()) - 1;
  }
  [[nodiscard]] std::size_t shardOfArc(graph::ArcId a) const {
    const auto it = std::upper_bound(arcLo_.begin(), arcLo_.end(), a);
    return static_cast<std::size_t>(it - arcLo_.begin()) - 1;
  }
  /// First node / arc owned by shard `s` (locals are global minus base).
  [[nodiscard]] graph::NodeId nodeBase(std::size_t s) const {
    return nodeLo_[s];
  }
  [[nodiscard]] graph::ArcId arcBase(std::size_t s) const { return arcLo_[s]; }
  [[nodiscard]] ArcBuffer& shard(std::size_t s) { return *shards_[s]; }
  [[nodiscard]] const ArcBuffer& shard(std::size_t s) const {
    return *shards_[s];
  }

  // --- round lifecycle ----------------------------------------------------
  void beginRound() {
    for (auto& b : shards_) b->beginRound();
  }
  /// Per-shard epoch bump so the clear phase can fan out over shards.
  void beginRoundShard(std::size_t s) { shards_[s]->beginRound(); }
  void reset() {
    for (auto& b : shards_) b->reset();
  }

  // --- routed reader surface (global arc ids) -----------------------------
  [[nodiscard]] MsgView view(graph::ArcId a) const {
    const std::size_t s = shardOfArc(a);
    return shards_[s]->view(a - arcLo_[s]);
  }

  // --- routed writer surface (adversary phase, sequential) ----------------
  void putMsgAdversary(graph::ArcId a, const Msg& m) {
    const std::size_t s = shardOfArc(a);
    shards_[s]->putMsg(shards_[s]->adversarySlab(), a - arcLo_[s], m);
  }
  void erase(graph::ArcId a) {
    const std::size_t s = shardOfArc(a);
    shards_[s]->erase(a - arcLo_[s]);
  }

  /// Installs a message received from a remote engine (net::UdpPlane's
  /// exchange phase) as arc `a`'s content for the current round.  Lands in
  /// the owning shard's adversary slab -- safe because a partitioned plane
  /// forbids the in-process adversary, and the exchange phase is a single
  /// sequential writer per engine.
  void putRemote(graph::ArcId a, const std::uint64_t* words,
                 std::size_t len) {
    const std::size_t s = shardOfArc(a);
    shards_[s]->put(shards_[s]->adversarySlab(), a - arcLo_[s], words, len);
  }

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t capacityWords() const {
    std::size_t c = 0;
    for (const auto& b : shards_) c += b->capacityWords();
    return c;
  }
  [[nodiscard]] std::uint64_t wordsAppended() const {
    std::uint64_t c = 0;
    for (const auto& b : shards_) c += b->wordsAppended();
    return c;
  }

 private:
  // unique_ptr: ArcBuffer holds an atomic counter and is pinned in place.
  std::vector<std::unique_ptr<ArcBuffer>> shards_;
  std::vector<graph::NodeId> nodeLo_;  // shardCount+1 node range boundaries
  std::vector<graph::ArcId> arcLo_;    // shardCount+1 arc range boundaries
};

}  // namespace mobile::sim
