// Per-node protocol state machines and their I/O surfaces.
//
// The simulator drives every node through the synchronous CONGEST schedule:
//   for round i = 1..R:  all send(i)  ->  adversary acts  ->  all receive(i)
// KT1 knowledge: a node addresses neighbors by their NodeId (it knows the
// ids of its neighbors); topology beyond that is only available where the
// paper grants it (supported-CONGEST / preprocessing outputs).
//
// Outbox/Inbox are interfaces: the Network binds them to the arena message
// plane (sim/arc_buffer.h), while compilers bind both to one NeighborSlots
// per node so an inner algorithm's rounds can be captured, corrected and
// re-delivered -- the round-by-round simulation pattern every compiler in
// the paper uses.  Reads hand out MsgView (zero-copy, sim/message.h),
// valid until the viewed slot or slab is next written; writes accept
// owning Msg values, which the arena plane copies into its sender slab.
// Both bindings treat a non-neighbor alike: a send to one asserts in
// debug builds and is dropped otherwise, and a read from one is absent.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "sim/arc_buffer.h"
#include "sim/message.h"
#include "sim/sharded_plane.h"
#include "util/rng.h"

namespace mobile::sim {

using graph::ArcId;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Write surface handed to a node during send().
class Outbox {
 public:
  Outbox(const Graph& g, NodeId self) : g_(g), self_(self) {}
  virtual ~Outbox() = default;

  /// Sends `m` to neighbor `to` this round (overwrites earlier send).
  virtual void to(NodeId to, const Msg& m) = 0;

  /// Broadcast to every neighbor.
  void toAll(const Msg& m) {
    for (const auto& nb : g_.neighbors(self_)) to(nb.node, m);
  }

  [[nodiscard]] NodeId self() const { return self_; }

 protected:
  const Graph& g_;
  NodeId self_;
};

/// Read surface handed to a node during receive().
class Inbox {
 public:
  Inbox(const Graph& g, NodeId self) : g_(g), self_(self) {}
  virtual ~Inbox() = default;

  /// Message that arrived from neighbor `from` (absent view if none).
  [[nodiscard]] virtual MsgView from(NodeId from) const = 0;

  [[nodiscard]] NodeId self() const { return self_; }

 protected:
  const Graph& g_;
  NodeId self_;
};

/// Network-backed outbox appending into the sender's arena slab.  Bound to
/// the shard owning `self` once at construction: every out-arc of self is
/// local to that shard (CSR arc ids make a node's arcs contiguous), so each
/// send is slab append + header write with no routing.
class ArcOutbox final : public Outbox {
 public:
  ArcOutbox(const Graph& g, NodeId self, ShardedPlane& plane)
      : Outbox(g, self), shard_(plane.shardOfNode(self)) {
    buf_ = &plane.shard(shard_);
    arcBase_ = plane.arcBase(shard_);
    slab_ = static_cast<std::uint32_t>(self - plane.nodeBase(shard_));
  }
  void to(NodeId to, const Msg& m) override {
    const ArcId a = g_.findArc(self_, to);
    assert(a >= 0 && "ArcOutbox::to: target is not a neighbor of self");
    if (a < 0) return;
    buf_->putMsg(slab_, a - arcBase_, m);
  }

 private:
  std::size_t shard_;
  ArcBuffer* buf_;
  ArcId arcBase_;
  std::uint32_t slab_;  // local slab = self - shard's first node
};

/// Network-backed inbox viewing the sharded plane.  In-arcs originate at
/// the senders, so each read routes to the sender's shard (one binary
/// search over shard boundaries).
class ArcInbox final : public Inbox {
 public:
  ArcInbox(const Graph& g, NodeId self, const ShardedPlane& plane)
      : Inbox(g, self), plane_(plane) {}
  [[nodiscard]] MsgView from(NodeId from) const override {
    const ArcId a = g_.findArc(self_, from);
    return a < 0 ? MsgView() : plane_.view(g_.reverseArc(a));
  }

 private:
  const ShardedPlane& plane_;
};

/// The compiler-side surface of the round-by-round simulation: one
/// reusable Msg slot per neighbor of `self`, indexed by adjacency position
/// (the CSR offset g.findArc(self, nb) - g.firstOutArc(self)).  It is both
/// an Outbox that captures an inner algorithm's sends, so a compiler can
/// mask / sketch / correct them, and an Inbox that redelivers the
/// corrected messages.  Keep one as a member and call begin() before each
/// use: it marks every slot absent and keeps the word capacity, so one
/// instance serves every sim round -- capture and delivery alike --
/// without allocating in steady state.
class NeighborSlots final : public Outbox, public Inbox {
 public:
  NeighborSlots(const Graph& g, NodeId self)
      : Outbox(g, self), Inbox(g, self), slots_(g.degree(self)) {}

  /// Marks every slot absent (keeping capacity); call before each use.
  void begin() {
    for (auto& s : slots_) clear(s);
  }

  /// Overwrites the slot of neighbor `to`; an absent `m` erases it.  Sends
  /// to non-neighbors assert in debug builds and are dropped otherwise.
  void to(NodeId to, const Msg& m) override {
    const std::ptrdiff_t i = indexOf(to);
    assert(i >= 0 && "NeighborSlots::to: target is not a neighbor of self");
    if (i < 0) return;
    Msg& s = slots_[static_cast<std::size_t>(i)];
    if (m.present)
      s = m;
    else
      clear(s);
  }

  /// Slot of neighbor `from`; absent when `from` is not a neighbor.
  [[nodiscard]] MsgView from(NodeId from) const override {
    const std::ptrdiff_t i = indexOf(from);
    return i < 0 ? MsgView() : slots_[static_cast<std::size_t>(i)];
  }

  /// Slot of the i-th neighbor in g.neighbors(self) order; the mutable
  /// form lets a compiler write a delivery in place.
  [[nodiscard]] const Msg& slot(std::size_t i) const { return slots_[i]; }
  [[nodiscard]] Msg& slot(std::size_t i) { return slots_[i]; }

 private:
  static void clear(Msg& s) {
    s.present = false;
    s.words.clear();
  }
  /// Adjacency position of `nb`, or -1 when not a neighbor of self.
  [[nodiscard]] std::ptrdiff_t indexOf(NodeId nb) const {
    const ArcId a = Outbox::g_.findArc(Outbox::self_, nb);
    return a < 0 ? -1 : a - Outbox::g_.firstOutArc(Outbox::self_);
  }

  std::vector<Msg> slots_;
};

/// A node-local protocol instance.
class NodeState {
 public:
  virtual ~NodeState() = default;

  /// Emits this round's outgoing messages.  `round` is 1-based.
  virtual void send(int round, Outbox& out) = 0;

  /// Consumes this round's (possibly adversarially altered) inbox.
  virtual void receive(int round, const Inbox& in) = 0;

  /// Optional early-termination signal; the network stops when all nodes
  /// report done (or the round limit is hit).
  [[nodiscard]] virtual bool done() const { return false; }

  /// Canonical output for equivalence checking between fault-free and
  /// compiled executions.
  [[nodiscard]] virtual std::uint64_t output() const { return 0; }
};

/// Per-node protocol factory: an "algorithm" in the paper's sense.
struct Algorithm {
  /// Builds node v's state machine.  `rng` is node-private randomness the
  /// adversary never sees.
  std::function<std::unique_ptr<NodeState>(NodeId v, const Graph& g,
                                           util::Rng rng)>
      makeNode;

  /// Optional in-place re-initializer for Network::reset(): must leave
  /// `node` exactly as makeNode(v, g, rng) would build it, reusing the
  /// existing object's allocations.  Return false to fall back to makeNode
  /// (e.g. when handed a node type the algorithm does not recognize).
  std::function<bool(NodeState& node, NodeId v, const Graph& g, util::Rng rng)>
      reinitNode;

  /// Declared fault-free round count r (compilers consume this).
  int rounds = 0;

  /// Declared congestion bound `cong` (max messages per edge over the whole
  /// run); 0 = unknown/unbounded.
  int congestion = 0;
};

}  // namespace mobile::sim
