// Unit coverage for the simulator's value types and I/O surfaces: Msg
// semantics, NeighborSlots (the compiler-composition seam: one surface that
// captures an inner round's sends and redelivers its receipts), the
// non-neighbor rules both Outbox/Inbox bindings share, and the
// table formatter used by every benchmark.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sim/message.h"
#include "sim/node.h"
#include "util/table.h"

namespace mobile {
namespace {

TEST(Msg, AbsentByDefault) {
  sim::Msg m;
  EXPECT_FALSE(m.present);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.atOr(0, 42), 42u);
}

TEST(Msg, OfAndPush) {
  sim::Msg m = sim::Msg::of(7);
  EXPECT_TRUE(m.present);
  EXPECT_EQ(m.at(0), 7u);
  m.push(9);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(1), 9u);
}

TEST(Msg, EqualitySemantics) {
  sim::Msg absent1, absent2;
  EXPECT_EQ(absent1, absent2);  // two absent messages are equal
  EXPECT_NE(absent1, sim::Msg::of(0));
  EXPECT_EQ(sim::Msg::of(5), sim::Msg::of(5));
  EXPECT_NE(sim::Msg::of(5), sim::Msg::of(6));
  sim::Msg longer = sim::Msg::of(5);
  longer.push(0);
  EXPECT_NE(sim::Msg::of(5), longer);  // same prefix, different length
}

TEST(Msg, DigestSeparates) {
  EXPECT_NE(sim::Msg().digest(), sim::Msg::of(0).digest());
  EXPECT_NE(sim::Msg::of(1).digest(), sim::Msg::of(2).digest());
  sim::Msg a = sim::Msg::of(1).push(2);
  sim::Msg b = sim::Msg::of(2).push(1);
  EXPECT_NE(a.digest(), b.digest());  // order-sensitive
}

/// Adjacency position of `nb` among v's neighbors (the slot index).
std::size_t slotOf(const graph::Graph& g, graph::NodeId v, graph::NodeId nb) {
  const auto& nbs = g.neighbors(v);
  for (std::size_t i = 0; i < nbs.size(); ++i)
    if (nbs[i].node == nb) return i;
  ADD_FAILURE() << nb << " is not a neighbor of " << v;
  return 0;
}

TEST(NeighborSlots, CapturesThenOverwrites) {
  const graph::Graph g = graph::cycle(4);
  sim::NeighborSlots slots(g, 0);
  slots.to(1, sim::Msg::of(11));
  slots.to(3, sim::Msg::of(33));
  EXPECT_EQ(slots.slot(slotOf(g, 0, 1)), sim::Msg::of(11));
  EXPECT_EQ(slots.slot(slotOf(g, 0, 3)), sim::Msg::of(33));
  slots.to(1, sim::Msg::of(12).push(13));  // a later send overwrites
  EXPECT_EQ(slots.slot(slotOf(g, 0, 1)), sim::Msg::of(12).push(13));
  EXPECT_EQ(slots.from(1).size(), 2u);
  EXPECT_EQ(slots.from(3).at(0), 33u);
}

TEST(NeighborSlots, AbsentOverwriteErasesTheSlot) {
  const graph::Graph g = graph::cycle(4);
  sim::NeighborSlots slots(g, 0);
  slots.to(1, sim::Msg::of(11));
  slots.to(1, sim::Msg());
  EXPECT_FALSE(slots.slot(slotOf(g, 0, 1)).present);
  EXPECT_TRUE(slots.slot(slotOf(g, 0, 1)).words.empty());
  EXPECT_FALSE(slots.from(1).present());
}

TEST(NeighborSlots, BeginMarksAbsentAndKeepsCapacity) {
  const graph::Graph g = graph::clique(5);
  sim::NeighborSlots slots(g, 2);
  sim::Msg wide;
  for (std::uint64_t w = 0; w < 16; ++w) wide.push(w);
  slots.toAll(wide);
  std::vector<std::size_t> capacity;
  for (std::size_t i = 0; i < g.degree(2); ++i)
    capacity.push_back(slots.slot(i).words.capacity());
  slots.begin();
  for (std::size_t i = 0; i < g.degree(2); ++i) {
    EXPECT_FALSE(slots.slot(i).present);
    EXPECT_EQ(slots.slot(i).size(), 0u);
    EXPECT_EQ(slots.slot(i).words.capacity(), capacity[i]);
    EXPECT_GE(capacity[i], 16u);
  }
}

TEST(NeighborSlots, ToAllFillsEverySlot) {
  const graph::Graph g = graph::clique(5);
  sim::NeighborSlots slots(g, 2);
  slots.toAll(sim::Msg::of(1));
  for (std::size_t i = 0; i < g.degree(2); ++i)
    EXPECT_EQ(slots.slot(i), sim::Msg::of(1));
  for (const auto& nb : g.neighbors(2))
    EXPECT_EQ(slots.from(nb.node).at(0), 1u);
}

/// The two bindings a node's Outbox/Inbox can have: the compilers'
/// NeighborSlots, or the Network's arena plane (ArcOutbox / ArcInbox).
enum class Binding { kSlots, kArena };

/// Node `self`'s send and receive surfaces under one binding.
class Bound {
 public:
  Bound(const graph::Graph& g, graph::NodeId self, Binding b)
      : g_(g),
        self_(self),
        b_(b),
        slots_(g, self),
        plane_(g, 1),
        arcOut_(g, self, plane_),
        arcIn_(g, self, plane_) {}

  sim::Outbox& out() {
    if (b_ == Binding::kSlots) return slots_;
    return arcOut_;
  }
  [[nodiscard]] const sim::Inbox& in() const {
    if (b_ == Binding::kSlots) return slots_;
    return arcIn_;
  }
  /// Fills self's inbox from every neighbor: NeighborSlots' inbox is its
  /// own slots, the arena's is every other node's sends.
  void fillAll(const sim::Msg& m) {
    if (b_ == Binding::kSlots) {
      slots_.toAll(m);
      return;
    }
    for (graph::NodeId v = 0; v < g_.nodeCount(); ++v)
      sim::ArcOutbox(g_, v, plane_).toAll(m);
  }
  /// True when no message is stored anywhere.
  [[nodiscard]] bool empty() const {
    if (b_ == Binding::kSlots) {
      for (std::size_t i = 0; i < g_.degree(self_); ++i)
        if (slots_.slot(i).present) return false;
      return true;
    }
    for (graph::ArcId a = 0; a < g_.arcCount(); ++a)
      if (plane_.view(a).present()) return false;
    return true;
  }

 private:
  const graph::Graph& g_;
  graph::NodeId self_;
  Binding b_;
  sim::NeighborSlots slots_;
  sim::ShardedPlane plane_;
  sim::ArcOutbox arcOut_;
  sim::ArcInbox arcIn_;
};

class NonNeighbor : public ::testing::TestWithParam<Binding> {};
class NonNeighborDeathTest : public NonNeighbor {};

TEST_P(NonNeighbor, FromIsAbsent) {
  const graph::Graph g = graph::cycle(4);
  Bound s(g, 0, GetParam());
  s.fillAll(sim::Msg::of(5));
  EXPECT_EQ(s.in().from(1).at(0), 5u);       // a neighbor's message
  EXPECT_FALSE(s.in().from(2).present());   // opposite corner of the cycle
  EXPECT_FALSE(s.in().from(0).present());   // itself
  EXPECT_FALSE(s.in().from(17).present());  // not a node at all
}

TEST_P(NonNeighborDeathTest, SendAssertsInDebug) {
  const graph::Graph g = graph::cycle(4);
  Bound s(g, 0, GetParam());
  EXPECT_DEBUG_DEATH(s.out().to(2, sim::Msg::of(7)), "not a neighbor");
  // Release builds drop the send: nothing was stored.
  EXPECT_TRUE(s.empty());
}

std::string bindingName(const ::testing::TestParamInfo<Binding>& info) {
  return info.param == Binding::kSlots ? "NeighborSlots" : "Arena";
}
INSTANTIATE_TEST_SUITE_P(Bindings, NonNeighbor,
                         ::testing::Values(Binding::kSlots, Binding::kArena),
                         bindingName);
INSTANTIATE_TEST_SUITE_P(Bindings, NonNeighborDeathTest,
                         ::testing::Values(Binding::kSlots, Binding::kArena),
                         bindingName);

TEST(NeighborSlots, OneInstanceCapturesThenDelivers) {
  const graph::Graph g = graph::cycle(4);
  sim::NeighborSlots slots(g, 0);
  sim::Outbox& out = slots;
  out.to(1, sim::Msg::of(11));
  EXPECT_EQ(slots.slot(slotOf(g, 0, 1)).at(0), 11u);
  // Reused as the delivery inbox: begin() forgets the capture, then the
  // compiler writes the corrected receipt in place.
  slots.begin();
  slots.slot(slotOf(g, 0, 3)).push(33);
  const sim::Inbox& in = slots;
  EXPECT_FALSE(in.from(1).present());
  EXPECT_TRUE(in.from(3).present());
  EXPECT_EQ(in.from(3).at(0), 33u);
}

TEST(Table, FormatsAlignedMarkdown) {
  util::Table t({"a", "long header", "c"});
  t.addRow({"1", "x", "yes"});
  t.addRow({"22", "yyyy"});  // short row padded
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| a  | long header | c   |"), std::string::npos);
  EXPECT_NE(s.find("| 22 | yyyy        |     |"), std::string::npos);
  // Separator line present.
  EXPECT_NE(s.find("|----"), std::string::npos);
}

TEST(Table, CellFormatters) {
  EXPECT_EQ(util::Table::num(42), "42");
  EXPECT_EQ(util::Table::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(util::Table::pct(0.5), "50.0%");
  EXPECT_EQ(util::Table::boolean(true), "yes");
  EXPECT_EQ(util::Table::boolean(false), "no");
}

}  // namespace
}  // namespace mobile
