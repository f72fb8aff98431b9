// Unit coverage for the arena message plane (sim/arc_buffer.h): slab
// growth, epoch-based round reset, views taken after slab reallocation,
// and the in-place Msg reuse helper.
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "sim/arc_buffer.h"

namespace mobile {
namespace {

using graph::ArcId;
using sim::ArcBuffer;
using sim::Msg;
using sim::MsgView;

TEST(ArcBuffer, AbsentByDefaultAndAfterErase) {
  const graph::Graph g = graph::cycle(4);
  ArcBuffer buf(g);
  for (ArcId a = 0; a < g.arcCount(); ++a) {
    EXPECT_FALSE(buf.present(a));
    EXPECT_EQ(buf.size(a), 0u);
    EXPECT_FALSE(buf.view(a).present());
    EXPECT_TRUE(buf.view(a).words().empty());
  }
  buf.putMsg(0, 0, Msg::of(7));
  EXPECT_TRUE(buf.present(0));
  buf.erase(0);
  EXPECT_FALSE(buf.present(0));
  // Overwriting with an absent Msg also erases (Outbox overwrite rule).
  buf.putMsg(0, 1, Msg::of(9));
  buf.putMsg(0, 1, Msg{});
  EXPECT_FALSE(buf.present(1));
}

TEST(ArcBuffer, PutReadRoundtripAndOverwrite) {
  const graph::Graph g = graph::cycle(4);
  ArcBuffer buf(g);
  buf.putMsg(0, 2, Msg::of(1).push(2).push(3));
  EXPECT_TRUE(buf.present(2));
  EXPECT_EQ(buf.size(2), 3u);
  EXPECT_EQ(buf.view(2).at(1), 2u);
  EXPECT_EQ(buf.view(2).atOr(7, 42), 42u);
  // Later put on the same arc wins.
  buf.putMsg(0, 2, Msg::of(9));
  EXPECT_EQ(buf.size(2), 1u);
  EXPECT_EQ(buf.view(2).at(0), 9u);
  // A Msg copied out of the view matches, and digests agree bit-for-bit.
  Msg m;
  sim::assignMsg(m, buf.view(2));
  EXPECT_TRUE(m.present);
  EXPECT_EQ(m.words, std::vector<std::uint64_t>{9});
  EXPECT_EQ(m.digest(), buf.view(2).digest());
  EXPECT_EQ(Msg{}.digest(), buf.view(3).digest());  // absent digests too
}

TEST(ArcBuffer, BeginRoundClearsEverythingWithoutFreeing) {
  const graph::Graph g = graph::clique(6);
  ArcBuffer buf(g);
  for (ArcId a = 0; a < g.arcCount(); ++a)
    buf.putMsg(static_cast<std::uint32_t>(g.arcSource(a)), a,
               Msg::of(1).push(2).push(3).push(4));
  const std::size_t warmCapacity = buf.capacityWords();
  EXPECT_GT(warmCapacity, 0u);
  buf.beginRound();
  for (ArcId a = 0; a < g.arcCount(); ++a) EXPECT_FALSE(buf.present(a));
  // Refilling after the reset reuses the slab capacity.
  for (ArcId a = 0; a < g.arcCount(); ++a)
    buf.putMsg(static_cast<std::uint32_t>(g.arcSource(a)), a,
               Msg::of(5).push(6).push(7).push(8));
  EXPECT_EQ(buf.capacityWords(), warmCapacity);
  EXPECT_EQ(buf.view(0).at(0), 5u);
}

TEST(ArcBuffer, MsgViewTakenAfterSlabGrowthReadsRightWords) {
  const graph::Graph g = graph::clique(8);
  ArcBuffer buf(g);
  // First message from node 0, then keep appending from the same sender
  // until its slab must reallocate several times.
  buf.putMsg(0, g.arcFromTo(0, 1), Msg::of(11).push(22));
  const std::size_t before = buf.capacityWords();
  std::vector<std::uint64_t> big(4096, 0xabcdef);
  for (graph::NodeId to = 2; to < 8; ++to)
    buf.put(0, g.arcFromTo(0, to), big.data(), big.size());
  EXPECT_GT(buf.capacityWords(), before);  // the slab storage moved
  // A view is valid until its slab is next written, so it is re-taken
  // after the growth; it resolves the header to the moved words.
  const MsgView first = buf.view(g.arcFromTo(0, 1));
  EXPECT_TRUE(first.present());
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(first.at(0), 11u);
  EXPECT_EQ(first.at(1), 22u);
  const MsgView last = buf.view(g.arcFromTo(0, 7));
  EXPECT_EQ(last.size(), 4096u);
  EXPECT_EQ(last.at(4095), 0xabcdefu);
}

TEST(ArcBuffer, AdversarySlabIsSeparate) {
  const graph::Graph g = graph::cycle(4);
  ArcBuffer buf(g);
  buf.putMsg(0, 0, Msg::of(1));
  buf.putMsg(buf.adversarySlab(), 0, Msg::of(7).push(7));
  EXPECT_EQ(buf.size(0), 2u);
  EXPECT_EQ(buf.view(0).at(0), 7u);
}

TEST(ArcBuffer, WordsAppendedIsMonotonicAcrossRounds) {
  const graph::Graph g = graph::cycle(4);
  ArcBuffer buf(g);
  buf.putMsg(0, 0, Msg::of(1).push(2));
  const std::uint64_t after1 = buf.wordsAppended();
  EXPECT_EQ(after1, 2u);
  buf.beginRound();
  buf.putMsg(0, 0, Msg::of(3));
  EXPECT_EQ(buf.wordsAppended(), after1 + 1);
}

TEST(MsgViewMsgBacked, WrapsAndCopies) {
  const Msg m = Msg::of(5).push(6);
  const MsgView v(m);
  EXPECT_TRUE(v.present());
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.at(1), 6u);
  EXPECT_EQ(v.digest(), m.digest());
  Msg copy;
  sim::assignMsg(copy, v);
  EXPECT_EQ(copy, m);
  EXPECT_TRUE(v == m);
  EXPECT_FALSE(MsgView() == m);
  EXPECT_TRUE(MsgView() == Msg{});
}

TEST(MsgViewMsgBacked, AssignMsgReusesCapacity) {
  const Msg src = Msg::of(1).push(2).push(3);
  Msg dst = Msg::of(9).push(9).push(9).push(9);
  const auto capacity = dst.words.capacity();
  sim::assignMsg(dst, MsgView(src));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(dst.words.capacity(), capacity);
  sim::assignMsg(dst, MsgView());
  EXPECT_FALSE(dst.present);
  EXPECT_EQ(dst.size(), 0u);
  EXPECT_EQ(dst.words.capacity(), capacity);  // clear() keeps the buffer
}

TEST(MsgViewEquality, MatchesMsgSemantics) {
  const graph::Graph g = graph::cycle(4);
  ArcBuffer buf(g);
  buf.putMsg(0, 0, Msg::of(5));
  buf.putMsg(1, 2, Msg::of(5));
  buf.putMsg(1, 3, Msg::of(6));
  EXPECT_EQ(buf.view(0), buf.view(2));  // same content, different slabs
  EXPECT_NE(buf.view(0), buf.view(3));
  EXPECT_EQ(MsgView(), buf.view(1));  // both absent
  EXPECT_NE(MsgView(), buf.view(0));
}

}  // namespace
}  // namespace mobile
