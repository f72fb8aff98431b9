// VoteSlot, the hop-repetition majority decoder, against the copy-stash
// majority it replaced: every copy stored, and the first copy whose value
// reaches the highest multiplicity wins.
#include <gtest/gtest.h>

#include <vector>

#include "compile/common.h"
#include "util/rng.h"

namespace mobile::compile {
namespace {

using sim::Msg;
using sim::MsgView;

/// Reference majority over `count` stored copies, ties broken by first
/// occurrence: the copy-stash decode rule.
const Msg& majorityRef(const Msg* copies, std::size_t count) {
  std::size_t bestIdx = 0;
  int bestCount = 0;
  for (std::size_t i = 0; i < count; ++i) {
    int c = 0;
    for (std::size_t j = 0; j < count; ++j)
      if (copies[j] == copies[i]) ++c;
    if (c > bestCount) {
      bestCount = c;
      bestIdx = i;
    }
  }
  return copies[bestIdx];
}

/// Value 0 is an absent copy (sometimes with stale words, which both rules
/// must ignore); values 1.. are present messages of one or two words.
Msg copyOf(std::uint64_t value, util::Rng& rng) {
  Msg m;
  if (value == 0) {
    if (rng.chance(0.5)) m.words.push_back(rng.next());
    return m;
  }
  m.present = true;
  m.words.push_back(value);
  if (value % 2 == 0) m.words.push_back(value * 7);
  return m;
}

const Msg& vote(VoteSlot& slot, const std::vector<Msg>& copies) {
  slot.reset();
  for (const Msg& c : copies) slot.add(MsgView(c));
  return slot.winner();
}

void expectSameWinner(const Msg& got, const Msg& want) {
  ASSERT_EQ(got.present, want.present);
  if (want.present) {
    ASSERT_EQ(got.words, want.words);
  }
}

TEST(VoteSlot, TiesGoToTheFirstValueSeen) {
  util::Rng rng(1);
  VoteSlot slot;
  const Msg a = copyOf(3, rng);
  const Msg b = copyOf(4, rng);
  const Msg absent;
  EXPECT_EQ(vote(slot, {a, b}), a);
  EXPECT_EQ(vote(slot, {b, a, a, b}), b);
  EXPECT_EQ(vote(slot, {a, b, b}), b);
  EXPECT_FALSE(vote(slot, {absent, a, absent, a}).present);
  EXPECT_EQ(vote(slot, {absent, a, a}), a);
  // A reset slot forgets the longer history it held before.
  EXPECT_EQ(vote(slot, {b}), b);
}

TEST(VoteSlot, WinnerMatchesCopyStashMajority) {
  util::Rng rng(0x70e5);
  VoteSlot slot;  // reused across trials, as the compilers reuse theirs
  int ties = 0;
  int absentWins = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t count = 1 + rng.below(9);
    const std::uint64_t alphabet = 1 + rng.below(4);
    std::vector<Msg> copies;
    std::vector<int> tally(alphabet, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t value = rng.below(alphabet);
      ++tally[value];
      copies.push_back(copyOf(value, rng));
    }
    const Msg& want = majorityRef(copies.data(), copies.size());
    expectSameWinner(vote(slot, copies), want);
    int top = 0;
    int atTop = 0;
    for (const int t : tally) {
      if (t > top) {
        top = t;
        atTop = 1;
      } else if (t == top) {
        ++atTop;
      }
    }
    if (atTop > 1) ++ties;
    if (!want.present) ++absentWins;
  }
  // The sweep must exercise both tie-breaks and absent majorities.
  EXPECT_GT(ties, 1000);
  EXPECT_GT(absentWins, 1000);
}

}  // namespace
}  // namespace mobile::compile
