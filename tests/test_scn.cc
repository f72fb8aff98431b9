// The scenario layer's contracts: Params typed access + consumed-key
// tracking, registry lookup and unknown-name errors, sweep-grid
// expansion, and TrialBuilder lowering (fault-free expectation, typo'd
// axes rejected, fingerprint cache shared across adversary/f sweeps,
// adversarial byz_tree/rewind points refused above the 12-bit key limit).
#include <gtest/gtest.h>

#include "compile/common.h"
#include "exp/experiment.h"
#include "scn/params.h"
#include "scn/registry.h"
#include "scn/scenario.h"

using namespace mobile;

// --- Params ------------------------------------------------------------------

TEST(Params, TypedGettersAndDefaults) {
  const scn::Params p =
      scn::Params::fromTokens("n=16 f=2 rate=0.25 label=abc");
  EXPECT_EQ(p.integer("n"), 16);
  EXPECT_EQ(p.integer("f", 9), 2);
  EXPECT_EQ(p.integer("missing", 9), 9);
  EXPECT_DOUBLE_EQ(p.real("rate", 0.0), 0.25);
  EXPECT_EQ(p.str("label"), "abc");
  EXPECT_EQ(p.u64("missing", 7u), 7u);
}

TEST(Params, MalformedTokensAndValues) {
  EXPECT_THROW(scn::Params::fromTokens("n16"), scn::ScnError);
  EXPECT_THROW(scn::Params::fromTokens("=5"), scn::ScnError);
  // Quotes/backslashes would break the JSONL resume round-trip; rejected
  // at the door.
  EXPECT_THROW(scn::Params::fromTokens("tag=a\"b"), scn::ScnError);
  EXPECT_THROW(scn::Params::fromTokens("tag=a\\b"), scn::ScnError);
  const scn::Params p = scn::Params::fromTokens("n=abc");
  EXPECT_THROW((void)p.integer("n"), scn::ScnError);
  EXPECT_THROW((void)p.integer("n", 3), scn::ScnError);
}

TEST(Params, MissingRequiredKeyThrows) {
  const scn::Params p;
  EXPECT_THROW((void)p.str("graph"), scn::ScnError);
}

TEST(Params, ConsumedTrackingAndCanonical) {
  const scn::Params p = scn::Params::fromTokens("b=2 a=1 c=3");
  EXPECT_EQ(p.canonical(), "a=1 b=2 c=3");
  (void)p.integer("a");
  (void)p.integer("c", 0);
  EXPECT_EQ(p.consumedCanonical(), "a=1 c=3");
  const auto unread = p.unconsumedKeys();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "b");
}

TEST(Params, LaterSetWinsKeepsOrder) {
  scn::Params p = scn::Params::fromTokens("a=1 b=2");
  p.set("a", "9");
  EXPECT_EQ(p.str("a"), "9");
  ASSERT_EQ(p.keys().size(), 2u);
  EXPECT_EQ(p.keys()[0], "a");  // overwrite does not reorder
}

// --- registries --------------------------------------------------------------

TEST(Registry, BuiltinsAreRegistered) {
  EXPECT_TRUE(scn::graphs().contains("clique"));
  EXPECT_TRUE(scn::algos().contains("gossip"));
  EXPECT_TRUE(scn::compilers().contains("byz_tree"));
  EXPECT_TRUE(scn::adversaries().contains("camping_byz"));
}

TEST(Registry, UnknownNameListsKnownOnes) {
  try {
    (void)scn::graphs().get("klique");
    FAIL() << "expected ScnError";
  } catch (const scn::ScnError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("klique"), std::string::npos);
    EXPECT_NE(msg.find("clique"), std::string::npos);  // catalog included
  }
}

TEST(Registry, GraphFactoryBuilds) {
  const scn::Params p = scn::Params::fromTokens("n=6");
  const graph::Graph g = scn::graphs().get("clique")(p);
  EXPECT_EQ(g.nodeCount(), 6);
  EXPECT_EQ(g.edgeCount(), 15);
}

// --- sweep expansion ---------------------------------------------------------

TEST(Sweep, ValueSyntax) {
  EXPECT_EQ(scn::expandValue("7").size(), 1u);
  EXPECT_EQ(scn::expandValue("a,b,c").size(), 3u);
  const auto range = scn::expandValue("1..4");
  ASSERT_EQ(range.size(), 4u);
  EXPECT_EQ(range.front(), "1");
  EXPECT_EQ(range.back(), "4");
  const auto mixed = scn::expandValue("8,16..18");
  ASSERT_EQ(mixed.size(), 4u);
  EXPECT_EQ(mixed[0], "8");
  EXPECT_EQ(mixed[3], "18");
  // Non-numeric '..' pieces stay literal values.
  EXPECT_EQ(scn::expandValue("a..b").size(), 1u);
  EXPECT_THROW(scn::expandValue("4..1"), scn::ScnError);
}

TEST(Sweep, GridExpansionCountsAndOrder) {
  const scn::Params p =
      scn::Params::fromTokens("n=64,256,1024 adv=bitflip_byz,rotating_byz "
                              "f=1..4");
  const auto points = scn::expandGrid(p);
  ASSERT_EQ(points.size(), 3u * 2u * 4u);
  // First key slowest, last key fastest.
  EXPECT_EQ(points[0].str("n"), "64");
  EXPECT_EQ(points[0].str("f"), "1");
  EXPECT_EQ(points[1].str("f"), "2");
  EXPECT_EQ(points[3].str("f"), "4");
  EXPECT_EQ(points[4].str("n"), "64");
  EXPECT_EQ(points[4].str("adv"), "rotating_byz");
  EXPECT_EQ(points[8].str("n"), "256");
  EXPECT_EQ(points.back().str("n"), "1024");
  EXPECT_EQ(points.back().str("f"), "4");
  const auto swept = scn::sweptKeys(p);
  ASSERT_EQ(swept.size(), 3u);
  EXPECT_EQ(swept[0], "n");
}

TEST(Sweep, SingletonGridIsIdentity) {
  const scn::Params p = scn::Params::fromTokens("n=8 f=1");
  const auto points = scn::expandGrid(p);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].canonical(), p.canonical());
  EXPECT_TRUE(scn::sweptKeys(p).empty());
}

// --- TrialBuilder ------------------------------------------------------------

TEST(TrialBuilder, FaultFreePointMatchesExpectation) {
  scn::TrialBuilder builder;
  const scn::Params point =
      scn::Params::fromTokens("graph=clique n=8 algo=gossip rounds=2");
  const exp::TrialSpec spec = builder.build(point, "plain");
  const exp::TrialResult r = exp::runTrial(spec);
  EXPECT_TRUE(r.ok);  // fault-free run IS the expectation
  EXPECT_EQ(r.group, "plain");
}

TEST(TrialBuilder, CompiledPointSurvivesAdversary) {
  scn::TrialBuilder builder;
  const scn::Params point = scn::Params::fromTokens(
      "graph=clique n=8 algo=gossip mask=32 compile=byz_tree f=1 "
      "adv=bitflip_byz seed=3");
  const exp::TrialResult r = exp::runTrial(builder.build(point, "byz"));
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.corruptions, 0);
  EXPECT_EQ(r.seed, 3u);
}

TEST(TrialBuilder, UncompiledPointBreaksUnderByzantine) {
  scn::TrialBuilder builder;
  const scn::Params point = scn::Params::fromTokens(
      "graph=clique n=8 algo=gossip compile=none f=1 adv=camping_byz");
  const exp::TrialResult r = exp::runTrial(builder.build(point, "broken"));
  EXPECT_FALSE(r.ok);  // the negative control
}

TEST(TrialBuilder, UnknownRegistryNamesThrow) {
  scn::TrialBuilder builder;
  EXPECT_THROW(builder.build(scn::Params::fromTokens("graph=klique n=8"),
                             "g"),
               scn::ScnError);
  EXPECT_THROW(
      builder.build(
          scn::Params::fromTokens("graph=clique n=8 algo=gosssip"), "g"),
      scn::ScnError);
  EXPECT_THROW(
      builder.build(
          scn::Params::fromTokens("graph=clique n=8 compile=byz_treee"),
          "g"),
      scn::ScnError);
  EXPECT_THROW(
      builder.build(
          scn::Params::fromTokens("graph=clique n=8 adv=bitflip"), "g"),
      scn::ScnError);
}

TEST(TrialBuilder, TypodAxisIsRejectedNotIgnored) {
  scn::TrialBuilder builder;
  const scn::Params point = scn::Params::fromTokens(
      "graph=clique n=8 algo=gossip adversary=camping_byz");
  try {
    (void)builder.build(point, "typo");
    FAIL() << "expected ScnError";
  } catch (const scn::ScnError& e) {
    EXPECT_NE(std::string(e.what()).find("adversary"), std::string::npos);
  }
}

TEST(TrialBuilder, CongestionBitWidthsOutOfRangeAreRejected) {
  // payloadbits sizes a 2^payloadbits decoding table and hashbits a 64-bit
  // mask: outside 1 <= payloadbits <= 16 and payloadbits <= hashbits <= 63
  // a trial would hang or shift by 64, so the build names the key instead.
  scn::TrialBuilder builder;
  const auto point = [](const std::string& tail) {
    return scn::Params::fromTokens(
        "graph=clique n=6 algo=gossip rounds=1 mask=8 compile=congestion "
        "f=1 adv=random_eaves " +
        tail);
  };
  const std::pair<const char*, const char*> rejected[] = {
      {"payloadbits=40", "payloadbits"},
      {"payloadbits=64", "payloadbits"},
      {"payloadbits=0", "payloadbits"},
      {"payloadbits=17", "payloadbits"},
      {"payloadbits=8 hashbits=64", "hashbits"},
      {"payloadbits=8 hashbits=0", "hashbits"},
      {"payloadbits=8 hashbits=7", "hashbits"},
  };
  for (const auto& [tail, key] : rejected) {
    try {
      (void)builder.build(point(tail), "bits");
      ADD_FAILURE() << tail << ": expected ScnError";
    } catch (const scn::ScnError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << tail << ": " << e.what();
    }
  }
  for (const char* tail : {"payloadbits=8", "payloadbits=8 hashbits=24",
                           "payloadbits=8 hashbits=30",
                           "payloadbits=16 hashbits=16",
                           "payloadbits=1 hashbits=63"})
    EXPECT_NO_THROW((void)builder.build(point(tail), "bits")) << tail;
}

TEST(TrialBuilder, CompilerKnobsOutOfRangeAreRejected) {
  // multiplier < 1 builds a 0-round rewind algorithm and a negative dmcap
  // used to run silently as the auto cap; both are read before narrowing,
  // so 2^31 is refused rather than wrapped.  A dmcap past the 65535 keys
  // the DM codec's count symbol holds would wrap the count (and 10^9 used
  // to abort sizing its chunks).
  scn::TrialBuilder builder;
  const auto point = [](const std::string& tail) {
    return scn::Params::fromTokens(
        "graph=clique n=6 algo=pingpong rounds=2 mask=32 f=1 adv=random_byz " +
        tail);
  };
  const std::pair<const char*, const char*> rejected[] = {
      {"compile=rewind multiplier=0", "multiplier"},
      {"compile=rewind multiplier=-3", "multiplier"},
      {"compile=rewind multiplier=2147483648", "multiplier"},
      {"compile=byz_tree dmcap=-1", "dmcap"},
      {"compile=byz_tree dmcap=65536", "dmcap"},
      {"compile=byz_tree dmcap=1000000000", "dmcap"},
  };
  for (const auto& [tail, key] : rejected) {
    try {
      (void)builder.build(point(tail), "knobs");
      ADD_FAILURE() << tail << ": expected ScnError";
    } catch (const scn::ScnError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << tail << ": " << e.what();
    }
  }
  for (const char* tail :
       {"compile=rewind multiplier=1", "compile=rewind multiplier=5",
        "compile=byz_tree dmcap=0", "compile=byz_tree dmcap=2",
        "compile=byz_tree dmcap=65535"})
    EXPECT_NO_THROW((void)builder.build(point(tail), "knobs")) << tail;
}

TEST(TrialBuilder, CompiledTotalsPastIntMaxAreRejected) {
  // multiplier=10^8 is within the knob's range, but on this point the
  // rewind schedule comes to 200000000 global rounds of 86 rounds each,
  // past INT_MAX.  It is refused when built, naming the key, instead of
  // overflowing the round count or running for hours.
  scn::TrialBuilder builder;
  try {
    (void)builder.build(
        scn::Params::fromTokens("graph=clique n=6 algo=pingpong rounds=2 "
                                "mask=32 f=1 adv=random_byz compile=rewind "
                                "multiplier=100000000"),
        "total");
    ADD_FAILURE() << "expected ScnError";
  } catch (const scn::ScnError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "rewind multiplier=100000000 compiles to 17200000000 "
                  "rounds"),
              std::string::npos)
        << e.what();
  }
}

TEST(TrialBuilder, KeyPoolsPastTheFieldSizeAreRejected) {
  // A key pool extracts at the points alpha^(i+1) of GF(2^16); past
  // KeyPool::kMaxSymbols = 65534 symbols they repeat and Theorem 2.1's
  // resilience is lost, so the build names the key and the symbol count.
  // The points are only built, never run.
  scn::TrialBuilder builder;
  const auto s2m = [](const std::string& tail) {
    // floodmax runs r = 3 rounds; the pool takes 2 (r + t) symbols.
    return scn::Params::fromTokens(
        "graph=clique n=4 algo=floodmax rounds=3 compile=static_to_mobile "
        "adv=random_eaves f=1 " +
        tail);
  };
  const auto congestion = [](const std::string& tail) {
    // gossip runs r = 1 round; the pool takes r + pool symbols.
    return scn::Params::fromTokens(
        "graph=clique n=6 algo=gossip rounds=1 mask=8 compile=congestion "
        "payloadbits=8 f=1 adv=random_eaves " +
        tail);
  };
  const std::pair<scn::Params, const char*> rejected[] = {
      {s2m("t=32765"), "t=32765 needs a key pool of 65536 symbols"},
      {s2m("tmul=10922"), "tmul=10922 needs a key pool of 65538 symbols"},
      {s2m("tmul=4000000000000"), "tmul=4000000000000 needs a key pool of "
                                  "more than 65534 symbols"},
      {congestion("pool=65534"), "pool=65534 needs a key pool of 65535"},
  };
  for (const auto& [point, message] : rejected) {
    try {
      (void)builder.build(point, "pool");
      ADD_FAILURE() << message << ": expected ScnError";
    } catch (const scn::ScnError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW((void)builder.build(s2m("t=32764"), "pool"));
  EXPECT_NO_THROW((void)builder.build(s2m("tmul=10921"), "pool"));
  EXPECT_NO_THROW((void)builder.build(congestion("pool=65533"), "pool"));
}

TEST(TrialBuilder, ExpectCacheSharedAcrossAdversaryAndFAxes) {
  scn::TrialBuilder builder;
  const auto point = [](const char* tail) {
    std::string s = "graph=clique n=8 algo=gossip mask=32 compile=byz_tree ";
    s += tail;
    return scn::Params::fromTokens(s);
  };
  (void)builder.build(point("f=1 adv=bitflip_byz"), "a");
  EXPECT_EQ(builder.expectCacheHits(), 0u);
  (void)builder.build(point("f=2 adv=camping_byz"), "b");
  (void)builder.build(point("f=2 adv=random_byz seed=5"), "c");
  EXPECT_EQ(builder.expectCacheHits(), 2u);  // payload axes unchanged
  // A payload-axis change misses.
  (void)builder.build(point("rounds=3 f=1 adv=bitflip_byz"), "d");
  EXPECT_EQ(builder.expectCacheHits(), 2u);
}

// --- 12-bit message-key node ids ---------------------------------------------

TEST(TrialBuilder, AdversarialKeyedPointsAboveKeyLimitAreRejected) {
  // byz_tree and rewind name a mismatching arc by a key with 12-bit node
  // ids; above kMaxKeyNodes a corrupted arc decodes to the wrong one, so an
  // adversarial point there is refused by name instead of silently missing
  // its corrections.
  scn::TrialBuilder builder;
  const std::string n = std::to_string(compile::kMaxKeyNodes + 1);
  for (const char* compiler : {"byz_tree", "rewind"}) {
    const scn::Params point = scn::Params::fromTokens(
        "graph=cycle n=" + n + " algo=gossip rounds=1 mask=32 compile=" +
        compiler + " f=1 adv=bitflip_byz");
    try {
      (void)builder.build(point, "big");
      ADD_FAILURE() << compiler << ": expected ScnError";
    } catch (const scn::ScnError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("n=" + n), std::string::npos) << what;
      EXPECT_NE(what.find("bitflip_byz"), std::string::npos) << what;
    }
  }
}

TEST(TrialBuilder, FaultFreePointAboveKeyLimitStillBuilds) {
  // The expander_20k benchmark point: n = 2*10^4 > kMaxKeyNodes, adv=none.
  scn::TrialBuilder builder;
  const scn::Params point = scn::Params::fromTokens(
      "graph=expander n=20000 d=4 gseed=1 algo=gossip rounds=1 mask=32 "
      "compile=byz_tree mode=sparse f=1 packing=greedy k=2 depthcap=14 "
      "dmcap=2 adv=none seed=0 threads=2 shards=2");
  EXPECT_NO_THROW((void)builder.build(point, "expander_20k"));
}

TEST(MessageKey, KeyLimitIsTheIdFieldWidth) {
  // The campaign check above trusts kMaxKeyNodes: id 4095 must round-trip
  // through a key and id 4096 must not.
  const graph::NodeId top = compile::kMaxKeyNodes - 1;
  ASSERT_EQ(top, 4095);
  const compile::DecodedKey d =
      compile::decodeKey(compile::encodeKey(top, top - 1, 5, 0x89abcdef));
  EXPECT_EQ(d.sender, top);
  EXPECT_EQ(d.receiver, top - 1);
  EXPECT_EQ(d.chunk, 5u);
  EXPECT_EQ(d.payload, 0x89abcdefu);
  EXPECT_NE(compile::decodeKey(compile::encodeKey(top + 1, 0, 0, 0)).sender,
            top + 1);
}
