#include "scn/registry.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "adv/strategies.h"
#include "algo/mst.h"
#include "algo/payloads.h"
#include "compile/baselines.h"
#include "compile/byz_tree_compiler.h"
#include "compile/congestion_compiler.h"
#include "compile/cycle_cover_compiler.h"
#include "compile/jain_unicast.h"
#include "compile/keypool.h"
#include "compile/rewind_compiler.h"
#include "compile/secure_broadcast.h"
#include "compile/static_to_mobile.h"
#include "exp/precompute_cache.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/stream.h"
#include "util/rng.h"

namespace mobile::scn {

namespace {

using graph::Graph;
using graph::NodeId;

// --- shared parameter conventions -------------------------------------------
//
//   n, rows/cols, dim, d, p, chords, bridges, span   graph family shape
//   gseed        randomized-generator seed (NOT the trial seed)
//   rounds       payload round knob (gossip iterations, pingpong volleys)
//   root         payload root node (bfs, sum)
//   input        payload input fill value
//   mask         payload output domain in bits (compiled payloads: 32)
//   f            adversary budget / compiler resilience target
//   packing      trusted preprocessing: star (cliques) or greedy
//   t            static_to_mobile threshold (0 = tmul x inner rounds);
//                its pool's 2 (r + t) symbols must fit GF(2^16)
//   w            secure_broadcast secret width in words
//   aseed        adversary RNG seed (default derives from the trial seed)
//   quiet/width  burst_byz schedule; budget (0 = _rounds/4)
//   seed         trial seed -- consumed by the scenario builder
//   _rounds      injected by the builder: the compiled round count

std::uint64_t graphSeed(const Params& p) { return p.u64("gseed", 1); }

/// Adversary seed: explicit aseed wins; otherwise derive from the trial
/// seed so seed sweeps see fresh (but reproducible) adversary randomness.
std::uint64_t advSeed(const Params& p) {
  return p.u64("aseed", 31 + p.u64("seed", 1));
}

int advF(const Params& p) { return static_cast<int>(p.integer("f", 1)); }

/// Round/depth knobs that default to the graph diameter must not *compute*
/// the diameter when the campaign line pins them: diameter() is an
/// all-sources BFS, which is the difference between an n=10^5 sweep
/// starting instantly and it burning O(n m) before round one.
long lazyDiameterDefault(const Params& p, const char* key, const Graph& g,
                         long extra) {
  if (p.has(key)) return p.integer(key);
  return graph::diameter(g) + extra;
}

std::vector<graph::EdgeId> firstEdges(const Params& p) {
  std::vector<graph::EdgeId> targets;
  const long f = p.integer("f", 1);
  for (long i = 0; i < f; ++i)
    targets.push_back(static_cast<graph::EdgeId>(i));
  return targets;
}

/// Trusted-preprocessing packing, shared across grid points with the same
/// graph fingerprint via the global PrecomputeCache.
std::shared_ptr<const compile::PackingKnowledge> packingFor(const Graph& g,
                                                            const Params& p) {
  const std::string kind = p.str("packing", "star");
  if (kind == "star") return exp::PrecomputeCache::global().starPacking(g, 2);
  if (kind == "greedy") {
    const int k = static_cast<int>(p.integer("k", 4));
    const auto root = static_cast<NodeId>(p.integer("root", 0));
    const int cap = static_cast<int>(lazyDiameterDefault(p, "depthcap", g, 1));
    return exp::PrecomputeCache::global().greedyPacking(g, k, root, cap);
  }
  throw ScnError("unknown packing '" + kind + "' (star, greedy)");
}

/// Reads integer `key` and refuses it outside [lo, hi].  It is read as a
/// long first, so a huge value is refused rather than wrapped.
int intInRange(const Params& p, const std::string& compiler,
               const std::string& key, long dflt, long lo,
               long hi = std::numeric_limits<int>::max()) {
  const long v = p.integer(key, dflt);
  if (v < lo || v > hi)
    throw ScnError(compiler + " " + key + "=" + std::to_string(v) + " (" +
                   std::to_string(lo) + ".." + std::to_string(hi) + ")");
  return static_cast<int>(v);
}

/// A key pool extracts over GF(2^16) at the evaluation points alpha^(i+1);
/// past compile::KeyPool::kMaxSymbols symbols they wrap around and repeat,
/// and Theorem 2.1's resilience is silently lost.  So such a point is
/// refused by the key that sized the pool.  `t` is read before any
/// narrowing, so a huge value reads as too many symbols, not as a wrap.
void requirePoolFits(const std::string& key, long r, long t,
                     long wordsPerRound) {
  constexpr long kMax = compile::KeyPool::kMaxSymbols;
  if (t < 0) throw ScnError(key + " (key-pool threshold must be >= 0)");
  if (r <= kMax && t <= kMax &&
      compile::KeyPool::symbols(r, t, wordsPerRound) <= kMax)
    return;
  const std::string symbols =
      r <= kMax && t <= kMax
          ? std::to_string(compile::KeyPool::symbols(r, t, wordsPerRound))
          : "more than " + std::to_string(kMax);
  throw ScnError(key + " needs a key pool of " + symbols +
                 " symbols (GF(2^16) extraction takes at most " +
                 std::to_string(kMax) + ")");
}

/// byz_tree and rewind name a dominating-mismatch arc by a message key
/// with 12-bit node ids (compile::encodeKey).  Above kMaxKeyNodes nodes a
/// corrupted arc decodes to the wrong one and the correction silently
/// misses; fault-free runs are unaffected, because sent and received keys
/// cancel bit for bit.  So such points may only run with adv=none.
void requireKeyableNodes(const Graph& g, const Params& p,
                         const std::string& compiler) {
  const std::string adv = p.str("adv", "none");
  if (g.nodeCount() > compile::kMaxKeyNodes && adv != "none")
    throw ScnError(compiler + " keys carry 12-bit node ids: n=" +
                   std::to_string(g.nodeCount()) + " > " +
                   std::to_string(compile::kMaxKeyNodes) +
                   " runs only with adv=none, not adv=" + adv);
}

std::vector<std::uint64_t> inputFill(const Graph& g, const Params& p,
                                     std::uint64_t dflt) {
  return std::vector<std::uint64_t>(
      static_cast<std::size_t>(g.nodeCount()), p.u64("input", dflt));
}

void registerGraphs(Registry<GraphFactory>& r) {
  r.add("clique", "K_n (n)", [](const Params& p) {
    return graph::clique(static_cast<NodeId>(p.integer("n")));
  });
  r.add("cycle", "C_n (n)", [](const Params& p) {
    return graph::cycle(static_cast<NodeId>(p.integer("n")));
  });
  r.add("hypercube", "2^dim nodes (dim)", [](const Params& p) {
    return graph::hypercube(static_cast<int>(p.integer("dim")));
  });
  r.add("torus", "rows x cols grid (rows, cols)", [](const Params& p) {
    return graph::torus(static_cast<NodeId>(p.integer("rows")),
                        static_cast<NodeId>(p.integer("cols")));
  });
  r.add("random_regular", "random d-regular expander (n, d, gseed)",
        [](const Params& p) {
          util::Rng rng(graphSeed(p));
          return graph::randomRegular(static_cast<NodeId>(p.integer("n")),
                                      static_cast<int>(p.integer("d")), rng);
        });
  r.add("expander",
        "streamed permutation-union d-regular expander, scales to n=10^6 "
        "(n, d, gseed)",
        [](const Params& p) {
          return graph::materialize(graph::expanderStream(
              static_cast<NodeId>(p.integer("n")),
              static_cast<int>(p.integer("d", 4)), graphSeed(p)));
        });
  r.add("erdos_renyi", "connected G(n, p) (n, p, gseed)",
        [](const Params& p) {
          util::Rng rng(graphSeed(p));
          return graph::erdosRenyiConnected(
              static_cast<NodeId>(p.integer("n")), p.real("p", 0.5), rng);
        });
  r.add("cycle_chords", "cycle plus random chords (n, chords, gseed)",
        [](const Params& p) {
          util::Rng rng(graphSeed(p));
          return graph::cycleWithChords(
              static_cast<NodeId>(p.integer("n")),
              static_cast<int>(p.integer("chords")), rng);
        });
  r.add("dumbbell", "two cliques joined by bridges (n, bridges)",
        [](const Params& p) {
          return graph::dumbbell(static_cast<NodeId>(p.integer("n")),
                                 static_cast<int>(p.integer("bridges", 1)));
        });
  r.add("circulant", "node i ~ i +/- 1..span (n, span)",
        [](const Params& p) {
          return graph::circulant(static_cast<NodeId>(p.integer("n")),
                                  static_cast<int>(p.integer("span")));
        });
}

void registerAlgos(Registry<AlgoFactory>& r) {
  r.add("floodmax", "max-id flooding leader election (rounds = diam + 1)",
        [](const Graph& g, const Params& p) {
          const int rounds =
              static_cast<int>(lazyDiameterDefault(p, "rounds", g, 1));
          return algo::makeFloodMax(g, rounds);
        });
  r.add("bfs", "BFS layering from root (root, depth = diam)",
        [](const Graph& g, const Params& p) {
          const auto root = static_cast<NodeId>(p.integer("root", 0));
          const int depth =
              static_cast<int>(lazyDiameterDefault(p, "depth", g, 0));
          return algo::makeBfsTree(g, root, depth);
        });
  r.add("sum",
        "sum of inputs via convergecast + broadcast (root, input, "
        "depth = diam)",
        [](const Graph& g, const Params& p) {
          const auto root = static_cast<NodeId>(p.integer("root", 0));
          const int depth =
              static_cast<int>(lazyDiameterDefault(p, "depth", g, 0));
          return algo::makeSumAggregate(g, root, depth, inputFill(g, p, 7));
        });
  r.add("gossip",
        "neighborhood hash mixing, the corruption canary "
        "(rounds, input, mask)",
        [](const Graph& g, const Params& p) {
          return algo::makeGossipHash(
              g, static_cast<int>(p.integer("rounds", 2)),
              inputFill(g, p, 9),
              static_cast<unsigned>(p.integer("mask", 64)));
        });
  r.add("pingpong",
        "adaptive two-party interaction on edge a-b "
        "(a, b, rounds, mask)",
        [](const Graph& g, const Params& p) {
          return algo::makePingPong(
              g, static_cast<NodeId>(p.integer("a", 0)),
              static_cast<NodeId>(p.integer("b", 1)),
              static_cast<int>(p.integer("rounds", 2)),
              p.u64("inputa", 0x111), p.u64("inputb", 0x222),
              static_cast<unsigned>(p.integer("mask", 64)));
        });
  r.add("mst", "Boruvka minimum spanning tree",
        [](const Graph& g, const Params& p) {
          return algo::makeBoruvkaMst(
              g, static_cast<int>(p.integer("floodlen", 0)));
        });
  r.add("secure_broadcast",
        "Theorem A.4 share-dispersal broadcast (w, f, packing)",
        [](const Graph& g, const Params& p) {
          const long w = p.integer("w", 1);
          std::vector<std::uint64_t> secret;
          for (long i = 0; i < w; ++i)
            secret.push_back(0xbeef00 + static_cast<std::uint64_t>(i));
          return compile::makeMobileSecureBroadcast(g, packingFor(g, p),
                                                    std::move(secret),
                                                    advF(p));
        });
  r.add("jain_multicast",
        "Appendix A.1 Jain-substitute mobile-secure multicast "
        "(s, t, k edge-disjoint paths, r parallel instances)",
        [](const Graph& g, const Params& p) {
          compile::MulticastPlan mp;
          const auto s = static_cast<NodeId>(p.integer("s", 0));
          const auto t = static_cast<NodeId>(p.integer("t", 1));
          const int k = static_cast<int>(p.integer("k", 2));
          const long instances = p.integer("r", 1);
          for (long i = 0; i < instances; ++i) {
            mp.instances.push_back(compile::planUnicast(g, s, t, k));
            mp.secrets.push_back(0xaced00 + static_cast<std::uint64_t>(i));
          }
          return compile::makeMobileSecureMulticast(g, std::move(mp));
        });
}

void registerCompilers(Registry<CompileFactory>& r) {
  r.add("none", "run the payload uncompiled",
        [](const Graph&, const sim::Algorithm& inner, const Params&) {
          return inner;
        });
  r.add("naive_repetition",
        "2f+1 per-edge repetition with majority (the strawman) (f)",
        [](const Graph& g, const sim::Algorithm& inner, const Params& p) {
          return compile::compileNaiveRepetition(g, inner, advF(p));
        });
  r.add("byz_tree",
        "Theorem 3.5 byzantine tree-packing compiler "
        "(f, packing, mode=l0|sparse, dmcap [0 = 2f+8])",
        [](const Graph& g, const sim::Algorithm& inner, const Params& p) {
          requireKeyableNodes(g, p, "byz_tree");
          compile::ByzOptions opts;
          const std::string mode = p.str("mode", "l0");
          if (mode == "sparse")
            opts.correction = compile::CorrectionMode::SparseOneShot;
          else if (mode != "l0")
            throw ScnError("byz_tree mode '" + mode + "' (l0, sparse)");
          // Cap on transported dominating-mismatch entries.  The auto
          // default (2f + 8) carries slack; the paper's tight transport
          // bound is 2f, and on low-k packings every extra entry costs a
          // whole ECC chunk of (DTP + 1) scheduled steps -- the difference
          // between the n=10^5 scale campaign finishing in CI or not.
          opts.dmCap =
              intInRange(p, "byz_tree", "dmcap", 0, 0, compile::kMaxDmKeys);
          try {
            return compile::compileByzantineTree(g, inner, packingFor(g, p),
                                                 advF(p), opts);
          } catch (const std::overflow_error& e) {
            throw ScnError("byz_tree over " + std::to_string(inner.rounds) +
                           " payload rounds " + e.what());
          }
        });
  r.add("rewind",
        "Theorem 4.1 rewind-if-error compiler (f, packing, multiplier)",
        [](const Graph& g, const sim::Algorithm& inner, const Params& p) {
          requireKeyableNodes(g, p, "rewind");
          compile::RewindOptions opts;
          opts.multiplier =
              intInRange(p, "rewind", "multiplier", opts.multiplier, 1);
          try {
            return compile::compileRewind(g, inner, packingFor(g, p),
                                          advF(p), opts);
          } catch (const std::overflow_error& e) {
            throw ScnError("rewind multiplier=" +
                           std::to_string(opts.multiplier) + " " + e.what());
          }
        });
  r.add("static_to_mobile",
        "Theorem 1.2 key-pool masking compiler "
        "(t; 0 = tmul x inner rounds)",
        [](const Graph& g, const sim::Algorithm& inner, const Params& p) {
          long t = p.integer("t", 0);
          std::string key = "static_to_mobile t=" + std::to_string(t);
          if (t <= 0) {
            const long tmul = p.integer("tmul", 1);
            key = "static_to_mobile tmul=" + std::to_string(tmul);
            t = std::clamp(tmul, -1L, compile::KeyPool::kMaxSymbols + 1) *
                inner.rounds;
          }
          requirePoolFits(key, inner.rounds, t,
                          compile::kStaticToMobileWordsPerRound);
          return compile::compileStaticToMobile(g, inner,
                                                static_cast<int>(t));
        });
  r.add("congestion",
        "Theorem 1.3 congestion-sensitive masking compiler "
        "(f, packing, payloadbits, hashbits; payloads must fit payloadbits)",
        [](const Graph& g, const sim::Algorithm& inner, const Params& p) {
          compile::CongestionCompilerOptions opts;
          // Decoding tabulates all 2^payloadbits preimages, and the hash
          // image domain is [0, 2^hashbits) with a 64-bit mask.
          const long payloadBits = p.integer("payloadbits", opts.payloadBits);
          const long hashBits = p.integer("hashbits", opts.hashBits);
          if (payloadBits < 1 || payloadBits > 16)
            throw ScnError("congestion payloadbits=" +
                           std::to_string(payloadBits) + " (1..16)");
          if (hashBits < payloadBits || hashBits > 63)
            throw ScnError("congestion hashbits=" + std::to_string(hashBits) +
                           " (payloadbits..63)");
          opts.payloadBits = static_cast<unsigned>(payloadBits);
          opts.hashBits = static_cast<unsigned>(hashBits);
          const long pool = p.integer("pool", opts.poolThreshold);
          requirePoolFits("congestion pool=" + std::to_string(pool),
                          inner.rounds, pool > 0 ? pool : 3L * inner.rounds,
                          1);
          opts.poolThreshold = static_cast<int>(pool);
          return compile::compileCongestionSensitive(
              g, inner, packingFor(g, p), advF(p), opts);
        });
  r.add("cycle_cover",
        "Theorem 5.5 fault-tolerant cycle-cover compiler "
        "(f; needs edge connectivity >= 2f+1)",
        [](const Graph& g, const sim::Algorithm& inner, const Params& p) {
          return compile::compileCycleCover(g, inner, advF(p));
        });
}

void registerAdversaries(Registry<AdversaryFactory>& r) {
  using P = std::unique_ptr<adv::Adversary>;
  r.add("none", "fault-free execution",
        [](const Graph&, const Params&) -> P { return nullptr; });
  r.add("random_eaves", "f fresh random edges observed per round (f, aseed)",
        [](const Graph&, const Params& p) -> P {
          return std::make_unique<adv::RandomEavesdropper>(advF(p),
                                                           advSeed(p));
        });
  r.add("camping_eaves", "observes edges 0..f-1 every round (f)",
        [](const Graph&, const Params& p) -> P {
          return std::make_unique<adv::CampingEavesdropper>(firstEdges(p),
                                                            advF(p));
        });
  r.add("sweeping_eaves", "rotates observation over all edges (f)",
        [](const Graph&, const Params& p) -> P {
          return std::make_unique<adv::SweepingEavesdropper>(advF(p));
        });
  r.add("random_byz", "f random edges garbled per round (f, aseed)",
        [](const Graph&, const Params& p) -> P {
          return std::make_unique<adv::RandomByzantine>(advF(p), advSeed(p));
        });
  r.add("camping_byz",
        "garbles edges 0..f-1 every round -- the repetition killer "
        "(f, aseed)",
        [](const Graph&, const Params& p) -> P {
          return std::make_unique<adv::CampingByzantine>(firstEdges(p),
                                                         advF(p), advSeed(p));
        });
  r.add("rotating_byz", "rotates corruption over all edges (f, aseed)",
        [](const Graph&, const Params& p) -> P {
          return std::make_unique<adv::RotatingByzantine>(advF(p),
                                                          advSeed(p));
        });
  r.add("tree_targeted_byz",
        "spreads hits over distinct packing trees (f, packing, aseed)",
        [](const Graph& g, const Params& p) -> P {
          const auto packing =
              p.str("packing", "star") == "star"
                  ? exp::PrecomputeCache::global().starTreePacking(g)
                  : exp::PrecomputeCache::global().greedyTreePacking(
                        g, static_cast<int>(p.integer("k", 4)),
                        static_cast<NodeId>(p.integer("root", 0)),
                        static_cast<int>(
                            lazyDiameterDefault(p, "depthcap", g, 1)));
          return std::make_unique<adv::TreeTargetedByzantine>(
              advF(p), *packing, g, advSeed(p));
        });
  r.add("burst_byz",
        "round-error-rate bursts: quiet, then floods "
        "(f, budget [0 = _rounds/4], quiet, width, aseed)",
        [](const Graph&, const Params& p) -> P {
          long budget = p.integer("budget", 0);
          if (budget <= 0) budget = p.integer("_rounds", 400) / 4;
          return std::make_unique<adv::BurstByzantine>(
              advF(p), budget, static_cast<int>(p.integer("quiet", 9)),
              static_cast<int>(p.integer("width", 40)), advSeed(p));
        });
  r.add("bitflip_byz", "flips one low bit per present message (f, aseed)",
        [](const Graph&, const Params& p) -> P {
          return std::make_unique<adv::BitflipByzantine>(advF(p), advSeed(p));
        });
}

}  // namespace

Registry<GraphFactory>& graphs() {
  static Registry<GraphFactory>* r = [] {
    auto* reg = new Registry<GraphFactory>("graph family");
    registerGraphs(*reg);
    return reg;
  }();
  return *r;
}

Registry<AlgoFactory>& algos() {
  static Registry<AlgoFactory>* r = [] {
    auto* reg = new Registry<AlgoFactory>("payload algorithm");
    registerAlgos(*reg);
    return reg;
  }();
  return *r;
}

Registry<CompileFactory>& compilers() {
  static Registry<CompileFactory>* r = [] {
    auto* reg = new Registry<CompileFactory>("compiler");
    registerCompilers(*reg);
    return reg;
  }();
  return *r;
}

Registry<AdversaryFactory>& adversaries() {
  static Registry<AdversaryFactory>* r = [] {
    auto* reg = new Registry<AdversaryFactory>("adversary strategy");
    registerAdversaries(*reg);
    return reg;
  }();
  return *r;
}

namespace {
template <typename Fn>
void printCatalog(std::ostream& os, const char* title,
                  const Registry<Fn>& reg) {
  os << title << ":\n";
  for (const auto& e : reg.entries())
    os << "  " << e.name << "  --  " << e.help << "\n";
}
}  // namespace

void printRegistries(std::ostream& os) {
  printCatalog(os, "graph families (graph=...)", graphs());
  printCatalog(os, "payload algorithms (algo=...)", algos());
  printCatalog(os, "compilers (compile=...)", compilers());
  printCatalog(os, "adversary strategies (adv=...)", adversaries());
}

}  // namespace mobile::scn
