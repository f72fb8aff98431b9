// Microbenchmarks (google-benchmark): the hot kernels under the compilers,
// plus whole-round throughput probes for the message plane (steps/sec and
// bytes-allocated/round -- the zero-allocation contract's regression gate).
#include <atomic>
#include <cstdlib>
#include <new>

#include <benchmark/benchmark.h>

#include "adv/strategies.h"
#include "algo/mst.h"
#include "algo/payloads.h"
#include "coding/reed_solomon.h"
#include "compile/baselines.h"
#include "compile/byz_tree_compiler.h"
#include "compile/expander_packing.h"
#include "compile/keypool.h"
#include "compile/rewind_compiler.h"
#include "compile/rs_scheduler.h"
#include "compile/secure_broadcast.h"
#include "exp/bench_args.h"
#include "gf/gf16.h"
#include "gf/slab.h"
#include "gf/vandermonde.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/tree_packing.h"
#include "hash/cwise.h"
#include "obs/obs.h"
#include "sim/network.h"
#include "sketch/l0sampler.h"
#include "sketch/sparse_recovery.h"
#include "util/rng.h"

using namespace mobile;

// --- heap accounting ---------------------------------------------------------
// Global operator new/delete hooks so the round-throughput benchmarks can
// report bytes-allocated/round.  Relaxed atomics: the probes below run the
// engine single-threaded, the counter only needs to be monotonic.
namespace {
std::atomic<std::uint64_t> g_bytesAllocated{0};
}  // namespace

// GCC pairs the replaced operator delete with its builtin model of operator
// new when it inlines the hooks into static initializers, yielding a
// spurious -Wmismatched-new-delete; the hooks below are a matched
// malloc/free pair by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_bytesAllocated.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

static void BM_GF16_Mul(benchmark::State& state) {
  util::Rng rng(1);
  gf::F16 a(static_cast<std::uint16_t>(rng.next() | 1));
  gf::F16 b(static_cast<std::uint16_t>(rng.next() | 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a * b);
  }
}
BENCHMARK(BM_GF16_Mul);

// --- GF(2^16) slab kernels ---------------------------------------------------
// The batched layer under RS encode/decode, Vandermonde extraction and the
// Berlekamp-Welch eliminations (src/gf/slab.h).  BM_GfSlabAxpy includes the
// per-constant split-nibble table build, as the consumers pay it.

static void BM_GfSlabAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  std::vector<std::uint16_t> dst(n), src(n);
  for (auto& w : src) w = static_cast<std::uint16_t>(rng.next());
  const gf::F16 c(static_cast<std::uint16_t>(rng.next() | 1));
  for (auto _ : state) {
    gf::addScaledSlab(dst.data(), c, src.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
// The size sweep spans the log/antilog->table cutover (gf::kSlabCutover =
// 16): /8 runs the per-element log/antilog loop, /16 and up the
// split-nibble table loop.  The end-to-end workloads' table spans stop at
// 36 symbols (key-pool extraction); the longer sizes show the loop's
// steady state.
BENCHMARK(BM_GfSlabAxpy)
    ->Arg(8)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(8192);

static void BM_VandermondeExtract(benchmark::State& state) {
  // The Theorem 2.1 extraction map y = x^T A in matrix form, the reference
  // KeyPool's power sums are tested against: n symbols in, n/3 extracted.
  const auto n = static_cast<std::size_t>(state.range(0));
  const gf::Vandermonde m(n, n / 3);
  util::Rng rng(12);
  std::vector<gf::F16> x(n);
  for (auto& s : x) s = gf::F16(static_cast<std::uint16_t>(rng.next()));
  for (auto _ : state) benchmark::DoNotOptimize(m.applyTransposed(x));
}
BENCHMARK(BM_VandermondeExtract)->Arg(24)->Arg(96)->Arg(384);

static void BM_RsEncode(benchmark::State& state) {
  const auto ell = static_cast<std::size_t>(state.range(0));
  const coding::ReedSolomon rs(ell, 3 * ell);  // 3*ell shares
  util::Rng rng(2);
  std::vector<gf::F16> msg(ell);
  for (auto& s : msg) s = gf::F16(static_cast<std::uint16_t>(rng.next()));
  for (auto _ : state) benchmark::DoNotOptimize(rs.encode(msg));
}
BENCHMARK(BM_RsEncode)->Arg(4)->Arg(16)->Arg(64);

static void BM_RsDecode(benchmark::State& state) {
  // Args: {ell, injected errors}.  e = 0 hits the zero-syndrome
  // short-circuit (verify-free interpolation), e = 1 the smallest BM +
  // Chien + Forney pipeline, e = maxErrors() the full error-locator work.
  const auto ell = static_cast<std::size_t>(state.range(0));
  const auto e = static_cast<std::size_t>(state.range(1));
  const coding::ReedSolomon rs(ell, 3 * ell);
  util::Rng rng(3);
  std::vector<gf::F16> msg(ell);
  for (auto& s : msg) s = gf::F16(static_cast<std::uint16_t>(rng.next()));
  auto word = rs.encode(msg);
  for (std::size_t i = 0; i < e; ++i)
    word[i] = word[i] + gf::F16(static_cast<std::uint16_t>(rng.next() | 1));
  for (auto _ : state) benchmark::DoNotOptimize(rs.decode(word));
}
BENCHMARK(BM_RsDecode)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({16, 16});

// --- compile-time preprocessing kernels --------------------------------------
// The n = 10^6 notch's precompute hot path (graph/tree_packing.cc,
// graph/bfs.cc), both sequential.  Arg: n.

static void BM_TreePacking(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  util::Rng rng(21);
  const graph::Graph g = graph::randomRegular(n, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::greedyLowDepthPacking(g, 2, 0, 32));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edgeCount()));
}
BENCHMARK(BM_TreePacking)->Arg(256)->Arg(1024);

static void BM_BfsLayering(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  util::Rng rng(22);
  const graph::Graph g = graph::randomRegular(n, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfsDistances(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BfsLayering)->Arg(4096)->Arg(65536);

static void BM_L0_Update(benchmark::State& state) {
  sketch::L0Sampler s(42, 60, 14);
  util::Rng rng(4);
  for (auto _ : state) s.update(rng.next() % (1ULL << 59), 1);
}
BENCHMARK(BM_L0_Update);

static void BM_L0Bundle_Build(benchmark::State& state) {
  // One hop build of the n=16 clique's l0 correction: reseed the per-thread
  // bundle of t = 5 samplers x 14 levels, then ingest a node's 2 * deg = 30
  // stream entries (its sends and its estimates of its receipts).
  sketch::L0Bundle s(42, {5, 14});
  util::Rng rng(7);
  std::vector<std::uint64_t> keys(30);
  for (auto& k : keys) k = rng.next() % (1ULL << 59);
  for (auto _ : state) {
    s.reseed(rng.next());
    for (std::size_t i = 0; i < keys.size(); ++i)
      s.update(keys[i], i % 2 == 0 ? 1 : -1);
    benchmark::DoNotOptimize(s.samplers().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_L0Bundle_Build);

static void BM_L0_MergeSerialized(benchmark::State& state) {
  sketch::L0Sampler a(42, 60, 14), b(42, 60, 14);
  util::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    a.update(rng.next() % (1ULL << 59), 1);
    b.update(rng.next() % (1ULL << 59), -1);
  }
  std::vector<std::uint64_t> words;
  sketch::L0Sampler c(42, 60, 14);
  for (auto _ : state) {
    words.clear();
    b.appendTo(words);
    c.loadWords(words.data(), words.size());
    c.merge(a);
    benchmark::DoNotOptimize(c.query());
  }
}
BENCHMARK(BM_L0_MergeSerialized);

static void BM_SparseRecovery(benchmark::State& state) {
  util::Rng rng(6);
  for (auto _ : state) {
    sketch::SparseRecovery s(rng.next(), 16);
    for (int i = 0; i < 12; ++i) s.update(rng.next() % (1ULL << 59), 1);
    benchmark::DoNotOptimize(s.recoverAll());
  }
}
BENCHMARK(BM_SparseRecovery);

// --- zero-alloc steady-state probes ------------------------------------------
// The scratch-arena acceptance gates: persistent objects driven through
// their reuse surfaces must settle to bytes_per_op == 0 after the first
// (capacity-warming) iteration.

static void BM_SketchSerializeSteadyState(benchmark::State& state) {
  // L0Sampler round trip exactly as the byzantine tree compiler drives it:
  // appendTo a cleared, retained word buffer, loadWords into a persistent
  // receive sketch, merge.
  sketch::L0Sampler a(42, 60, 14), b(42, 60, 14);
  util::Rng rng(9);
  for (int i = 0; i < 64; ++i) a.update(rng.next() % (1ULL << 59), 1);
  std::vector<std::uint64_t> words;
  a.appendTo(words);  // warm-up: buffer capacity settles here
  std::uint64_t ops = 0;
  const std::uint64_t bytes0 =
      g_bytesAllocated.load(std::memory_order_relaxed);
  for (auto _ : state) {
    words.clear();
    a.appendTo(words);
    b.loadWords(words.data(), words.size());
    b.merge(a);
    benchmark::DoNotOptimize(words.data());
    ++ops;
  }
  const std::uint64_t bytes =
      g_bytesAllocated.load(std::memory_order_relaxed) - bytes0;
  state.counters["bytes_per_op"] =
      ops == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(ops);
}
BENCHMARK(BM_SketchSerializeSteadyState);

static void BM_SparseReseedSteadyState(benchmark::State& state) {
  // SparseRecovery scratch reuse including the per-(tree, iteration)
  // reseed the compilers perform: re-derive randomness, reload, merge --
  // all in place.
  sketch::SparseRecovery a(42, 16), b(42, 16);
  util::Rng rng(10);
  for (int i = 0; i < 12; ++i) a.update(rng.next() % (1ULL << 59), 1);
  std::vector<std::uint64_t> words;
  a.appendTo(words);
  std::uint64_t ops = 0;
  const std::uint64_t bytes0 =
      g_bytesAllocated.load(std::memory_order_relaxed);
  for (auto _ : state) {
    words.clear();
    a.appendTo(words);
    b.reseed(42);
    b.loadWords(words.data(), words.size());
    b.merge(a);
    benchmark::DoNotOptimize(words.data());
    ++ops;
  }
  const std::uint64_t bytes =
      g_bytesAllocated.load(std::memory_order_relaxed) - bytes0;
  state.counters["bytes_per_op"] =
      ops == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(ops);
}
BENCHMARK(BM_SparseReseedSteadyState);

static void BM_KeyPoolExtract(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  compile::KeyPool pool(r, 2 * r);
  util::Rng rng(7);
  std::vector<std::uint64_t> symbols;
  for (int i = 0; i < pool.exchangeRounds(); ++i) symbols.push_back(rng.next());
  std::vector<std::uint64_t> keys(pool.keyWords());
  for (auto _ : state) {
    pool.extract(symbols, keys);
    benchmark::DoNotOptimize(keys.data());
  }
}
BENCHMARK(BM_KeyPoolExtract)->Arg(8)->Arg(32);

static void BM_CwiseHash(benchmark::State& state) {
  util::Rng rng(8);
  const hash::CwiseHash h(static_cast<std::size_t>(state.range(0)), 30, rng);
  std::uint64_t x = 0;
  for (auto _ : state) benchmark::DoNotOptimize(h(++x));
}
BENCHMARK(BM_CwiseHash)->Arg(2)->Arg(16)->Arg(64);

// --- round-throughput probes -------------------------------------------------
// One iteration = one engine round (Network::runExact(1)); the network is
// rewound via reset() whenever its schedule is exhausted, so the probe
// measures the steady-state cost of the send -> adversary -> receive loop
// (including the occasional trial-style reset, exactly as sweeps pay it).
// items/sec therefore reads as rounds (steps) per second.
namespace {

void runRoundLoop(benchmark::State& state, sim::Network& net, int schedule) {
  std::uint64_t rounds = 0;
  const std::uint64_t bytes0 =
      g_bytesAllocated.load(std::memory_order_relaxed);
  for (auto _ : state) {
    if (net.roundsExecuted() >= schedule) net.reset();
    net.runExact(1);
    ++rounds;
  }
  const std::uint64_t bytes =
      g_bytesAllocated.load(std::memory_order_relaxed) - bytes0;
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
  state.counters["bytes_per_round"] =
      rounds == 0 ? 0.0
                  : static_cast<double>(bytes) / static_cast<double>(rounds);
}

}  // namespace

static void BM_RoundThroughput_MST(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  const sim::Algorithm a = algo::makeBoruvkaMst(g);
  sim::Network net(g, a, 1);
  runRoundLoop(state, net, a.rounds);
}
BENCHMARK(BM_RoundThroughput_MST)->Arg(16)->Arg(32);

static void BM_RoundThroughput_MST_ObsEnabled(benchmark::State& state) {
  // The instrumented engine path (obs::enabled() == true, metrics live,
  // no tracer): reads against BM_RoundThroughput_MST to quantify
  // stepObserved()'s per-phase timing + registry deposits.  The
  // bytes_per_round counter must stay 0 -- registry lanes are pre-sized
  // and the corruption ledger is sparse.  With the obs build OFF,
  // setEnabled is a no-op and this measures the same loop as plain MST.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  const sim::Algorithm a = algo::makeBoruvkaMst(g);
  sim::Network net(g, a, 1);
  obs::setEnabled(true);
  net.runExact(1);  // metric ids register on the first observed round
  net.reset();
  runRoundLoop(state, net, a.rounds);
  obs::setEnabled(false);
}
BENCHMARK(BM_RoundThroughput_MST_ObsEnabled)->Arg(16)->Arg(32);

static void BM_RoundThroughput_SecureBroadcast(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  const auto pk = compile::distributePacking(g, graph::cliqueStarPacking(g), 2);
  const sim::Algorithm a =
      compile::makeMobileSecureBroadcast(g, pk, {0xbeef}, 2);
  adv::RandomEavesdropper eaves(2, 17);
  sim::Network net(g, a, 1, &eaves);
  runRoundLoop(state, net, a.rounds);
}
BENCHMARK(BM_RoundThroughput_SecureBroadcast)->Arg(16)->Arg(32);

static void BM_RoundThroughput_ByzCompiled(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  const auto pk = compile::cliquePackingKnowledge(g);
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(g.nodeCount()),
                                    5);
  const sim::Algorithm inner = algo::makeGossipHash(g, 1, inputs, 32);
  const sim::Algorithm a = compile::compileByzantineTree(g, inner, pk, 1);
  adv::RandomByzantine byz(1, 7);
  sim::Network net(g, a, 1, &byz);
  runRoundLoop(state, net, a.rounds);
}
BENCHMARK(BM_RoundThroughput_ByzCompiled)->Arg(12)->Arg(16);

static void BM_RoundThroughput_Rewind(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  const auto pk = compile::cliquePackingKnowledge(g);
  const sim::Algorithm inner = algo::makePingPong(g, 0, 1, 2, 0x111, 0x222, 32);
  const sim::Algorithm a =
      compile::compileRewind(g, inner, pk, 1, compile::RewindOptions{});
  adv::RandomByzantine byz(1, 7);
  sim::Network net(g, a, 1, &byz);
  runRoundLoop(state, net, a.rounds);
}
BENCHMARK(BM_RoundThroughput_Rewind)->Arg(8)->Arg(12);

static void BM_RoundThroughput_RsScheduler(benchmark::State& state) {
  // The Lemma 3.3 scheduler alone (no inner algorithm, no adversary).
  // After the slot-indexed stash port the steady state allocates nothing:
  // one whole schedule runs before timing so every stash slot has its
  // capacity, and the scheduler implements reinitNode, so even the
  // trial-reset iterations reuse the warm node objects.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  const auto pk = compile::cliquePackingKnowledge(g);
  auto shared = std::make_shared<compile::ScheduledBroadcastShared>();
  const sim::Algorithm a =
      compile::makeScheduledTreeBroadcast(g, pk, /*rho=*/3, shared);
  sim::Network net(g, a, 1);
  net.runExact(a.rounds);  // warm-up trial
  net.reset();
  runRoundLoop(state, net, a.rounds);
}
BENCHMARK(BM_RoundThroughput_RsScheduler)->Arg(12)->Arg(16);

static void BM_RoundThroughput_Repetition(benchmark::State& state) {
  // The repetition strawman relays every inner message 2f+1 times across
  // every edge -- the most message-plane-bound compiled protocol in the
  // tree, so this probe tracks the plane itself rather than sketch math.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(g.nodeCount()),
                                    5);
  const sim::Algorithm inner = algo::makeGossipHash(g, 4, inputs, 32);
  const sim::Algorithm a = compile::compileNaiveRepetition(g, inner, 2);
  adv::RandomByzantine byz(2, 7);
  sim::Network net(g, a, 1, &byz);
  net.runExact(a.rounds);  // warm-up trial: slot capacities settle
  net.reset();
  runRoundLoop(state, net, a.rounds);
}
BENCHMARK(BM_RoundThroughput_Repetition)->Arg(24)->Arg(48);

static void BM_RoundThroughput_RepetitionFaultFree(benchmark::State& state) {
  // The same compiled pipeline with no adversary: isolates the
  // exchange-capture + vote + redelivery path, which must report
  // bytes_per_round == 0.  Under attack (the probe above) a vote slot
  // grows the first time a hop sees more distinct copies than before, so
  // that probe allocates a little until every slot has met its worst
  // round.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(g.nodeCount()),
                                    5);
  const sim::Algorithm inner = algo::makeGossipHash(g, 4, inputs, 32);
  const sim::Algorithm a = compile::compileNaiveRepetition(g, inner, 2);
  sim::Network net(g, a, 1);
  net.runExact(a.rounds);
  net.reset();
  runRoundLoop(state, net, a.rounds);
}
BENCHMARK(BM_RoundThroughput_RepetitionFaultFree)->Arg(24)->Arg(48);

static void BM_RoundThroughput_AdversaryTouch(benchmark::State& state) {
  // The adversary phase in near-isolation: FloodMax (allocation-free
  // sends) under a mobile byzantine touching f edges per round.  With the
  // TamperScratch arena, the CSR ledger, and the strategy scratch buffers,
  // the steady state must report bytes_per_round == 0 even though every
  // round snapshots 2f pre-images and records f corruptions.
  const auto f = static_cast<int>(state.range(0));
  const graph::Graph g = graph::clique(16);
  const int schedule = 64;
  const sim::Algorithm a = algo::makeFloodMax(g, schedule);
  adv::RandomByzantine byz(f, 7);
  sim::Network net(g, a, 1, &byz);
  net.runExact(schedule);  // warm-up: scratch/ledger/plane capacities settle
  net.reset();
  runRoundLoop(state, net, schedule);
}
BENCHMARK(BM_RoundThroughput_AdversaryTouch)->Arg(1)->Arg(8);

static void BM_NetworkRound_Clique(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const graph::Graph g = graph::clique(n);
  const sim::Algorithm a = algo::makeFloodMax(g, 1 << 20);
  sim::Network net(g, a, 1);
  for (auto _ : state) net.runExact(1);
  state.SetItemsProcessed(state.iterations() * g.arcCount());
}
BENCHMARK(BM_NetworkRound_Clique)->Arg(16)->Arg(64);

// Custom main: understand the fleet-wide --smoke/--threads/--json flags
// (consumed), forward everything else to Google Benchmark (or the vendored
// mini_benchmark shim).  Smoke mode shrinks per-benchmark measurement time
// so CI sweeps finish in seconds; --json routes the library's own JSON
// report to the requested path (the BENCH_micro.json CI artifact).
int main(int argc, char** argv) {
  const exp::BenchArgs args =
      exp::parseBenchArgs(argc, argv, /*allowUnknown=*/true);
  std::vector<char*> benchArgv(argv, argv + argc);
  // Plain double form: benchmark <= 1.7 rejects the "0.01s" suffix form,
  // >= 1.8 accepts both (with a deprecation note).
  std::string minTime = "--benchmark_min_time=0.01";
  if (args.smoke) benchArgv.push_back(minTime.data());
  std::string outFlag;
  std::string outFormat = "--benchmark_out_format=json";
  if (!args.jsonPath.empty()) {
    outFlag = "--benchmark_out=" + args.jsonPath;
    benchArgv.push_back(outFlag.data());
    benchArgv.push_back(outFormat.data());
  }
  int benchArgc = static_cast<int>(benchArgv.size());
  benchmark::Initialize(&benchArgc, benchArgv.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
