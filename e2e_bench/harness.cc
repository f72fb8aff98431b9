// e2e_harness: runs one benchmark workload (a campaign file) through the
// public scn/exp API and writes what it measured as one JSON document.
//
//   e2e_harness --campaign FILE --seed-offset N --seconds S
//               --setup-reps K --traced 0|1 --out PATH
//
// Set-up is timed K times: each repetition empties exp::PrecomputeCache,
// expands the campaign, shifts every point's seed axis by N and lowers each
// point with scn::TrialBuilder::build (graph generation, the fault-free
// reference run, compile preprocessing).  Then every trial runs on this
// thread through exp::runTrial, pass after pass, while a further pass still
// fits in S seconds (at least three passes).  The untraced passes carry only
// clock reads: around the spec's graph/algo factories and at node 0's
// send(), whose send-to-send gaps are the host time of each compiled round.
//
// --traced 1 runs one untraced pass, then the traced pass: obs metrics and
// the tracer are on, the graph, compiler and adversary registries are
// wrapped with timers, every node's send/receive and the
// adversary's act() are timed per node and folded after the run.  The
// traced pass redoes one set-up so its build time splits by layer.
//
// Nothing here changes what a trial computes: run.py checks that traced
// and untraced passes give identical fingerprints and counts, and that
// every trial matches mc_campaign's record for the same point.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/precompute_cache.h"
#include "obs/obs.h"
#include "scn/campaign.h"
#include "scn/registry.h"
#include "scn/scenario.h"

using namespace mobile;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t nsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Per-trial probe state, shared by the wrappers installed on one spec.
struct TrialProbe {
  std::int64_t factoryNs = 0;     // spec graph + algo factories
  std::int64_t graphNs = 0;       // spec graph factory alone
  std::int64_t makeNodeNs = 0;    // compiled node construction (traced)
  std::int64_t advFactoryNs = 0;  // spec adversary factory
  std::vector<double> roundGapsMs;
};

/// Forwards every NodeState call to the compiled node it wraps.  With
/// `timed`, accumulates the host time of this node's send/receive; with
/// `gaps`, records the time between consecutive send() calls -- node 0 is
/// the first node each round's send phase visits, so one gap is one round.
class ProbeNode final : public sim::NodeState {
 public:
  ProbeNode(std::unique_ptr<sim::NodeState> inner, bool timed,
            std::vector<double>* gaps)
      : inner_(std::move(inner)), timed_(timed), gaps_(gaps) {}

  void send(int round, sim::Outbox& out) override {
    const auto t0 = Clock::now();
    if (gaps_ != nullptr) {
      if (haveLast_)
        gaps_->push_back(
            std::chrono::duration<double, std::milli>(t0 - last_).count());
      last_ = t0;
      haveLast_ = true;
    }
    inner_->send(round, out);
    if (timed_) sendNs_ += nsSince(t0);
  }
  void receive(int round, const sim::Inbox& in) override {
    if (!timed_) {
      inner_->receive(round, in);
      return;
    }
    const auto t0 = Clock::now();
    inner_->receive(round, in);
    receiveNs_ += nsSince(t0);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::uint64_t output() const override {
    return inner_->output();
  }

  [[nodiscard]] std::int64_t sendNs() const { return sendNs_; }
  [[nodiscard]] std::int64_t receiveNs() const { return receiveNs_; }

 private:
  std::unique_ptr<sim::NodeState> inner_;
  bool timed_;
  std::vector<double>* gaps_;
  Clock::time_point last_{};
  bool haveLast_ = false;
  std::int64_t sendNs_ = 0;
  std::int64_t receiveNs_ = 0;
};

/// Times act() of the strategy it wraps.
class TimedAdversary final : public adv::Adversary {
 public:
  explicit TimedAdversary(std::unique_ptr<adv::Adversary> inner)
      : Adversary(inner->spec()), inner_(std::move(inner)) {}
  void act(adv::TamperView& view) override {
    const auto t0 = Clock::now();
    inner_->act(view);
    actNs_ += nsSince(t0);
  }
  [[nodiscard]] std::int64_t actNs() const { return actNs_; }

 private:
  std::unique_ptr<adv::Adversary> inner_;
  std::int64_t actNs_ = 0;
};

/// Host time spent inside each scn registry, accumulated by the wrappers
/// installed for the traced pass (all calls happen on the main thread).
struct RegistryTimes {
  std::int64_t graphNs = 0;
  std::int64_t compileNs = 0;
  std::int64_t advNs = 0;
};
RegistryTimes g_reg;

/// Replaces every entry of `reg` with a forwarding wrapper that adds its
/// host time to `ns`.
template <typename Fn>
void wrapRegistry(scn::Registry<Fn>& reg, std::int64_t& ns) {
  const auto entries = reg.entries();  // copy: add() replaces in place
  for (const auto& e : entries) {
    reg.add(e.name, e.help, Fn([fn = e.fn, &ns](const auto&... args) {
              const auto t0 = Clock::now();
              auto out = fn(args...);
              ns += nsSince(t0);
              return out;
            }));
  }
}

void wrapRegistries() {
  wrapRegistry(scn::graphs(), g_reg.graphNs);
  wrapRegistry(scn::compilers(), g_reg.compileNs);
  wrapRegistry(scn::adversaries(), g_reg.advNs);
}

/// Totals of the traced pass's per-trial folds.
struct TracedFold {
  std::int64_t sendNs = 0;
  std::int64_t receiveNs = 0;
  std::int64_t actNs = 0;
  std::uint64_t snapshotWords = 0;
};

struct Setup {
  std::vector<scn::Point> points;
  std::vector<exp::TrialSpec> specs;
  std::size_t expectCacheHits = 0;
  std::int64_t buildNs = 0;
};

/// One timed set-up: empty preprocessing cache, expand, build every point.
Setup buildSetup(const scn::Campaign& campaign, std::uint64_t seedOffset) {
  exp::PrecomputeCache::global().clear();
  Setup s;
  const auto t0 = Clock::now();
  s.points = scn::expandCampaign(campaign);
  scn::applySeedOffset(s.points, seedOffset);
  scn::TrialBuilder builder;
  s.specs.reserve(s.points.size());
  for (const auto& p : s.points)
    s.specs.push_back(builder.build(p.params, p.group));
  s.buildNs = nsSince(t0);
  s.expectCacheHits = builder.expectCacheHits();
  return s;
}

/// Installs the probe wrappers on a copy of `spec`.  Untraced: factory
/// timers plus the node-0 round marker.  Traced: every node and the
/// adversary timed as well, folded into `fold` after the run.
exp::TrialSpec instrument(const exp::TrialSpec& spec,
                          const std::shared_ptr<TrialProbe>& probe,
                          bool traced, TracedFold* fold) {
  exp::TrialSpec s = spec;
  const auto graphFactory = spec.graphFactory;
  s.graphFactory = [graphFactory, probe] {
    const auto t0 = Clock::now();
    graph::Graph g = graphFactory();
    const std::int64_t dt = nsSince(t0);
    probe->graphNs += dt;
    probe->factoryNs += dt;
    return g;
  };
  const auto algoFactory = spec.algoFactory;
  s.algoFactory = [algoFactory, probe, traced](const graph::Graph& g) {
    const auto t0 = Clock::now();
    sim::Algorithm a = algoFactory(g);
    probe->factoryNs += nsSince(t0);
    const auto makeNode = a.makeNode;
    a.makeNode = [makeNode, probe, traced](graph::NodeId v,
                                           const graph::Graph& gg,
                                           util::Rng rng)
        -> std::unique_ptr<sim::NodeState> {
      const auto t1 = Clock::now();
      auto inner = makeNode(v, gg, rng);
      std::unique_ptr<sim::NodeState> out;
      if (traced)
        out = std::make_unique<ProbeNode>(std::move(inner), true, nullptr);
      else if (v == 0)
        out = std::make_unique<ProbeNode>(std::move(inner), false,
                                          &probe->roundGapsMs);
      else
        out = std::move(inner);
      if (traced) probe->makeNodeNs += nsSince(t1);
      return out;
    };
    a.reinitNode = nullptr;  // a reset must rebuild through the wrapper
    return a;
  };
  if (traced && spec.adversaryFactory) {
    const auto advFactory = spec.adversaryFactory;
    s.adversaryFactory = [advFactory, probe](const graph::Graph& g)
        -> std::unique_ptr<adv::Adversary> {
      const auto t0 = Clock::now();
      auto a = std::make_unique<TimedAdversary>(advFactory(g));
      probe->advFactoryNs += nsSince(t0);
      return a;
    };
  }
  if (traced) {
    // Node-level send/receive sums are CPU time over the engine's lanes;
    // dividing by the lane count turns them into the phase wall they
    // occupy (a phase lasts at least as long as its busiest lane).
    const std::int64_t lanes = std::max(1, spec.net.numThreads);
    s.observe = [fold, lanes](const sim::Network& net, const adv::Adversary* a,
                              exp::TrialResult&) {
      std::int64_t sendNs = 0;
      std::int64_t receiveNs = 0;
      for (graph::NodeId v = 0; v < net.graph().nodeCount(); ++v) {
        const auto& node = static_cast<const ProbeNode&>(net.node(v));
        sendNs += node.sendNs();
        receiveNs += node.receiveNs();
      }
      fold->sendNs += sendNs / lanes;
      fold->receiveNs += receiveNs / lanes;
      if (a != nullptr)
        fold->actNs += static_cast<const TimedAdversary*>(a)->actNs();
      fold->snapshotWords += net.adversarySnapshotWords();
    };
  }
  return s;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct PassResult {
  bool traced = false;
  std::int64_t wallNs = 0;
  std::vector<exp::TrialResult> results;
  std::vector<double> trialWallMs;
  std::vector<double> factoryMs;
  std::vector<double> roundGapsMs;
};

PassResult runPass(const std::vector<exp::TrialSpec>& specs, bool traced,
                   TracedFold* fold, TrialProbe* totals) {
  PassResult pass;
  pass.traced = traced;
  const auto t0 = Clock::now();
  for (const auto& spec : specs) {
    auto probe = std::make_shared<TrialProbe>();
    const exp::TrialSpec s = instrument(spec, probe, traced, fold);
    const auto t1 = Clock::now();
    pass.results.push_back(exp::runTrial(s));
    pass.trialWallMs.push_back(ms(nsSince(t1)));
    pass.factoryMs.push_back(ms(probe->factoryNs));
    pass.roundGapsMs.insert(pass.roundGapsMs.end(), probe->roundGapsMs.begin(),
                            probe->roundGapsMs.end());
    if (totals != nullptr) {
      totals->factoryNs += probe->factoryNs;
      totals->graphNs += probe->graphNs;
      totals->makeNodeNs += probe->makeNodeNs;
      totals->advFactoryNs += probe->advFactoryNs;
    }
  }
  pass.wallNs = nsSince(t0);
  return pass;
}

void writePass(std::ostream& os, const PassResult& pass) {
  os << "{\"traced\":" << (pass.traced ? "true" : "false")
     << ",\"wall_ms\":" << ms(pass.wallNs) << ",\"trials\":[";
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    const exp::TrialResult& r = pass.results[i];
    if (i != 0) os << ",";
    os << "\n{\"fingerprint\":\"" << hex(r.fingerprint)
       << "\",\"rounds\":" << r.rounds
       << ",\"normalized_rounds\":" << r.normalizedRounds
       << ",\"messages\":" << r.messages
       << ",\"max_congestion\":" << r.maxCongestion
       << ",\"corruptions\":" << r.corruptions
       << ",\"ok\":" << (r.ok ? "true" : "false")
       << ",\"error\":" << jsonString(r.error)
       << ",\"wall_ms\":" << pass.trialWallMs[i]
       << ",\"factory_ms\":" << pass.factoryMs[i];
    if (pass.traced) {
      os << ",\"phase_ms\":{";
      for (std::size_t k = 0; k < sim::Network::kPhaseCount; ++k) {
        const std::string key =
            std::string("t_") + sim::Network::kPhaseNames[k] + "_ms";
        const auto it = r.extra.find(key);
        os << (k != 0 ? "," : "") << "\"" << sim::Network::kPhaseNames[k]
           << "\":" << (it != r.extra.end() ? it->second : 0.0);
      }
      os << "}";
    }
    os << "}";
  }
  os << "],\"round_gaps_ms\":[";
  for (std::size_t i = 0; i < pass.roundGapsMs.size(); ++i)
    os << (i != 0 ? "," : "") << pass.roundGapsMs[i];
  os << "]}";
}

/// Sums the durations (ms) of the tracer's compile/preprocess.* spans.
double preprocessSpanMs() {
  std::ostringstream os;
  obs::tracer().writeChromeTrace(os, nullptr);
  const std::string text = os.str();
  double totalUs = 0.0;
  std::size_t at = 0;
  const std::string marker = "\"name\":\"preprocess.";
  while ((at = text.find(marker, at)) != std::string::npos) {
    const std::size_t end = text.find('}', at);
    const std::size_t dur = text.find("\"dur\":", at);
    if (dur != std::string::npos && dur < end)
      totalUs += std::strtod(text.c_str() + dur + 6, nullptr);
    at = end;
  }
  return totalUs / 1000.0;
}

std::uint64_t metricValue(const std::vector<obs::MetricValue>& values,
                          const std::string& name) {
  for (const auto& m : values)
    if (m.name == name) return m.value;
  return 0;
}

long peakRssKb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --campaign FILE --out PATH [--seed-offset N] "
               "[--seconds S] [--setup-reps K] [--traced 0|1]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string campaignPath;
  std::string outPath;
  std::uint64_t seedOffset = 0;
  double seconds = 10.0;
  int setupReps = 3;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--campaign") {
      campaignPath = v;
    } else if (a == "--out") {
      outPath = v;
    } else if (a == "--seed-offset") {
      seedOffset = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--setup-reps") {
      setupReps = std::max(1, std::atoi(v));
    } else if (a == "--traced") {
      traced = std::atoi(v) != 0;
    } else {
      return usage(argv[0]);
    }
  }
  if (campaignPath.empty() || outPath.empty()) return usage(argv[0]);

  try {
    const scn::Campaign campaign = scn::loadCampaignFile(campaignPath);

    // Set-up, timed setupReps times; the last repetition's specs run.
    std::vector<double> setupMs;
    Setup setup;
    for (int rep = 0; rep < (traced ? 1 : setupReps); ++rep) {
      setup = buildSetup(campaign, seedOffset);
      setupMs.push_back(ms(setup.buildNs));
    }

    // Per-point facts for the report, computed outside every timed region.
    std::ostringstream points;
    for (std::size_t i = 0; i < setup.specs.size(); ++i) {
      const exp::TrialSpec& spec = setup.specs[i];
      const scn::Point& pt = setup.points[i];
      const graph::Graph g = spec.graphFactory();
      scn::Params q = pt.params;
      const int payloadRounds =
          scn::algos().get(q.str("algo", "gossip"))(g, q).rounds;
      bool byzantine = false;
      if (spec.adversaryFactory)
        byzantine = spec.adversaryFactory(g)->spec().kind ==
                    adv::Kind::Byzantine;
      points << (i != 0 ? "," : "") << "\n{\"id\":" << jsonString(pt.id)
             << ",\"byzantine\":" << (byzantine ? "true" : "false")
             << ",\"payload_rounds\":" << payloadRounds
             << ",\"edges\":" << g.edgeCount() << "}";
    }

    std::ofstream out(outPath);
    out << "{\"setup_ms\":[";
    for (std::size_t i = 0; i < setupMs.size(); ++i)
      out << (i != 0 ? "," : "") << setupMs[i];
    out << "],\"points\":[" << points.str() << "],\"passes\":[";

    // Untraced passes: kMinPasses at least (run.py takes each trial's and
    // each round's fastest repetition over the passes, so a slow spell of
    // the host has to cover every pass to show), then more while another
    // still fits the measuring window.  The traced mode needs one.  Each
    // pass is written out and dropped as it ends, so the process's peak
    // RSS does not grow with the number of passes.
    constexpr int kMinPasses = 3;
    const auto measureStart = Clock::now();
    for (int n = 0;; ++n) {
      const PassResult pass = runPass(setup.specs, false, nullptr, nullptr);
      if (n != 0) out << ",";
      writePass(out, pass);
      if (traced ||
          (n + 1 >= kMinPasses &&
           ms(nsSince(measureStart)) + ms(pass.wallNs) > seconds * 1000.0))
        break;
    }
    out << "]";

    std::ostringstream tracedJson;
    if (traced) {
      wrapRegistries();
      obs::registry().reset();
      obs::setEnabled(true);
      obs::tracer().start(obs::kDefaultTraceEvents);
      g_reg = RegistryTimes{};
      const auto t0 = Clock::now();
      Setup tsetup = buildSetup(campaign, seedOffset);
      const RegistryTimes inBuild = g_reg;
      TracedFold fold;
      TrialProbe totals;
      PassResult pass = runPass(tsetup.specs, true, &fold, &totals);
      const std::int64_t wallNs = nsSince(t0);
      obs::tracer().stop();
      obs::setEnabled(false);

      const exp::PrecomputeCache& cache = exp::PrecomputeCache::global();
      const obs::RegistrySnapshot snap = obs::registry().snapshot();
      long corruptions = 0;
      for (const auto& r : pass.results) corruptions += r.corruptions;
      tracedJson << "{\"wall_ms\":" << ms(wallNs)
                 << ",\"build_ms\":" << ms(tsetup.buildNs)
                 << ",\"build_graph_ms\":" << ms(inBuild.graphNs)
                 << ",\"build_compile_ms\":" << ms(inBuild.compileNs)
                 << ",\"build_adv_ms\":" << ms(inBuild.advNs)
                 << ",\"trial_graph_ms\":" << ms(totals.graphNs)
                 << ",\"trial_algo_ms\":"
                 << ms(totals.factoryNs - totals.graphNs)
                 << ",\"make_node_ms\":" << ms(totals.makeNodeNs)
                 << ",\"adv_factory_ms\":" << ms(totals.advFactoryNs)
                 << ",\"send_ms\":" << ms(fold.sendNs)
                 << ",\"receive_ms\":" << ms(fold.receiveNs)
                 << ",\"act_ms\":" << ms(fold.actNs)
                 << ",\"snapshot_words\":" << fold.snapshotWords
                 << ",\"send_words\":"
                 << metricValue(snap.counters, "engine.send_words")
                 << ",\"pk_bytes\":"
                 << metricValue(snap.gauges, "compile.pk_bytes")
                 << ",\"preprocess_ms\":" << preprocessSpanMs()
                 << ",\"dropped_events\":" << obs::tracer().dropped()
                 << ",\"expect_cache_hits\":" << tsetup.expectCacheHits
                 << ",\"precompute_hits\":" << cache.hits()
                 << ",\"precompute_misses\":" << cache.misses()
                 << ",\"corruptions\":" << corruptions << ",\"pass\":";
      writePass(tracedJson, pass);
      tracedJson << "}";
    }

    if (traced) out << ",\"traced\":" << tracedJson.str();
    out << ",\"peak_rss_kb\":" << peakRssKb() << "}\n";
    if (!out) {
      std::fprintf(stderr, "e2e_harness: cannot write %s\n", outPath.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_harness: %s\n", e.what());
    return 1;
  }
  return 0;
}
