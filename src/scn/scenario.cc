#include "scn/scenario.h"

#include <cstdlib>

#include "net/transport.h"
#include "net/udp_plane.h"
#include "sim/network.h"

namespace mobile::scn {

std::vector<std::string> expandValue(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    const std::string piece = value.substr(start, comma - start);
    const std::size_t dots = piece.find("..");
    bool asRange = false;
    if (dots != std::string::npos && dots > 0) {
      const std::string lo = piece.substr(0, dots);
      const std::string hi = piece.substr(dots + 2);
      char* loEnd = nullptr;
      char* hiEnd = nullptr;
      const long a = std::strtol(lo.c_str(), &loEnd, 10);
      const long b = std::strtol(hi.c_str(), &hiEnd, 10);
      if (loEnd != lo.c_str() && *loEnd == '\0' && hiEnd != hi.c_str() &&
          *hiEnd == '\0') {
        if (a > b)
          throw ScnError("descending range '" + piece + "' in sweep value");
        for (long v = a; v <= b; ++v) out.push_back(std::to_string(v));
        asRange = true;
      }
    }
    if (!asRange) out.push_back(piece);
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> sweptKeys(const Params& params) {
  const Params base = params;  // consumption-tracking copy
  std::vector<std::string> out;
  for (const auto& key : base.keys())
    if (expandValue(base.str(key)).size() > 1) out.push_back(key);
  return out;
}

std::vector<Params> expandGrid(const Params& params) {
  const Params base = params;  // keep the caller's consumed flags untouched
  std::vector<Params> points{Params()};
  for (const auto& key : base.keys()) {
    const std::vector<std::string> values = expandValue(base.str(key));
    std::vector<Params> next;
    next.reserve(points.size() * values.size());
    for (const auto& point : points) {
      for (const auto& value : values) {
        Params p = point;
        p.set(key, value);
        next.push_back(std::move(p));
      }
    }
    points = std::move(next);
  }
  return points;
}

std::string groupLabel(const std::string& scenarioName, const Params& point,
                       const std::vector<std::string>& swept) {
  const Params p = point;  // consumption-tracking copy
  std::string label = scenarioName;
  for (const auto& key : swept) {
    if (key == "seed") continue;
    label += " " + key + "=" + p.str(key, "?");
  }
  return label;
}

exp::TrialSpec TrialBuilder::build(const Params& point,
                                   const std::string& group) {
  Params p = point;  // consumption-tracked working copy
  const std::string graphName = p.str("graph");
  const graph::Graph g = graphs().get(graphName)(p);
  // Trials value-copy the captured graph onto worker threads; lock the CSR
  // layout here so no copy ever rebuilds it concurrently from a const read.
  g.finalize();

  const std::string algoName = p.str("algo", "gossip");
  const sim::Algorithm inner = algos().get(algoName)(g, p);

  // The correctness criterion for every compiled execution is the
  // payload's fault-free outputs; at this point exactly the graph + payload
  // axes have been consumed, so their canonical form keys the cache (an
  // f / adversary / seed sweep computes the fingerprint once).
  const std::string expectKey = p.consumedCanonical();
  std::uint64_t expect = 0;
  if (const auto it = expectCache_.find(expectKey);
      it != expectCache_.end()) {
    expect = it->second;
    ++hits_;
  } else {
    expect = sim::faultFreeFingerprint(g, inner, 1);
    expectCache_.emplace(expectKey, expect);
  }

  // Engine-parallelism axes: intra-trial send/receive lanes and arena
  // shards.  Scenario values win over the CLI defaults; 0 keeps the
  // default.  Fingerprints are bit-identical at every setting, so these
  // are pure throughput knobs and safe to sweep.  Consumed after the
  // expect key above: they must not split the fault-free fingerprint
  // cache.
  const int engineThreads = static_cast<int>(p.integer("threads", 0));
  const int engineShards = static_cast<int>(p.integer("shards", 0));
  if (engineThreads < 0 || engineShards < 0)
    throw ScnError("threads=/shards= must be >= 0 in scenario '" + group +
                   "'");

  const std::string compileName = p.str("compile", "none");
  const sim::Algorithm compiled =
      compilers().get(compileName)(g, inner, p);

  const std::string advName = p.str("adv", "none");
  const AdversaryFactory& advFactory = adversaries().get(advName);
  // Probe-build one instance now so malformed adversary parameters fail at
  // expansion time (and their keys count as consumed).
  p.set("_rounds", std::to_string(compiled.rounds));
  { const auto probe = advFactory(g, p); }

  // The transport axis: which MessagePlane carries the trial.  "arena"
  // (the default) is the in-process simulator; "udp" routes cross-rank
  // arcs through the process transport's perfect link, with the fault
  // axes feeding the net::LossyChannel between socket and link.  In a
  // single-process run (no MOBILE_NET_WORLD) the udp plane degenerates to
  // zero cross arcs and behaves exactly like arena.
  const std::string transport = p.str("transport", "arena");
  net::FaultSpec faults;
  net::PerfectLinkOptions linkOpts;
  net::UdpPlaneOptions planeOpts;
  if (transport == "udp") {
    faults.drop = p.real("drop", 0.0);
    faults.reorder = p.real("reorder", 0.0);
    faults.duplicate = p.real("dup", 0.0);
    faults.delayUs = p.u64("delay_us", 0);
    faults.seed = p.u64("nseed", 0);
    linkOpts.rtoUs = p.u64("rto_us", linkOpts.rtoUs);
    linkOpts.maxRetries =
        static_cast<int>(p.integer("retries", linkOpts.maxRetries));
    planeOpts.roundTimeoutUs =
        p.u64("round_timeout_us", planeOpts.roundTimeoutUs);
    // Session id: a 32-bit FNV-1a fold of the full point identity, so
    // every (scenario, axes, seed) combination meets its peers under a
    // distinct session and stragglers from other points are dropped on
    // the floor.
    const Params whole = point;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : whole.canonical()) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ULL;
    }
    planeOpts.session =
        static_cast<std::uint32_t>(h ^ (h >> 32)) | 1u;  // never 0
  } else if (transport != "arena") {
    throw ScnError("unknown transport '" + transport +
                   "' (arena, udp) in scenario '" + group + "'");
  }

  const std::uint64_t seed = p.u64("seed", 1);
  for (const auto& key : p.unconsumedKeys()) {
    if (key == "_rounds") continue;
    throw ScnError("parameter '" + key + "' was not consumed by scenario '" +
                   group + "' -- typo'd axis?");
  }

  exp::TrialSpec spec;
  spec.group = group;
  spec.seed = seed;
  spec.expect = expect;
  spec.net.numThreads =
      engineThreads > 0 ? engineThreads : defaultEngineThreads_;
  spec.net.numShards = engineShards > 0 ? engineShards : defaultEngineShards_;
  if (transport == "udp") {
    spec.planeFactory = [faults, linkOpts,
                         planeOpts](const graph::Graph&) {
      return std::make_shared<net::UdpPlane>(net::processTransport(), faults,
                                             linkOpts, planeOpts);
    };
  }
  spec.graphFactory = [g] { return g; };
  const Params frozen = point;
  spec.algoFactory = [algoName, compileName,
                      frozen](const graph::Graph& gg) {
    Params q = frozen;
    const sim::Algorithm in = algos().get(algoName)(gg, q);
    return compilers().get(compileName)(gg, in, q);
  };
  if (advName != "none") {
    const int compiledRounds = compiled.rounds;
    spec.adversaryFactory = [advName, frozen,
                             compiledRounds](const graph::Graph& gg) {
      Params q = frozen;
      q.set("_rounds", std::to_string(compiledRounds));
      return adversaries().get(advName)(gg, q);
    };
  }
  return spec;
}

}  // namespace mobile::scn
