// Declarative scenarios: a grid point per Params bag, expanded from sweep
// syntax and lowered onto exp::TrialSpec.
//
// A scenario is one line of axes:
//
//   name=byz graph=clique n=64,256 algo=gossip mask=32
//   compile=byz_tree f=1..4 adv=bitflip_byz,camping_byz seed=0..4
//
// Values may be plain ("n=64"), comma lists ("n=64,256,1024"), integer
// ranges ("f=1..4", inclusive), or both combined ("n=8,16..18").
// expandGrid takes the cartesian product over every multi-valued key in
// key insertion order, so a scenario line IS its sweep.
//
// TrialBuilder lowers a concrete point to an exp::TrialSpec:
//   graph  -> graphs() factory        (the value-captured trial graph)
//   algo   -> algos() factory         (the fault-free payload A)
//   compile-> compilers() factory     (default none)
//   adv    -> adversaries() factory   (default none; fresh per trial)
//   seed   -> the network seed        (default 1)
// The expected fingerprint is the *payload's* fault-free outputs -- the
// paper's correctness criterion for every compiled execution -- cached
// across points that share the graph + payload axes (an f or adversary
// sweep computes it once).  Keys nothing consumed raise ScnError, so a
// typo'd axis cannot silently no-op.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "scn/params.h"
#include "scn/registry.h"

namespace mobile::scn {

/// One declarative scenario line: a label plus (possibly swept) axes.
struct Scenario {
  std::string name;
  Params params;
};

/// "a,b,c" / "1..4" / mixtures -> the concrete value list, in order.
[[nodiscard]] std::vector<std::string> expandValue(const std::string& value);

/// Cartesian sweep expansion; axis order = key insertion order, first key
/// slowest.  A bag with no multi-valued keys expands to itself.
[[nodiscard]] std::vector<Params> expandGrid(const Params& params);

/// Group label for a point: the scenario name plus the swept coordinates
/// (every key of `sweptKeys` except the seed axis), e.g.
/// "byz n=64 f=2 adv=bitflip_byz".
[[nodiscard]] std::string groupLabel(const std::string& scenarioName,
                                     const Params& point,
                                     const std::vector<std::string>& sweptKeys);

/// Multi-valued keys of a scenario bag, in insertion order.
[[nodiscard]] std::vector<std::string> sweptKeys(const Params& params);

/// Lowers concrete points onto TrialSpecs; owns the fault-free
/// fingerprint cache shared across the points of one expansion.
class TrialBuilder {
 public:
  TrialBuilder() = default;
  TrialBuilder(const TrialBuilder&) = delete;
  TrialBuilder& operator=(const TrialBuilder&) = delete;

  /// Builds the trial for one concrete point.  `group` is stored on the
  /// spec verbatim (see groupLabel).  Throws ScnError on unknown registry
  /// names, malformed values, or keys nothing consumed.
  ///
  /// Engine-parallelism axes: `threads=` and `shards=` are first-class
  /// campaign parameters lowered onto NetworkOptions::numThreads /
  /// numShards (send/receive lanes and arena shards of ONE trial --
  /// distinct from the driver's trial lanes).  A scenario value overrides
  /// the defaults below; both are sweepable, and every setting produces
  /// bit-identical fingerprints (the engine's determinism contract).
  [[nodiscard]] exp::TrialSpec build(const Params& point,
                                     const std::string& group);

  /// CLI-level defaults for points that do not pin `threads=` / `shards=`
  /// themselves (0 shards = follow the engine thread count).
  void setEngineDefaults(int threads, int shards) {
    defaultEngineThreads_ = threads;
    defaultEngineShards_ = shards;
  }

  /// Fault-free fingerprints served from cache (tests; sweep reporting).
  [[nodiscard]] std::size_t expectCacheHits() const { return hits_; }

 private:
  std::map<std::string, std::uint64_t> expectCache_;
  std::size_t hits_ = 0;
  int defaultEngineThreads_ = 1;
  int defaultEngineShards_ = 0;
};

}  // namespace mobile::scn
