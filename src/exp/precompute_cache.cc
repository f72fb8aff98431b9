#include "exp/precompute_cache.h"

#include "obs/obs.h"

namespace mobile::exp {

namespace {

struct PreprocessMetricIds {
  obs::CounterId misses;
  obs::GaugeId pkBytes;
};

const PreprocessMetricIds& preprocessMetricIds() {
  static const PreprocessMetricIds ids = [] {
    PreprocessMetricIds m;
    obs::Registry& r = obs::registry();
    m.misses = r.counter("compile.preprocess_misses");
    m.pkBytes = r.gauge("compile.pk_bytes");
    return m;
  }();
  return ids;
}

void recordKnowledgeSize(const compile::PackingKnowledge& pk) {
  if (!obs::enabled()) return;
  obs::registry().set(preprocessMetricIds().pkBytes,
                      static_cast<std::uint64_t>(pk.memoryBytes()));
}

void recordMiss() {
  if (!obs::enabled()) return;
  obs::registry().add(preprocessMetricIds().misses, 1);
}

}  // namespace

PrecomputeCache& PrecomputeCache::global() {
  static PrecomputeCache cache;
  return cache;
}

PrecomputeCache::Key PrecomputeCache::key(Kind kind, const graph::Graph& g,
                                          int k, graph::NodeId root,
                                          int depth) {
  return {graph::structuralFingerprint(g), static_cast<int>(kind), k, root,
          depth};
}

std::shared_ptr<const graph::TreePacking> PrecomputeCache::starTreePacking(
    const graph::Graph& g) {
  const Key id = key(Kind::StarTree, g, 0, 0, 0);
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = entries_.find(id); it != entries_.end()) {
    ++hits_;
    return std::static_pointer_cast<const graph::TreePacking>(it->second);
  }
  ++misses_;
  auto p =
      std::make_shared<const graph::TreePacking>(graph::cliqueStarPacking(g));
  entries_[id] = p;
  return p;
}

std::shared_ptr<const graph::TreePacking> PrecomputeCache::greedyTreePacking(
    const graph::Graph& g, int k, graph::NodeId root, int depthCap) {
  const Key id = key(Kind::GreedyTree, g, k, root, depthCap);
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = entries_.find(id); it != entries_.end()) {
    ++hits_;
    return std::static_pointer_cast<const graph::TreePacking>(it->second);
  }
  ++misses_;
  recordMiss();
  const obs::TraceArg spanArgs[] = {{"n", g.nodeCount()}, {"k", k}};
  const obs::Span span("compile", "preprocess.greedy_tree", spanArgs, 2);
  auto p = std::make_shared<const graph::TreePacking>(
      graph::greedyLowDepthPacking(g, k, root, depthCap));
  entries_[id] = p;
  return p;
}

std::shared_ptr<const compile::PackingKnowledge> PrecomputeCache::starPacking(
    const graph::Graph& g, int depthBound) {
  return knowledge(key(Kind::StarKnowledge, g, 0, 0, depthBound), g,
                   depthBound, [&] { return starTreePacking(g); });
}

std::shared_ptr<const compile::PackingKnowledge> PrecomputeCache::greedyPacking(
    const graph::Graph& g, int k, graph::NodeId root, int depthCap) {
  return knowledge(key(Kind::GreedyKnowledge, g, k, root, depthCap), g,
                   depthCap,
                   [&] { return greedyTreePacking(g, k, root, depthCap); });
}

std::shared_ptr<const compile::PackingKnowledge> PrecomputeCache::knowledge(
    const Key& id, const graph::Graph& g, int depthBound,
    const std::function<std::shared_ptr<const graph::TreePacking>()>&
        treePacking) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = entries_.find(id); it != entries_.end()) {
      ++hits_;
      return std::static_pointer_cast<const compile::PackingKnowledge>(
          it->second);
    }
  }
  // Compute outside the lock so the nested tree-packing lookup can take it;
  // a racing lane at worst recomputes once and first-in wins below.
  const auto tree = treePacking();
  auto pk = [&] {
    const obs::TraceArg spanArgs[] = {{"n", g.nodeCount()},
                                      {"k", static_cast<int>(tree->size())}};
    const obs::Span span("compile", "preprocess.distribute", spanArgs, 2);
    return compile::distributePacking(g, *tree, depthBound);
  }();
  recordKnowledgeSize(*pk);
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = entries_.find(id); it != entries_.end())
    return std::static_pointer_cast<const compile::PackingKnowledge>(
        it->second);
  ++misses_;
  recordMiss();
  entries_[id] = std::shared_ptr<const compile::PackingKnowledge>(pk);
  return pk;
}

std::size_t PrecomputeCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t PrecomputeCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void PrecomputeCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace mobile::exp
