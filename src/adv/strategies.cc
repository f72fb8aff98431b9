#include "adv/strategies.h"

#include <algorithm>
#include <cassert>

namespace mobile::adv {

namespace {

Spec eavesSpec(Mobility mob, int f, std::vector<EdgeId> staticSet = {}) {
  Spec s;
  s.kind = Kind::Eavesdrop;
  s.mobility = mob;
  s.f = f;
  s.staticSet = std::move(staticSet);
  return s;
}

Spec byzSpec(Mobility mob, int f, long total = 0,
             std::vector<EdgeId> staticSet = {}) {
  Spec s;
  s.kind = Kind::Byzantine;
  s.mobility = mob;
  s.f = f;
  s.totalBudget = total;
  s.staticSet = std::move(staticSet);
  return s;
}

}  // namespace

Msg garbageMsg(util::Rng& rng, std::size_t words) {
  Msg m;
  garbageMsgInto(rng, m, words);
  return m;
}

void garbageMsgInto(util::Rng& rng, Msg& m, std::size_t words) {
  sim::resetScratch(m);
  for (std::size_t i = 0; i < words; ++i) m.push(rng.next());
}

// --- eavesdroppers ---------------------------------------------------------

RandomEavesdropper::RandomEavesdropper(int f, std::uint64_t seed)
    : Adversary(eavesSpec(Mobility::Mobile, f)), rng_(seed) {}

void RandomEavesdropper::act(TamperView& view) {
  const auto m = static_cast<std::size_t>(view.graph().edgeCount());
  const std::size_t take =
      std::min<std::size_t>(m, static_cast<std::size_t>(spec_.f));
  rng_.sampleDistinctInto(m, take, pick_);
  for (const std::size_t e : pick_)
    recordView(view.observe(static_cast<EdgeId>(e)));
}

CampingEavesdropper::CampingEavesdropper(std::vector<EdgeId> targets, int f)
    : Adversary(eavesSpec(Mobility::Mobile, f)), targets_(std::move(targets)) {
  assert(static_cast<int>(targets_.size()) <= f);
}

void CampingEavesdropper::act(TamperView& view) {
  for (const EdgeId e : targets_) recordView(view.observe(e));
}

SweepingEavesdropper::SweepingEavesdropper(int f)
    : Adversary(eavesSpec(Mobility::Mobile, f)) {}

void SweepingEavesdropper::act(TamperView& view) {
  const auto m = static_cast<std::size_t>(view.graph().edgeCount());
  const std::size_t take =
      std::min<std::size_t>(m, static_cast<std::size_t>(spec_.f));
  for (std::size_t i = 0; i < take; ++i) {
    recordView(view.observe(static_cast<EdgeId>(cursor_ % m)));
    ++cursor_;
  }
}

StaticEavesdropper::StaticEavesdropper(std::vector<EdgeId> fstar)
    : Adversary(eavesSpec(Mobility::Static, static_cast<int>(fstar.size()),
                          fstar)) {}

void StaticEavesdropper::act(TamperView& view) {
  for (const EdgeId e : spec_.staticSet) recordView(view.observe(e));
}

ScriptedEavesdropper::ScriptedEavesdropper(
    std::map<int, std::vector<EdgeId>> schedule, int f)
    : Adversary(eavesSpec(Mobility::Mobile, f)),
      schedule_(std::move(schedule)) {}

void ScriptedEavesdropper::act(TamperView& view) {
  const auto it = schedule_.find(view.round());
  if (it == schedule_.end()) return;
  for (const EdgeId e : it->second) recordView(view.observe(e));
}

// --- byzantine ---------------------------------------------------------------

RandomByzantine::RandomByzantine(int f, std::uint64_t seed)
    : Adversary(byzSpec(Mobility::Mobile, f)), rng_(seed) {}

void RandomByzantine::act(TamperView& view) {
  const auto m = static_cast<std::size_t>(view.graph().edgeCount());
  const std::size_t take =
      std::min<std::size_t>(m, static_cast<std::size_t>(spec_.f));
  rng_.sampleDistinctInto(m, take, pick_);
  for (const std::size_t e : pick_) {
    // vu before uv: preserves the draw order of the old two-argument
    // garbageMsg call (right-to-left argument evaluation).
    garbageMsgInto(rng_, vu_);
    garbageMsgInto(rng_, uv_);
    view.corruptEdge(static_cast<EdgeId>(e), uv_, vu_);
  }
}

CampingByzantine::CampingByzantine(std::vector<EdgeId> targets, int f,
                                   std::uint64_t seed)
    : Adversary(byzSpec(Mobility::Mobile, f)),
      targets_(std::move(targets)),
      rng_(seed) {
  assert(static_cast<int>(targets_.size()) <= f);
}

void CampingByzantine::act(TamperView& view) {
  for (const EdgeId e : targets_) {
    garbageMsgInto(rng_, vu_);  // vu first: see RandomByzantine::act
    garbageMsgInto(rng_, uv_);
    view.corruptEdge(e, uv_, vu_);
  }
}

RotatingByzantine::RotatingByzantine(int f, std::uint64_t seed)
    : Adversary(byzSpec(Mobility::Mobile, f)), rng_(seed) {}

void RotatingByzantine::act(TamperView& view) {
  const auto m = static_cast<std::size_t>(view.graph().edgeCount());
  const std::size_t take =
      std::min<std::size_t>(m, static_cast<std::size_t>(spec_.f));
  for (std::size_t i = 0; i < take; ++i) {
    garbageMsgInto(rng_, vu_);  // vu first: see RandomByzantine::act
    garbageMsgInto(rng_, uv_);
    view.corruptEdge(static_cast<EdgeId>(cursor_ % m), uv_, vu_);
    ++cursor_;
  }
}

TreeTargetedByzantine::TreeTargetedByzantine(int f,
                                             const graph::TreePacking& packing,
                                             const Graph& g, std::uint64_t seed)
    : Adversary(byzSpec(Mobility::Mobile, f)), rng_(seed) {
  (void)g;
  treeEdges_.reserve(packing.trees.size());
  for (const auto& t : packing.trees) treeEdges_.push_back(t.edges());
  hits_.assign(treeEdges_.size(), 0);
}

void TreeTargetedByzantine::act(TamperView& view) {
  // Pick the f least-hit trees and corrupt one random edge of each.
  order_.resize(treeEdges_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(),
            [&](std::size_t a, std::size_t b) { return hits_[a] < hits_[b]; });
  int used = 0;
  for (const std::size_t t : order_) {
    if (used >= spec_.f) break;
    if (treeEdges_[t].empty()) continue;
    const EdgeId e = treeEdges_[t][static_cast<std::size_t>(
        rng_.below(treeEdges_[t].size()))];
    const auto touched = view.touched();  // sorted ascending
    if (std::binary_search(touched.begin(), touched.end(), e))
      continue;  // already corrupted this round
    garbageMsgInto(rng_, vu_);  // vu first: see RandomByzantine::act
    garbageMsgInto(rng_, uv_);
    view.corruptEdge(e, uv_, vu_);
    ++hits_[t];
    ++used;
  }
}

BurstByzantine::BurstByzantine(int f, long totalBudget, int quietRounds,
                               int burstWidth, std::uint64_t seed)
    : Adversary(byzSpec(Mobility::RoundErrorRate, f, totalBudget)),
      quietRounds_(quietRounds),
      burstWidth_(burstWidth),
      rng_(seed) {}

void BurstByzantine::act(TamperView& view) {
  ++phase_;
  if (phase_ % (quietRounds_ + 1) != 0) return;  // hoard
  const auto m = static_cast<std::size_t>(view.graph().edgeCount());
  const std::size_t want =
      std::min<std::size_t>({m, static_cast<std::size_t>(burstWidth_),
                             static_cast<std::size_t>(view.remaining())});
  rng_.sampleDistinctInto(m, want, pick_);
  for (const std::size_t e : pick_) {
    garbageMsgInto(rng_, vu_);  // vu first: see RandomByzantine::act
    garbageMsgInto(rng_, uv_);
    view.corruptEdge(static_cast<EdgeId>(e), uv_, vu_);
  }
}

ScriptedByzantine::ScriptedByzantine(
    std::map<int, std::vector<EdgeId>> schedule, long totalBudget,
    std::uint64_t seed)
    : Adversary(byzSpec(Mobility::RoundErrorRate, 0, totalBudget)),
      schedule_(std::move(schedule)),
      rng_(seed) {}

void ScriptedByzantine::act(TamperView& view) {
  const auto it = schedule_.find(view.round());
  if (it == schedule_.end()) return;
  for (const EdgeId e : it->second) {
    garbageMsgInto(rng_, vu_);  // vu first: see RandomByzantine::act
    garbageMsgInto(rng_, uv_);
    view.corruptEdge(e, uv_, vu_);
  }
}

BitflipByzantine::BitflipByzantine(int f, std::uint64_t seed)
    : Adversary(byzSpec(Mobility::Mobile, f)), rng_(seed) {}

void BitflipByzantine::act(TamperView& view) {
  const auto m = static_cast<std::size_t>(view.graph().edgeCount());
  const std::size_t take =
      std::min<std::size_t>(m, static_cast<std::size_t>(spec_.f));
  rng_.sampleDistinctInto(m, take, pick_);
  for (const std::size_t ei : pick_) {
    const EdgeId e = static_cast<EdgeId>(ei);
    for (int dir = 0; dir < 2; ++dir) {
      const ArcId a = view.graph().arcOfEdge(e, dir);
      // Copied into work_ before corruptArc writes (and may move) the slab.
      const sim::MsgView cur = view.peek(a);
      if (cur.present() && cur.size() > 0) {
        sim::assignMsg(work_, cur);
        work_.words[0] ^= 1ULL << rng_.below(8);
      } else {
        garbageMsgInto(rng_, work_);
      }
      view.corruptArc(a, work_);
    }
  }
}

}  // namespace mobile::adv
