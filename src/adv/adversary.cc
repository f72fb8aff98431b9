#include "adv/adversary.h"

#include <algorithm>

namespace mobile::adv {

TamperView::TamperView(const Graph& g, const Spec& spec, int round,
                       sim::ShardedPlane& plane, long budgetUsedSoFar,
                       TamperScratch& scratch)
    : g_(g),
      spec_(spec),
      round_(round),
      plane_(plane),
      scratch_(scratch),
      budgetUsedBefore_(budgetUsedSoFar) {
  scratch_.beginRound();
}

sim::MsgView TamperView::peek(ArcId a) const {
  if (spec_.kind != Kind::Byzantine)
    throw std::logic_error("eavesdroppers may only read observed edges");
  return plane_.view(a);
}

int TamperView::remaining() const {
  switch (spec_.mobility) {
    case Mobility::Static:
    case Mobility::Mobile:
      return spec_.f - static_cast<int>(scratch_.touched.size());
    case Mobility::RoundErrorRate: {
      const long left = spec_.totalBudget - budgetUsedBefore_ -
                        static_cast<long>(scratch_.touched.size());
      return static_cast<int>(std::max<long>(0, left));
    }
  }
  return 0;
}

bool TamperView::charge(EdgeId e) {
  auto& touched = scratch_.touched;
  const auto it = std::lower_bound(touched.begin(), touched.end(), e);
  if (it != touched.end() && *it == e)
    return false;  // an edge is charged once per round
  switch (spec_.mobility) {
    case Mobility::Static: {
      const bool member =
          std::find(spec_.staticSet.begin(), spec_.staticSet.end(), e) !=
          spec_.staticSet.end();
      if (!member)
        throw std::logic_error("static adversary touched edge outside F*");
      if (static_cast<int>(touched.size()) >= spec_.f)
        throw std::logic_error("static adversary exceeded f");
      break;
    }
    case Mobility::Mobile:
      if (static_cast<int>(touched.size()) >= spec_.f)
        throw std::logic_error("mobile adversary exceeded per-round f");
      break;
    case Mobility::RoundErrorRate:
      if (budgetUsedBefore_ + static_cast<long>(touched.size()) >=
          spec_.totalBudget)
        throw std::logic_error("round-error-rate adversary exceeded budget");
      break;
  }
  touched.insert(it, e);  // keeps the vector sorted; O(f) moves, f is small
  return true;
}

void TamperView::corruptArc(ArcId a, const Msg& replacement) {
  if (spec_.kind != Kind::Byzantine)
    throw std::logic_error("only byzantine adversaries corrupt");
  const EdgeId e = g_.arcEdge(a);
  // Copy-on-touch: the first corruption of an edge materializes both arcs'
  // pre-images into the scratch arena for the ledger diff -- O(touched)
  // total, never O(arcs).  Only corruptArc charges byzantine edges, so
  // "first charge" and "no snapshot yet" coincide.  Both views are copied
  // out before the write below, which may grow the adversary slab.
  if (charge(e)) {
    TamperScratch::PreImage p;
    p.edge = e;
    const sim::MsgView uv = plane_.view(g_.arcOfEdge(e, 0));
    p.uvPresent = uv.present();
    p.uvOff = scratch_.words.size();
    p.uvLen = uv.size();
    scratch_.words.insert(scratch_.words.end(), uv.words().begin(),
                          uv.words().end());
    const sim::MsgView vu = plane_.view(g_.arcOfEdge(e, 1));
    p.vuPresent = vu.present();
    p.vuOff = scratch_.words.size();
    p.vuLen = vu.size();
    scratch_.words.insert(scratch_.words.end(), vu.words().begin(),
                          vu.words().end());
    scratch_.pre.push_back(p);
    snapshotWords_ += p.uvLen + p.vuLen;
  }
  plane_.putMsgAdversary(a, replacement);
}

void TamperView::corruptEdge(EdgeId e, const Msg& uv, const Msg& vu) {
  corruptArc(g_.arcOfEdge(e, 0), uv);
  corruptArc(g_.arcOfEdge(e, 1), vu);
}

ViewRecord TamperView::observe(EdgeId e) {
  if (spec_.kind != Kind::Eavesdrop)
    throw std::logic_error("observe is the eavesdropper surface");
  charge(e);
  ViewRecord r;
  r.round = round_;
  r.edge = e;
  sim::assignMsg(r.uv, plane_.view(g_.arcOfEdge(e, 0)));
  sim::assignMsg(r.vu, plane_.view(g_.arcOfEdge(e, 1)));
  return r;
}

std::span<const TamperScratch::PreImage> TamperView::preImages() {
  // Touch order -> edge order so the Network's diff (and thus the ledger
  // record order) matches the old std::map-keyed iteration.
  std::sort(scratch_.pre.begin(), scratch_.pre.end(),
            [](const TamperScratch::PreImage& a,
               const TamperScratch::PreImage& b) { return a.edge < b.edge; });
  return {scratch_.pre.data(), scratch_.pre.size()};
}

}  // namespace mobile::adv
