// Baseline comparators for the negative-control experiments (the paper's
// section 1.4; see the end of docs/architecture.md section 12).
//
// NaiveRepetition: every inner round is repeated 2f+1 times on every edge
// with per-edge majority decoding.  This defeats an adversary that *moves*
// between edges, but an f-mobile adversary is allowed to camp on the same f
// edges every round, winning every majority there -- the measured failure
// that motivates the paper's sketch-and-broadcast machinery.
#pragma once

#include "sim/node.h"

namespace mobile::compile {

/// 2f+1-repetition-with-majority compiler (the strawman).
[[nodiscard]] sim::Algorithm compileNaiveRepetition(const graph::Graph& g,
                                                    const sim::Algorithm& inner,
                                                    int f);

}  // namespace mobile::compile
