// Fixed circuit sets of the workloads. Structure never depends on the
// workload seed (the seed picks order, simulation streams and edits), so
// every seed does the same amount of work.
#pragma once

#include "aig/aig.hpp"

#include <string>
#include <vector>

namespace pb {

struct Design {
  std::string name;
  dg::aig::Aig aig;
  bool exact = false;  ///< small enough for exhaustive simulation (label_corpus)
};

/// serve_open: mixed-size array squarers and multipliers.
std::vector<Design> serve_designs();

/// label_corpus: the five Table III design classes (tiny scale) plus small
/// arithmetic blocks whose exact probabilities are computable.
std::vector<Design> corpus_designs();

/// edit_session: a multi-unit design — independent arithmetic, arbiter and
/// datapath units side by side in one AIG, each unit with its own inputs.
dg::aig::Aig edit_design();

}  // namespace pb
