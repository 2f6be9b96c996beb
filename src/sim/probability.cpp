#include "sim/probability.hpp"

#include "nn/kernels.hpp"
#include "sim/bitsim.hpp"
#include "sim/patterns.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace dg::sim {
namespace {

// Parallelism note: each DEEPGATE_THREADS pool chunk takes a contiguous range
// of 64-pattern blocks and walks it in tiles of kTile blocks, simulating every
// node's words of a tile into one buffer it reuses and counting them with the
// dispatched kern::popcount_rows. Ones-counts are integers reduced in chunk
// order, and the Monte-Carlo words are drawn up front from one Rng stream in
// the per-block simulator's order, so the estimates are bit-identical at
// every thread count and SIMD level.

/// Blocks per tile: node v's words of a tile sit at buf[v * kTile, +k).
constexpr std::size_t kTile = 16;

/// A circuit compiled once into flat arrays. Node v is input `a` (kInput),
/// constant 0 (kZero), or (w[a] ^ na) & (w[b] ^ nb) (kAnd): complement masks
/// (0 or ~0) fit AIG literals, and NOT (a == b, both masks ~0), into one op.
/// Calling it simulates blocks [b0, b0 + k) into a tile buffer, where
/// input(i, b) is input i's word in block b.
struct Program {
  enum Kind : std::uint8_t { kZero, kInput, kAnd };
  struct Op { Kind kind = kZero; std::int32_t a = 0, b = 0; std::uint64_t na = 0, nb = 0; };
  std::vector<Op> ops;
  std::size_t num_inputs = 0;

  template <typename InputFn>
  void operator()(std::uint64_t* buf, std::uint64_t b0, std::size_t k,
                  const InputFn& input) const {
    for (std::size_t v = 0; v < ops.size(); ++v) {
      const Op& op = ops[v];
      std::uint64_t* __restrict out = buf + v * kTile;
      const std::uint64_t* x = buf + static_cast<std::size_t>(op.a) * kTile;
      const std::uint64_t* y = buf + static_cast<std::size_t>(op.b) * kTile;
      if (op.kind == kAnd)
        for (std::size_t j = 0; j < k; ++j) out[j] = (x[j] ^ op.na) & (y[j] ^ op.nb);
      else
        for (std::size_t j = 0; j < k; ++j)
          out[j] = op.kind == kInput ? input(static_cast<std::size_t>(op.a), b0 + j) : 0;
    }
  }
};

Program compile(const aig::Aig& aig) {
  Program p{std::vector<Program::Op>(aig.num_vars()), aig.num_inputs()};
  for (std::size_t i = 0; i < aig.num_inputs(); ++i)
    p.ops[aig.inputs()[i]] = {Program::kInput, static_cast<std::int32_t>(i)};
  const auto var = [](aig::Lit l) { return static_cast<std::int32_t>(aig::lit_var(l)); };
  const auto neg = [](aig::Lit l) { return aig::lit_neg(l) ? ~0ULL : 0ULL; };
  for (aig::Var v = 0; v < aig.num_vars(); ++v) {
    const aig::Lit f0 = aig.fanin0(v), f1 = aig.fanin1(v);
    if (aig.is_and(v)) p.ops[v] = {Program::kAnd, var(f0), var(f1), neg(f0), neg(f1)};
  }
  return p;
}

Program compile(const aig::GateGraph& g) {
  Program p;
  for (std::size_t v = 0; v < g.size(); ++v) {
    const auto [f0, f1] = g.fanin[v];
    if (g.kind[v] == aig::GateKind::kPi)
      p.ops.push_back({Program::kInput, static_cast<std::int32_t>(p.num_inputs++)});
    else if (g.kind[v] == aig::GateKind::kAnd)
      p.ops.push_back({Program::kAnd, f0, f1});
    else  // NOT x == ~x & ~x
      p.ops.push_back({Program::kAnd, f0, f0, ~0ULL, ~0ULL});
  }
  return p;
}

/// Probability per node: its ones-count over `blocks` 64-pattern blocks
/// divided by `total` patterns, the last block's words counted under
/// last_mask. run(buf, b0, k, input) simulates a tile (see Program).
template <typename RunFn, typename InputFn>
std::vector<double> estimate(std::size_t num_nodes, std::uint64_t blocks, std::uint64_t last_mask,
                             std::uint64_t total, const RunFn& run, const InputFn& input) {
  util::ThreadPool& pool = util::global_pool();
  const auto chunks = static_cast<std::size_t>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(pool.num_threads()), blocks));
  std::vector<std::uint64_t> ones(chunks * num_nodes, 0);  // one row per chunk
  util::parallel_for_chunked(
      pool, static_cast<std::int64_t>(blocks), static_cast<int>(chunks),
      [&](int chunk, std::int64_t lo, std::int64_t hi) {
        std::vector<std::uint64_t> buf(num_nodes * kTile);
        for (std::int64_t b = lo; b < hi; b += kTile) {
          const auto b0 = static_cast<std::uint64_t>(b);
          const auto k = static_cast<std::size_t>(std::min<std::int64_t>(kTile, hi - b));
          run(buf.data(), b0, k, input);
          nn::kern::popcount_rows(buf.data(), num_nodes, kTile, k,
                                  b0 + k == blocks ? last_mask : ~0ULL,
                                  ones.data() + static_cast<std::size_t>(chunk) * num_nodes);
        }
      });
  std::vector<double> prob(num_nodes);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    for (std::size_t c = 1; c < chunks; ++c) ones[v] += ones[c * num_nodes + v];
    prob[v] = static_cast<double>(ones[v]) / static_cast<double>(total);
  }
  return prob;
}

/// Monte-Carlo estimate over ceil(num_patterns / 64) blocks, the last one
/// masked to its valid lanes.
template <typename RunFn>
std::vector<double> monte_carlo(std::size_t num_nodes, std::size_t num_inputs,
                                std::size_t num_patterns, std::uint64_t seed, const RunFn& run) {
  if (num_patterns == 0) return std::vector<double>(num_nodes, 0.0);
  const std::uint64_t blocks = (num_patterns + 63) / 64;
  util::Rng rng(seed);
  std::vector<std::uint64_t> words(num_inputs * blocks);  // block-major
  for (auto& w : words) w = rng.next_u64();
  return estimate(num_nodes, blocks, lane_mask(num_patterns - (blocks - 1) * 64), num_patterns,
                  run, [&](std::size_t i, std::uint64_t b) { return words[b * num_inputs + i]; });
}

std::vector<double> exhaustive(const Program& p) {
  if (p.num_inputs > 24) throw std::invalid_argument("exact probabilities limited to 24 inputs");
  const std::uint64_t blocks = exhaustive_blocks(p.num_inputs);
  const std::uint64_t total = 1ULL << p.num_inputs;
  return estimate(p.ops.size(), blocks, lane_mask(std::min<std::uint64_t>(total, 64)), total, p,
                  exhaustive_word);
}

}  // namespace

std::vector<double> aig_probabilities(const aig::Aig& aig, std::size_t num_patterns,
                                      std::uint64_t seed) {
  const Program p = compile(aig);
  return monte_carlo(p.ops.size(), p.num_inputs, num_patterns, seed, p);
}

std::vector<double> gate_graph_probabilities(const aig::GateGraph& g, std::size_t num_patterns,
                                             std::uint64_t seed) {
  const Program p = compile(g);
  return monte_carlo(p.ops.size(), p.num_inputs, num_patterns, seed, p);
}

std::vector<double> netlist_probabilities(const netlist::Netlist& nl, std::size_t num_patterns,
                                          std::uint64_t seed) {
  // Multi-input gates do not fit a Program: a per-block step runs the
  // per-word simulator and writes its words into the tile buffer.
  const std::size_t n_in = nl.inputs().size();
  const auto step = [&](std::uint64_t* buf, std::uint64_t b0, std::size_t k, const auto& input) {
    std::vector<std::uint64_t> pi(n_in);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < n_in; ++i) pi[i] = input(i, b0 + j);
      const auto words = simulate_netlist(nl, pi);
      for (std::size_t v = 0; v < words.size(); ++v) buf[v * kTile + j] = words[v];
    }
  };
  return monte_carlo(nl.size(), n_in, num_patterns, seed, step);
}

std::vector<double> exact_aig_probabilities(const aig::Aig& aig) {
  return exhaustive(compile(aig));
}

std::vector<double> exact_gate_graph_probabilities(const aig::GateGraph& g) {
  return exhaustive(compile(g));
}

}  // namespace dg::sim
