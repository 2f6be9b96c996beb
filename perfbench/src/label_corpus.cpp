// label_corpus: back-to-back deepgate::prepare calls at the paper's 100k
// random patterns over a fixed list of Table III-class and arithmetic
// designs — the corpus-labelling use. The only workload in synth, aig and
// sim; it never touches nn or serve.
#include "common.hpp"
#include "designs.hpp"

#include "aig/gate_graph.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "synth/sweep.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#include <cmath>

namespace pb {

namespace {

/// Ops per --second: under the 44–58 prepare() calls/s measured on a shared
/// 4-vCPU Xeon VM at two threads, leaving room for steal-heavy periods.
constexpr double kRate = 40.0;
/// The paper's pattern count (Sec. III-B).
constexpr std::size_t kPatterns = 100000;
/// Mean |Monte-Carlo label - exact| above this fails the output check: at
/// 100k patterns the expected mean error is about 1e-3.
constexpr double kMaxLabelError = 5e-3;

/// Fingerprint of everything prepare() derives from structure alone.
std::uint64_t structure_hash(const deepgate::CircuitGraph& g) {
  dg::util::Fnv1a h;
  h.i32(g.num_nodes);
  h.bytes(g.type_id.data(), g.type_id.size() * sizeof(int));
  h.bytes(g.level.data(), g.level.size() * sizeof(int));
  for (const auto& [src, dst] : g.edges) h.i32(src).i32(dst);
  for (const auto& s : g.skip_edges) h.i32(s.src).i32(s.dst).i32(s.level_diff);
  return h.digest();
}

std::uint64_t graph_hash(const deepgate::CircuitGraph& g) {
  std::vector<std::uint8_t> bytes;
  g.serialize(bytes);
  return dg::util::fnv1a_bytes(bytes.data(), bytes.size());
}

struct CorpusState {
  std::vector<Design> designs;
  std::vector<std::uint64_t> structure;  ///< per design, from the warm-up prepare
  /// Exact probabilities of the designs small enough for exhaustive
  /// simulation (empty for the others): the reference of prob_error.
  std::vector<std::vector<double>> exact;
};

/// Warm-up prepare of every design, then the exact reference probabilities.
std::unique_ptr<CorpusState> make_state() {
  auto st = std::make_unique<CorpusState>();
  st->designs = corpus_designs();
  for (const Design& d : st->designs) {
    st->structure.push_back(structure_hash(deepgate::prepare(d.aig, kPatterns, 1)));
    std::vector<double> exact;
    if (d.exact) {
      dg::aig::Aig optimized = dg::synth::optimize(d.aig);
      if (optimized.uses_constants()) optimized = dg::synth::drop_constant_outputs(optimized);
      exact = dg::sim::exact_gate_graph_probabilities(dg::aig::to_gate_graph(optimized));
    }
    st->exact.push_back(std::move(exact));
  }
  return st;
}

struct Op {
  std::size_t design = 0;
  std::uint64_t sim_seed = 0;
};

/// Every design equally often (seeded shuffles), each call with its own
/// simulation stream.
std::vector<Op> make_ops(std::uint64_t seed, long long count, std::size_t pool) {
  const std::vector<std::size_t> order =
      balanced_order(seed ^ 0x1abe1ULL, static_cast<std::size_t>(count), pool);
  dg::util::Rng rng(seed ^ 0x5eedULL);
  std::vector<Op> ops(order.size());
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i] = {order[i], rng.next_u64()};
  return ops;
}

/// The four steps prepare() is made of, each timed and traced.
struct Steps {
  std::vector<double> optimize_ms, gate_graph_ms, sim_ms, build_ms;
  double sim_s = 0.0, op_s = 0.0, node_patterns = 0.0;
};

deepgate::CircuitGraph prepare_in_steps(const dg::aig::Aig& aig, std::uint64_t sim_seed,
                                        std::uint64_t id, Steps& steps) {
  const Clock::time_point t0 = Clock::now();
  dg::aig::Aig optimized = dg::synth::optimize(aig);
  if (optimized.uses_constants()) optimized = dg::synth::drop_constant_outputs(optimized);
  const Clock::time_point t1 = Clock::now();
  const dg::aig::GateGraph gg = dg::aig::to_gate_graph(optimized);
  const Clock::time_point t2 = Clock::now();
  const std::vector<double> labels = dg::sim::gate_graph_probabilities(gg, kPatterns, sim_seed);
  const Clock::time_point t3 = Clock::now();
  deepgate::CircuitGraph g = deepgate::CircuitGraph::from_gate_graph(gg, labels);
  const Clock::time_point t4 = Clock::now();
  span("synth.optimize", t0, t1, id);
  span("aig.gate_graph", t1, t2, id);
  span("sim.probabilities", t2, t3, id);
  span("gnn.graph_build", t3, t4, id);
  steps.optimize_ms.push_back(seconds_between(t0, t1) * 1e3);
  steps.gate_graph_ms.push_back(seconds_between(t1, t2) * 1e3);
  steps.sim_ms.push_back(seconds_between(t2, t3) * 1e3);
  steps.build_ms.push_back(seconds_between(t3, t4) * 1e3);
  steps.sim_s += seconds_between(t2, t3);
  steps.op_s += seconds_between(t0, t4);
  steps.node_patterns += static_cast<double>(gg.size()) * static_cast<double>(kPatterns);
  return g;
}

/// Mean |Monte-Carlo label - exact probability| accumulated over the ops on
/// designs small enough for exhaustive simulation.
struct LabelError {
  double sum = 0.0, count = 0.0;
  double value() const { return count > 0.0 ? sum / count : 0.0; }
};

/// One pass over the op list. With `steps` the ops run prepare's four steps
/// one by one; otherwise each op is one prepare() call. `hashes` holds each
/// op's output from the first time it ran; every later run of the op (a
/// re-measured block, the traced pass) must reproduce it bit for bit.
Pass run_pass(const CorpusState& st, const std::vector<Op>& ops, Result& r,
              std::vector<std::uint64_t>& hashes, LabelError& err, double retry_budget_s,
              Steps* steps) {
  hashes.resize(ops.size());
  return run_blocks(static_cast<long long>(ops.size()), retry_budget_s,
                    [&](std::size_t lo, std::size_t hi, bool first, Block& b) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Design& d = st.designs[ops[i].design];
      const std::uint64_t id = dg::obs::next_trace_id();
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      const deepgate::CircuitGraph g = steps != nullptr
                                           ? prepare_in_steps(d.aig, ops[i].sim_seed, id, *steps)
                                           : deepgate::prepare(d.aig, kPatterns, ops[i].sim_seed);
      const Clock::time_point t1 = Clock::now();
      b.cpu_s += process_cpu_seconds() - cpu0;
      b.wall_s += seconds_between(t0, t1);
      span("op", t0, t1, id);
      ++b.attempted;

      // Output checks, outside the op's time.
      bool ok = r.check(structure_hash(g) == st.structure[ops[i].design],
                        "label_corpus: prepare() structure differs for " + d.name);
      for (const float p : g.labels) ok = ok && p >= 0.0F && p <= 1.0F;
      ok = r.check(ok, "label_corpus: label outside [0, 1] for " + d.name);
      const std::uint64_t h = graph_hash(g);
      const bool fresh = first && steps == nullptr;
      if (fresh) {
        hashes[i] = h;
      } else {
        ok = r.check(hashes[i] == h, "label_corpus: a repeated prepare of " + d.name +
                                         " differs from its first run") &&
             ok;
      }
      const std::vector<double>& exact = st.exact[ops[i].design];
      if (fresh && !exact.empty()) {
        ok = r.check(exact.size() == g.labels.size(),
                     "label_corpus: label count differs from the exact simulation") &&
             ok;
        for (std::size_t v = 0; ok && v < exact.size(); ++v)
          err.sum += std::abs(static_cast<double>(g.labels[v]) - exact[v]);
        if (ok) err.count += static_cast<double>(exact.size());
      }
      if (ok) {
        ++b.completed;
        ++b.good;
        b.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
      } else if (first) {
        ++r.failed;
      }
    }
  });
}

}  // namespace

void run_label_corpus(const Args& args, Result& r) {
  double setup_s = 0.0;
  std::unique_ptr<CorpusState> st = timed_setup(args, r, setup_s, [] { return make_state(); });
  if (!st) return;
  const std::vector<Op> ops = make_ops(args.seed, args.op_count(kRate), st->designs.size());
  r.note("patterns", static_cast<double>(kPatterns));

  std::vector<std::uint64_t> hashes;
  LabelError err;
  const Pass pass = run_pass(*st, ops, r, hashes, err, args.retry_budget_s(), nullptr);
  r.attempted += pass.attempted;
  r.check(err.count > 0.0 && err.value() < kMaxLabelError,
          "label_corpus: Monte-Carlo labels far from exact");
  if (!args.trace) {
    emit_end_to_end(r, setup_s, pass, err.value());
    return;
  }

  Steps steps;
  dg::obs::trace_set_enabled(true);
  const Pass traced = run_pass(*st, ops, r, hashes, err, 0.0, &steps);
  dg::obs::trace_set_enabled(false);
  r.attempted += traced.attempted;
  r.set("synth.optimize_ms_p50", quantile(steps.optimize_ms, 0.5), "ms");
  r.set("aig.gate_graph_ms_p50", quantile(steps.gate_graph_ms, 0.5), "ms");
  r.set("sim.probabilities_ms_p50", quantile(steps.sim_ms, 0.5), "ms");
  r.set("sim.node_patterns_per_s", steps.sim_s > 0.0 ? steps.node_patterns / steps.sim_s : 0.0,
        "1/s");
  r.set("sim.op_time_frac", steps.op_s > 0.0 ? steps.sim_s / steps.op_s : 0.0, "frac");
  r.set("gnn.graph_build_ms_p50", quantile(steps.build_ms, 0.5), "ms");
  emit_common_layers(r, pass, traced);
  export_trace(args, self_times_ms_per_op(traced.attempted));
}

}  // namespace pb
