// edit_session: seeded edit streams on a prepared multi-unit design, each
// op one applied edit followed by Engine::predict_incremental — the
// re-query-while-editing use. It runs the same forward on row subsets
// through the LevelMemo, so a change that speeds up full forwards but slows
// this path shows here.
//
// The stream is shaped to stay local the way real ECO edits do: gates are
// appended (new last position in their level) and removed last-in-first-out,
// and rewires swap a fanin for another node of the same unit and level, so
// no edit moves other nodes' (level, position) and the dirty cone stays
// inside the edited unit. Plain synth::random_mutation edits dirty 86% of
// rows on Table III designs, which would make every query a full forward.
#include "common.hpp"
#include "designs.hpp"

#include "core/incremental_session.hpp"
#include "nn/arena.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace pb {

namespace {

/// Ops per --second: a little under the 15–19 edit+query ops/s measured
/// on a shared 4-vCPU Xeon VM at two threads.
constexpr double kRate = 16.0;
constexpr std::size_t kPatterns = 100000;
/// The design and its labels are the same for every workload seed (the seed
/// draws the edit stream), so prob_error varies across seeds only through
/// the edits.
constexpr std::uint64_t kLabelSeed = 1;
/// One op in this many (seeded), plus the last op, is checked against a
/// from-scratch forward (a rebuild and a full forward: ~0.4 s on this
/// design, so the sample is kept small).
constexpr std::uint64_t kCheckEvery = 32;

constexpr int kAnd = 1;
constexpr int kNot = 2;

struct EditState {
  std::unique_ptr<deepgate::Engine> engine;
  deepgate::CircuitGraph graph;  ///< the prepared design, before any edit
  std::vector<int> unit;         ///< connected unit of each node
  /// Same-unit, same-level nodes: the rewire candidates of a fanin.
  std::map<std::pair<int, int>, std::vector<int>> by_unit_level;
  std::vector<int> ands;         ///< two-input AND nodes (rewire targets)
};

std::vector<int> connected_units(const deepgate::CircuitGraph& g) {
  std::vector<int> parent(static_cast<std::size_t>(g.num_nodes));
  for (int v = 0; v < g.num_nodes; ++v) parent[static_cast<std::size_t>(v)] = v;
  const auto find = [&](int v) {
    while (parent[static_cast<std::size_t>(v)] != v)
      v = parent[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
    return v;
  };
  for (const auto& [a, b] : g.edges) parent[static_cast<std::size_t>(find(a))] = find(b);
  std::vector<int> unit(static_cast<std::size_t>(g.num_nodes));
  for (int v = 0; v < g.num_nodes; ++v) unit[static_cast<std::size_t>(v)] = find(v);
  return unit;
}

std::unique_ptr<EditState> make_state(const Args& args) {
  auto st = std::make_unique<EditState>();
  st->engine = load_engine(args.checkpoint);
  st->graph = deepgate::prepare(edit_design(), kPatterns, kLabelSeed);
  const deepgate::CircuitGraph& g = st->graph;
  st->unit = connected_units(g);
  const std::vector<std::vector<int>> fanins = g.fanin_lists();
  for (int v = 0; v < g.num_nodes; ++v) {
    const auto sv = static_cast<std::size_t>(v);
    st->by_unit_level[{st->unit[sv], g.level[sv]}].push_back(v);
    if (g.type_id[sv] == kAnd && fanins[sv].size() == 2) st->ands.push_back(v);
  }
  // Warm-up: one session's first (full) query.
  deepgate::IncrementalSession warm(*st->engine, g);
  st->engine->predict_incremental(warm);
  return st;
}

deepgate::CircuitGraph rebuild(const deepgate::CircuitGraph& g) {
  deepgate::CircuitGraph fresh;
  fresh.num_nodes = g.num_nodes;
  fresh.num_types = g.num_types;
  fresh.type_id = g.type_id;
  fresh.level = g.level;
  fresh.edges = g.edges;
  fresh.skip_edges = g.skip_edges;
  fresh.labels = g.labels;
  fresh.finalize(g.pe_L);
  return fresh;
}

struct Layer {
  std::vector<double> edit_us, query_ms, dirty_frac;
  long long rejected = 0, edits_tried = 0;
  std::uint64_t partial = 0, full = 0;
  std::size_t heap_allocs = 0;
  double abs_err = 0.0, err_nodes = 0.0;  ///< predictions vs still-valid labels
};

/// Applies one seeded edit to the session. Original nodes keep their ids for
/// the whole stream (only appended nodes are ever deleted), so `fanins`,
/// `fanouts` and `stale` are indexed by original id.
class EditStream {
 public:
  EditStream(const EditState& st, std::uint64_t seed)
      : st_(st),
        rng_(seed ^ 0xed17ULL),
        fanins_(st.graph.fanin_lists()),
        fanouts_(static_cast<std::size_t>(st.graph.num_nodes)),
        stale_(static_cast<std::size_t>(st.graph.num_nodes), 0) {
    for (int v = 0; v < st.graph.num_nodes; ++v)
      for (const int u : fanins_[static_cast<std::size_t>(v)])
        fanouts_[static_cast<std::size_t>(u)].push_back(v);
  }

  /// Apply one edit, timing only the session call.
  void apply(deepgate::IncrementalSession& session, Clock::time_point& t0,
             Clock::time_point& t1) {
    const double pick = rng_.next_double();
    if (pick < 0.2 && !inserted_.empty()) {
      const int v = inserted_.back();
      inserted_.pop_back();
      t0 = Clock::now();
      session.delete_node(v);
      t1 = Clock::now();
    } else if (pick < 0.6) {
      const int u = random_node();
      std::vector<int> fanins{u};
      int type = kNot;
      if (rng_.next_bool()) {
        const auto& peers = st_.by_unit_level.at(
            {st_.unit[static_cast<std::size_t>(u)], st_.graph.level[static_cast<std::size_t>(u)]});
        fanins.push_back(peers[rng_.next_below(peers.size())]);
        type = kAnd;
      }
      t0 = Clock::now();
      inserted_.push_back(session.insert_node(type, fanins));
      t1 = Clock::now();
    } else {
      rewire(session, t0, t1);
    }
  }

  /// Original nodes whose fan-in cone no edit has touched: their simulated
  /// labels are still the true probabilities.
  bool label_valid(int v) const { return stale_[static_cast<std::size_t>(v)] == 0; }
  long long rejected = 0;

 private:
  int random_node() { return static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(st_.graph.num_nodes))); }

  void rewire(deepgate::IncrementalSession& session, Clock::time_point& t0, Clock::time_point& t1) {
    for (;;) {
      const int v = st_.ands[rng_.next_below(st_.ands.size())];
      std::vector<int> fanins = fanins_[static_cast<std::size_t>(v)];
      const std::size_t slot = rng_.next_below(2);
      const int old = fanins[slot];
      const auto& peers = st_.by_unit_level.at({st_.unit[static_cast<std::size_t>(v)],
                                                st_.graph.level[static_cast<std::size_t>(old)]});
      const int next = peers[rng_.next_below(peers.size())];
      if (next == old || next == fanins[1 - slot]) continue;
      fanins[slot] = next;
      try {
        t0 = Clock::now();
        session.rewire_node(v, fanins);
        t1 = Clock::now();
      } catch (const std::invalid_argument&) {
        ++rejected;  // cycle guard; drawn again, never timed
        continue;
      }
      auto& old_outs = fanouts_[static_cast<std::size_t>(old)];
      old_outs.erase(std::find(old_outs.begin(), old_outs.end(), v));
      fanouts_[static_cast<std::size_t>(next)].push_back(v);
      fanins_[static_cast<std::size_t>(v)] = fanins;
      mark_stale(v);
      return;
    }
  }

  void mark_stale(int v) {
    std::vector<int> todo{v};
    while (!todo.empty()) {
      const int u = todo.back();
      todo.pop_back();
      if (stale_[static_cast<std::size_t>(u)] != 0) continue;
      stale_[static_cast<std::size_t>(u)] = 1;
      for (const int w : fanouts_[static_cast<std::size_t>(u)]) todo.push_back(w);
    }
  }

  const EditState& st_;
  dg::util::Rng rng_;
  std::vector<std::vector<int>> fanins_;
  std::vector<std::vector<int>> fanouts_;
  std::vector<std::uint8_t> stale_;
  std::vector<int> inserted_;
};

std::uint64_t probs_hash(const std::vector<float>& probs) {
  return dg::util::fnv1a_bytes(probs.data(), probs.size() * sizeof(float));
}

/// One pass over `ops` edits. Each block is one editing session: a fresh
/// session on the prepared design with its own seeded edit stream, so a
/// re-measured block replays exactly the same edits. An editing session is
/// short, and prob_error then averages over independent streams instead of
/// following one random walk. `hashes` holds each op's predictions from
/// its first run; a re-run must reproduce them bit for bit.
Pass run_pass(const EditState& st, std::uint64_t seed, long long ops, double retry_budget_s, Result& r,
              Layer& layer, std::vector<std::uint64_t>& hashes) {
  hashes.resize(static_cast<std::size_t>(ops));
  const auto n = static_cast<std::uint64_t>(ops);
  return run_blocks(ops, retry_budget_s, [&](std::size_t lo, std::size_t hi, bool first, Block& b) {
    // The session's first query is the full forward that seeds the memo,
    // not an op.
    deepgate::IncrementalSession session(*st.engine, st.graph);
    st.engine->predict_incremental(session);
    EditStream stream(st, seed * 0x100000001b3ULL + lo);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t id = dg::obs::next_trace_id();
      const double cpu0 = process_cpu_seconds();
      Clock::time_point e0;
      Clock::time_point e1;
      const dg::gnn::ForwardCounters fwd0 = dg::gnn::forward_counters();
      const std::size_t allocs0 = dg::nn::arena_stats().heap_allocs;
      stream.apply(session, e0, e1);
      const std::vector<float> probs = st.engine->predict_incremental(session);
      const Clock::time_point q1 = Clock::now();
      b.cpu_s += process_cpu_seconds() - cpu0;
      b.wall_s += seconds_between(e0, q1);
      ++b.attempted;
      span("gnn.delta_edit", e0, e1, id);
      span("core.incremental_query", e1, q1, id);
      span("op", e0, q1, id);
      if (first) {
        const dg::gnn::ForwardCounters fwd1 = dg::gnn::forward_counters();
        layer.partial += fwd1.partial - fwd0.partial;
        layer.full += fwd1.full - fwd0.full;
        layer.heap_allocs += dg::nn::arena_stats().heap_allocs - allocs0;
        layer.edit_us.push_back(seconds_between(e0, e1) * 1e6);
        layer.query_ms.push_back(seconds_between(e1, q1) * 1e3);
        layer.dirty_frac.push_back(static_cast<double>(session.last_stats().dirty_nodes) /
                                   static_cast<double>(session.graph().num_nodes));
      }

      // Outside the op's time: the from-scratch check on a seeded sample
      // and on the final graph (first runs), the replay check (re-runs),
      // and the error on still-valid labels.
      bool ok = true;
      if (!first) {
        ok = r.check(probs_hash(probs) == hashes[i],
                     "edit_session: a replayed session differs from its first run");
      } else {
        hashes[i] = probs_hash(probs);
        dg::util::Rng pick(seed ^ (0xc4ec0000ULL + i));
        if (pick.next_below(kCheckEvery) == 0 || i + 1 == n)
          ok = r.check(
              bitwise_equal(probs, st.engine->predict_probabilities(rebuild(session.graph()))),
              "edit_session: predict_incremental differs from a from-scratch forward");
      }
      if (ok) {
        ++b.completed;
        ++b.good;
        b.latency_ms.push_back(seconds_between(e0, q1) * 1e3);
        if (first) {
          for (int v = 0; v < st.graph.num_nodes; ++v) {
            if (!stream.label_valid(v)) continue;
            layer.abs_err += std::abs(static_cast<double>(probs[static_cast<std::size_t>(v)]) -
                                      st.graph.labels[static_cast<std::size_t>(v)]);
            layer.err_nodes += 1.0;
          }
        }
      } else if (first) {
        ++r.failed;
      }
    }
    if (first) {
      layer.rejected += stream.rejected;
      layer.edits_tried += static_cast<long long>(hi - lo) + stream.rejected;
    }
  });
}

}  // namespace

void run_edit_session(const Args& args, Result& r) {
  double setup_s = 0.0;
  std::unique_ptr<EditState> st = timed_setup(args, r, setup_s, [&] { return make_state(args); });
  if (!st) return;
  const long long ops = args.op_count(kRate);
  r.note("design_nodes", static_cast<double>(st->graph.num_nodes));

  Layer layer;
  std::vector<std::uint64_t> hashes;
  const Pass pass = run_pass(*st, args.seed, ops, args.retry_budget_s(), r, layer, hashes);
  r.attempted += pass.attempted;
  r.note("dirty_frac_p50", quantile(layer.dirty_frac, 0.5));
  if (!args.trace) {
    emit_end_to_end(r, setup_s, pass,
                    layer.err_nodes > 0.0 ? layer.abs_err / layer.err_nodes : 0.0);
    return;
  }

  Layer tl;
  std::vector<std::uint64_t> traced_hashes;
  dg::obs::trace_set_enabled(true);
  const Pass traced = run_pass(*st, args.seed, ops, 0.0, r, tl, traced_hashes);
  dg::obs::trace_set_enabled(false);
  r.check(traced_hashes == hashes, "edit_session: the traced pass differs from the untraced pass");
  r.attempted += traced.attempted;
  const double done = static_cast<double>(std::max<long long>(1, traced.completed));
  r.set("gnn.delta_edit_us_p50", quantile(tl.edit_us, 0.5), "us");
  r.set("core.incremental_query_ms_p50", quantile(tl.query_ms, 0.5), "ms");
  r.set("gnn.dirty_frac_mean", mean(tl.dirty_frac), "frac");
  r.set("gnn.dirty_frac_p50", quantile(tl.dirty_frac, 0.5), "frac");
  const double forwards = static_cast<double>(tl.partial + tl.full);
  r.set("gnn.forwards.partial_frac", forwards > 0.0 ? static_cast<double>(tl.partial) / forwards : 0.0,
        "frac");
  r.set("edit.rejected_frac",
        static_cast<double>(tl.rejected) / static_cast<double>(std::max<long long>(1, tl.edits_tried)),
        "frac");
  r.set("nn.arena.heap_allocs_per_op", static_cast<double>(tl.heap_allocs) / done, "count");
  emit_common_layers(r, pass, traced);
  export_trace(args, self_times_ms_per_op(traced.attempted));
}

}  // namespace pb
