#include "gnn/incremental.hpp"

#include "nn/ops.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"

#include <cassert>
#include <stdexcept>

namespace dg::gnn {

using nn::Tensor;

double incremental_memo_cap_mb() {
  return util::env_double("DEEPGATE_INCREMENTAL_MEMO_MB", 512.0);
}

void GraphSnapshot::capture(const CircuitGraph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes);
  generation = g.generation;
  num_nodes = g.num_nodes;
  num_levels = g.num_levels;
  level = g.level;
  pos = g.node_pos;
  type = g.type_id;
  fanins = g.fanin_lists();
  fanouts.assign(n, {});
  for (const auto& [src, dst] : g.edges) fanouts[static_cast<std::size_t>(src)].push_back(dst);
  skip_fanins.assign(n, {});
  for (const auto& e : g.skip_edges)
    skip_fanins[static_cast<std::size_t>(e.dst)].emplace_back(e.src, e.level_diff);
  const auto lv = static_cast<std::size_t>(g.num_levels);
  fwd_nonempty.assign(lv, 0);
  fwd_skip_nonempty.assign(lv, 0);
  rev_nonempty.assign(lv, 0);
  for (std::size_t L = 0; L < lv; ++L) {
    fwd_nonempty[L] = g.fwd[L].empty() ? 0 : 1;
    fwd_skip_nonempty[L] = g.fwd_skip[L].empty() ? 0 : 1;
    rev_nonempty[L] = g.rev[L].empty() ? 0 : 1;
  }
}

namespace {

/// Per-node dirty seeds: nodes whose h0 or per-level update inputs differ
/// between the memoized snapshot `then` and the current one `now`.
/// Conservative in the safe direction only.
std::vector<std::uint8_t> dirty_seeds(const GraphSnapshot& now, const GraphSnapshot& then,
                                      const std::vector<int>& old_of_new,
                                      const DirtySeedOptions& opts) {
  const auto n = static_cast<std::size_t>(now.num_nodes);
  assert(old_of_new.size() == n);
  std::vector<std::uint8_t> dirty(n, 0);

  // A neighbor list matches when it has the same length and every current
  // neighbor existed at the snapshot with the same old id in the same slot.
  const auto lists_match = [&](const std::vector<int>& a, const std::vector<int>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (old_of_new[static_cast<std::size_t>(a[i])] != b[i]) return false;
    return true;
  };
  const auto skips_match = [&](const std::vector<std::pair<int, int>>& a,
                               const std::vector<std::pair<int, int>>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (old_of_new[static_cast<std::size_t>(a[i].first)] != b[i].first ||
          a[i].second != b[i].second)
        return false;
    return true;
  };

  for (std::size_t v = 0; v < n; ++v) {
    const int o = old_of_new[v];
    if (o < 0 || o >= then.num_nodes) {
      dirty[v] = 1;  // node did not exist at the memoized generation
      continue;
    }
    const auto oi = static_cast<std::size_t>(o);
    // Layout: the random-h0 cell and the batch coordinates. Same level then
    // and now, the level's update pattern still flips when a batch goes
    // (non)empty.
    const auto L = static_cast<std::size_t>(now.level[v]);
    const auto oL = static_cast<std::size_t>(then.level[oi]);
    const bool layout_moved =
        opts.track_layout &&
        (L != oL || now.pos[v] != then.pos[oi] ||
         now.fwd_nonempty[L] != then.fwd_nonempty[oL] ||
         now.fwd_skip_nonempty[L] != then.fwd_skip_nonempty[oL] ||
         (opts.track_reverse && now.rev_nonempty[L] != then.rev_nonempty[oL]));
    if (now.type[v] != then.type[oi] || layout_moved ||
        !lists_match(now.fanins[v], then.fanins[oi]) ||
        !skips_match(now.skip_fanins[v], then.skip_fanins[oi]) ||
        (opts.track_reverse && !lists_match(now.fanouts[v], then.fanouts[oi])))
      dirty[v] = 1;
  }
  return dirty;
}

}  // namespace

LayeredSweeps::LayeredSweeps(const CircuitGraph& g, const ModelConfig& cfg,
                             std::vector<const DirectedLayer*> layers)
    : Sweeps(g), cfg_(cfg), layers_(std::move(layers)), x_lvl_(level_onehot(g)) {}

DirtySeedOptions LayeredSweeps::dirty_options() const {
  DirtySeedOptions opts;  // layout-tracked: levels/positions drive batches and h0 cells
  opts.track_reverse = false;
  for (const DirectedLayer* layer : layers_) opts.track_reverse |= layer->reversed();
  return opts;
}

std::vector<Tensor> LayeredSweeps::initial() {
  return init_level_states(g_, cfg_.dim, cfg_.random_h0, cfg_.seed);
}

void LayeredSweeps::full(std::size_t s, std::vector<Tensor>& states) {
  const DirectedLayer& layer = *layers_[s];
  DirectedLayer::Scratch& scratch = scratch_[&layer];
  layer.for_each_level(g_, [&](int L) { layer.step(g_, L, states, x_lvl_, nullptr, &scratch); });
}

void LayeredSweeps::partial(std::size_t s, std::vector<Tensor>& states,
                            const std::vector<Tensor>& memo_next, const GraphSnapshot& snap,
                            const std::vector<int>& old_of_new,
                            std::vector<std::uint8_t>& dirty) {
  const DirectedLayer& layer = *layers_[s];
  DirectedLayer::Scratch& scratch = scratch_[&layer];
  // Levels whose batch is empty keep their entry states (and dirtiness);
  // processed levels are replaced in sweep order, so source gathers always
  // see the sweep's current values.
  layer.for_each_level(g_, [&](int L) {
    const std::size_t lvl = static_cast<std::size_t>(L);
    const LevelBatch& batch = layer.batch_at(g_, L);
    if (batch.empty()) return;
    const auto& nodes = g_.nodes_at_level[lvl];
    const int num_dst = static_cast<int>(nodes.size());

    std::vector<std::uint8_t> row_dirty(static_cast<std::size_t>(num_dst), 0);
    for (int r = 0; r < num_dst; ++r)
      row_dirty[static_cast<std::size_t>(r)] =
          dirty[static_cast<std::size_t>(nodes[static_cast<std::size_t>(r)])];
    int e = 0;
    for (const auto& group : batch.groups)
      for (const int pos : group.pos) {
        const int src_node = g_.nodes_at_level[static_cast<std::size_t>(group.level)]
                                              [static_cast<std::size_t>(pos)];
        if (dirty[static_cast<std::size_t>(src_node)] != 0)
          row_dirty[static_cast<std::size_t>(batch.seg[static_cast<std::size_t>(e)])] = 1;
        ++e;
      }

    // Dirty rows keep their entry value for the step to read; clean rows
    // take their post-sweep value from the memo, located by node identity
    // in the snapshot layout.
    const nn::Matrix& entry = states[lvl].value();
    nn::Matrix mixed(num_dst, entry.cols());
    std::vector<int> rows;
    for (int r = 0; r < num_dst; ++r) {
      const auto v = static_cast<std::size_t>(nodes[static_cast<std::size_t>(r)]);
      const float* src = nullptr;
      if (row_dirty[static_cast<std::size_t>(r)] != 0) {
        rows.push_back(r);
        dirty[v] = 1;
        src = entry.row_ptr(r);
      } else {
        const auto o = static_cast<std::size_t>(old_of_new[v]);
        src = memo_next[static_cast<std::size_t>(snap.level[o])].value().row_ptr(snap.pos[o]);
      }
      std::copy(src, src + entry.cols(), mixed.row_ptr(r));
    }
    states[lvl] = nn::constant(std::move(mixed));
    layer.step(g_, L, states, x_lvl_, &rows, &scratch);
  });
}

Tensor LayeredSweeps::embedding(const std::vector<Tensor>& states) const {
  return full_from_levels(states, g_);
}

Tensor run_sweeps(Sweeps& sweeps, std::vector<std::vector<Tensor>>* checkpoints) {
  count_full_forward();
  std::vector<Tensor> states = sweeps.initial();
  if (checkpoints != nullptr) checkpoints->push_back(states);
  for (std::size_t s = 0; s < sweeps.count(); ++s) {
    sweeps.full(s, states);
    if (checkpoints != nullptr) checkpoints->push_back(states);
  }
  return sweeps.embedding(states);
}

ForwardOutputs run_incremental(Sweeps& sweeps, const Regressor& regressor, int dim,
                               IncrementalState* state, const std::vector<int>& old_of_new,
                               IncrementalRunStats* stats) {
  const CircuitGraph& g = sweeps.graph();
  if (nn::grad_enabled())
    throw std::logic_error("forward_incremental: requires nn::NoGradGuard");
  if (g.is_batch())
    throw std::invalid_argument("forward_incremental: merged batch graphs not supported");
  IncrementalRunStats local;
  IncrementalRunStats& st = stats != nullptr ? *stats : local;
  st = {};

  auto* memo_state = dynamic_cast<MemoState*>(state);
  if (memo_state == nullptr) {
    const Tensor h = run_sweeps(sweeps);
    return {regressor.forward(h, g), h};
  }
  LevelMemo& memo = memo_state->memo;

  // Unchanged generation: replay the cached outputs — zero propagation.
  if (memo.valid && memo.snap.generation == g.generation &&
      memo.snap.num_nodes == g.num_nodes) {
    static obs::Counter& memo_hits = obs::counter("gnn.memo.hits");
    memo_hits.add();
    st.memo_hit = true;
    return {nn::constant(memo.prediction), nn::constant(memo.embedding)};
  }
  static obs::Counter& memo_misses = obs::counter("gnn.memo.misses");
  memo_misses.add();

  const double est_mb = static_cast<double>(sweeps.count() + 1) *
                        static_cast<double>(g.num_nodes) * static_cast<double>(dim) * 4.0 /
                        (1024.0 * 1024.0);
  const bool fits = est_mb <= incremental_memo_cap_mb();
  const bool partial = fits && memo.valid && memo.has_checkpoints &&
                       memo.checkpoints.size() == sweeps.count() + 1 &&
                       old_of_new.size() == static_cast<std::size_t>(g.num_nodes) &&
                       g.num_nodes > 0;

  // One adjacency build per miss: the current snapshot feeds the dirty-seed
  // diff and then becomes the memo's.
  GraphSnapshot snap;
  snap.capture(g);
  std::vector<std::vector<Tensor>> checkpoints;
  Tensor h;
  Tensor pred;
  if (!partial) {
    h = run_sweeps(sweeps, fits ? &checkpoints : nullptr);
    pred = regressor.forward(h, g);
  } else {
    count_partial_forward();
    std::vector<std::uint8_t> dirty =
        dirty_seeds(snap, memo.snap, old_of_new, sweeps.dirty_options());
    checkpoints.reserve(sweeps.count() + 1);
    checkpoints.push_back(sweeps.initial());
    for (std::size_t s = 0; s < sweeps.count(); ++s) {
      std::vector<Tensor> states = checkpoints.back();
      sweeps.partial(s, states, memo.checkpoints[s + 1], memo.snap, old_of_new, dirty);
      checkpoints.push_back(std::move(states));
    }
    h = sweeps.embedding(checkpoints.back());

    // Prediction: remap clean rows from the memo, recompute the dirty ones.
    nn::Matrix p(g.num_nodes, 1);
    std::vector<int> dirty_nodes;
    for (int v = 0; v < g.num_nodes; ++v) {
      if (dirty[static_cast<std::size_t>(v)] != 0) {
        dirty_nodes.push_back(v);
        continue;
      }
      p.at(v, 0) = memo.prediction.at(old_of_new[static_cast<std::size_t>(v)], 0);
    }
    regressor.forward_rows(h.value(), g, dirty_nodes, p);
    pred = nn::constant(std::move(p));
    st.partial = true;
    st.dirty_nodes = static_cast<int>(dirty_nodes.size());
  }

  memo.checkpoints = std::move(checkpoints);
  memo.has_checkpoints = fits;
  memo.snap = std::move(snap);
  memo.prediction = pred.value();
  memo.embedding = h.value();
  memo.valid = true;
  return {pred, h};
}

}  // namespace dg::gnn
