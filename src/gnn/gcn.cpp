// GCN baseline: the circuit graph is treated as UNDIRECTED (the paper's
// weakest baseline — it discards logic direction entirely). L stacked layers,
// each aggregating neighbor messages over the whole graph at once and
// combining with a per-layer linear + ReLU.
#include "gnn/incremental.hpp"
#include "gnn/models.hpp"

#include "nn/ops.hpp"


namespace dg::gnn {
namespace {

using nn::Tensor;

class GcnModel final : public Model {
 public:
  explicit GcnModel(const ModelConfig& cfg) : Model(cfg) {
    util::Rng rng(cfg.seed);
    for (int l = 0; l < cfg.iterations; ++l) {
      aggs_.push_back(make_aggregator(cfg.agg, cfg.dim, 2 * cfg.pe_L, rng));
      combines_.emplace_back(2 * cfg.dim, cfg.dim, rng);
    }
    regressor_ = Regressor(cfg.num_types, cfg.dim, cfg.mlp_hidden, rng);
  }

  Tensor embed(const CircuitGraph& g) const override {
    GcnSweeps sweeps(*this, g);
    return run_sweeps(sweeps);
  }

  Tensor predict(const CircuitGraph& g) const override {
    return forward_outputs(g).prediction;
  }

  ForwardOutputs forward_outputs(const CircuitGraph& g) const override {
    const Tensor h = embed(g);
    return {regressor_.forward(h, g), h};
  }

  std::unique_ptr<Model> clone() const override {
    auto copy = std::make_unique<GcnModel>(cfg_);
    copy_params(*this, *copy);
    return copy;
  }

  std::unique_ptr<IncrementalState> make_incremental_state() const override {
    return std::make_unique<MemoState>();
  }

  ForwardOutputs forward_incremental(const CircuitGraph& g, IncrementalState* state,
                                     const std::vector<int>& old_of_new,
                                     IncrementalRunStats* stats) const override {
    GcnSweeps sweeps(*this, g);
    return run_incremental(sweeps, regressor_, cfg_.dim, state, old_of_new, stats);
  }

  void collect(nn::NamedParams& out, const std::string& prefix) const override {
    for (std::size_t l = 0; l < aggs_.size(); ++l) {
      aggs_[l]->collect(out, prefix + ".layer" + std::to_string(l) + ".agg");
      combines_[l].collect(out, prefix + ".layer" + std::to_string(l) + ".combine");
    }
    regressor_.collect(out, prefix + ".regressor");
  }

  void quantize_bf16() override {
    Model::quantize_bf16();
    for (auto& a : aggs_) a->quantize_bf16();
    for (auto& c : combines_) c.quantize_bf16();
    regressor_.quantize_bf16();
  }

  const char* name() const override { return "GCN"; }

 private:
  /// GCN keeps whole-graph dense states: every checkpoint is a single
  /// N x d "level", and dirtiness spreads exactly one undirected hop per
  /// layer. h0 is the type one-hot padded to d — row-local in the gate type,
  /// so the memo's clean h0 rows need no redraw.
  class GcnSweeps final : public Sweeps {
   public:
    GcnSweeps(const GcnModel& model, const CircuitGraph& g)
        : Sweeps(g),
          model_(model),
          inv_deg_(nn::constant(
              nn::Matrix::from_vector(g.num_nodes, 1, std::vector<float>(g.und_inv_deg)))) {}

    std::size_t count() const override { return model_.aggs_.size(); }

    DirtySeedOptions dirty_options() const override {
      DirtySeedOptions opts;
      opts.track_layout = false;  // h0 and the und arrays never read (level, pos)
      opts.track_reverse = true;  // undirected: fanout edges feed messages too
      return opts;
    }

    std::vector<Tensor> initial() override {
      return {init_full_state(g_, model_.cfg_.dim, /*random_init=*/false, model_.cfg_.seed)};
    }

    void full(std::size_t s, std::vector<Tensor>& states) override {
      states[0] = model_.layer(s, g_, states[0], inv_deg_, nullptr);
    }

    int adopt(std::vector<std::vector<Tensor>>& checkpoints, const std::vector<int>& old_of_new,
              const std::vector<std::uint8_t>& dirty) override {
      const int n = g_.num_nodes;
      const int dim = model_.cfg_.dim;
      // Layout is not tracked: clean rows stay in place only while node ids
      // did; after an insert or delete every checkpoint is remapped.
      bool in_place = checkpoints[0][0].rows() == n;
      for (int v = 0; v < n && in_place; ++v)
        in_place = dirty[static_cast<std::size_t>(v)] != 0 || old_of_new[static_cast<std::size_t>(v)] == v;
      if (!in_place) {
        for (auto& ckpt : checkpoints) {
          const nn::Matrix& old = ckpt[0].value();
          nn::Matrix m(n, dim);
          for (int v = 0; v < n; ++v)
            if (dirty[static_cast<std::size_t>(v)] == 0)
              std::copy_n(old.row_ptr(old_of_new[static_cast<std::size_t>(v)]), dim, m.row_ptr(v));
          ckpt[0] = nn::constant(std::move(m));
        }
      }
      int drawn = 0;
      for (int v = 0; v < n; ++v) {
        if (dirty[static_cast<std::size_t>(v)] == 0) continue;
        init_state_row(g_, dim, /*random_init=*/false, model_.cfg_.seed, -1, v, v,
                       writable(checkpoints[0][0]).row_ptr(v));
        ++drawn;
      }
      return drawn;
    }

    int partial(std::size_t s, const std::vector<Tensor>& entry, std::vector<Tensor>& next,
                std::vector<std::uint8_t>& dirty) override {
      // One-hop spread: a row's message reads its neighbors' entry states.
      std::vector<std::uint8_t> spread = dirty;
      for (std::size_t i = 0; i < g_.und_src.size(); ++i)
        if (dirty[static_cast<std::size_t>(g_.und_src[i])] != 0)
          spread[static_cast<std::size_t>(g_.und_dst[i])] = 1;
      dirty = std::move(spread);

      std::vector<int> rows;
      for (int v = 0; v < g_.num_nodes; ++v)
        if (dirty[static_cast<std::size_t>(v)] != 0) rows.push_back(v);
      if (rows.empty()) return 0;
      const Tensor updated = model_.layer(s, g_, entry[0], inv_deg_, &rows);
      nn::Matrix& out = writable(next[0]);
      for (std::size_t k = 0; k < rows.size(); ++k)
        std::copy_n(updated.value().row_ptr(static_cast<int>(k)), out.cols(), out.row_ptr(rows[k]));
      return static_cast<int>(rows.size());
    }

    Tensor embedding(const std::vector<Tensor>& states) const override { return states[0]; }

   private:
    const GcnModel& model_;
    Tensor inv_deg_;
  };

  /// Layer l for the given node rows (nullptr: every node), reading the
  /// whole layer-entry state `h`; returns one row per selected node. Row
  /// subsets keep each destination's in-order und message segment, and the
  /// aggregator / combine / relu kernels are row- or segment-local, so each
  /// row is bitwise the same whichever rows are selected.
  Tensor layer(std::size_t l, const CircuitGraph& g, const Tensor& h, const Tensor& inv_deg,
               const std::vector<int>* rows) const {
    Tensor q = h;
    Tensor inv = inv_deg;
    const std::vector<int>* src = &g.und_src;
    const std::vector<int>* seg = &g.und_dst;
    int num_dst = g.num_nodes;
    std::vector<int> sub_src;
    std::vector<int> sub_seg;
    if (rows != nullptr) {
      num_dst = static_cast<int>(rows->size());
      std::vector<int> rank(static_cast<std::size_t>(g.num_nodes), -1);
      for (int i = 0; i < num_dst; ++i)
        rank[static_cast<std::size_t>((*rows)[static_cast<std::size_t>(i)])] = i;
      for (std::size_t i = 0; i < g.und_src.size(); ++i) {
        const int r = rank[static_cast<std::size_t>(g.und_dst[i])];
        if (r < 0) continue;
        sub_seg.push_back(r);
        sub_src.push_back(g.und_src[i]);
      }
      q = nn::gather_rows(h, *rows);
      inv = nn::gather_rows(inv_deg, *rows);
      src = &sub_src;
      seg = &sub_seg;
    }
    const Tensor pe;  // undefined: GCN has no skip-edge attributes
    const Tensor m = aggs_[l]->forward(nn::gather_rows(h, *src), q, *seg, num_dst, inv, pe);
    return nn::relu(combines_[l].forward(nn::concat_cols(q, m)));
  }

  std::vector<std::unique_ptr<Aggregator>> aggs_;
  std::vector<nn::Linear> combines_;
  Regressor regressor_;
};

}  // namespace

std::unique_ptr<Model> make_gcn(const ModelConfig& cfg) {
  return std::make_unique<GcnModel>(cfg);
}

}  // namespace dg::gnn
