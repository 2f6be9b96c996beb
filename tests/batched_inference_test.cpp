// Batched multi-graph inference: level-merged super-graphs must reproduce
// the single-graph path bit-exactly — for heterogeneous batches across all
// four Table II model families, and for a batch of one.
#include "core/batch_runner.hpp"
#include "core/deepgate.hpp"
#include "data/generators_large.hpp"
#include "data/generators_small.hpp"
#include "gnn/merge_cache.hpp"
#include "netlist/to_aig.hpp"
#include "sim/probability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

namespace dg {
namespace {

using gnn::AggKind;
using gnn::CircuitGraph;
using gnn::ModelConfig;
using gnn::ModelFamily;
using gnn::ModelSpec;

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.dim = 12;
  cfg.iterations = 3;
  cfg.mlp_hidden = 8;
  cfg.seed = 11;
  return cfg;
}

/// Heterogeneous AIG workload: different depths, with/without skip edges,
/// constant-free and constant-collapsed cones, plus a single-node graph.
std::vector<CircuitGraph> mixed_graphs() {
  std::vector<CircuitGraph> graphs;
  // Diamond: shallow, reconvergent (1 skip edge).
  {
    aig::Aig a;
    const aig::Lit x = aig::make_lit(a.add_input(), false);
    const aig::Lit y = aig::make_lit(a.add_input(), false);
    const aig::Lit z = aig::make_lit(a.add_input(), false);
    a.add_output(a.add_and(a.add_and(x, y), a.add_and(x, z)));
    graphs.push_back(deepgate::prepare(a, 2000, 5));
  }
  // Squarer: outputs optimize to constants -> exercises the
  // constant-collapsed preparation path; deeper than the diamond.
  graphs.push_back(deepgate::prepare(data::gen_squarer(5), 2000, 6));
  // EPFL-like arithmetic netlist through the full prepare pipeline:
  // different structure and depth from the generators above.
  {
    util::Rng rng(21);
    graphs.push_back(deepgate::prepare(data::gen_epfl_like(rng), 2000, 7));
  }
  // Multiplier: deepest member, many skip edges.
  graphs.push_back(deepgate::prepare(data::gen_multiplier(4), 2000, 8));
  // Single-node graph: one PI, no edges.
  {
    CircuitGraph g;
    g.num_nodes = 1;
    g.num_types = 3;
    g.type_id = {0};
    g.level = {0};
    g.labels = {0.5F};
    g.finalize();
    graphs.push_back(std::move(g));
  }
  return graphs;
}

std::vector<ModelSpec> table2_specs() {
  return {
      {ModelFamily::kGcn, AggKind::kConvSum, false},
      {ModelFamily::kDagConv, AggKind::kConvSum, false},
      {ModelFamily::kDagRec, AggKind::kDeepSet, false},
      {ModelFamily::kDeepGate, AggKind::kAttention, false},  // w/o SC
      {ModelFamily::kDeepGate, AggKind::kAttention, true},   // w/ SC
  };
}

TEST(CircuitGraphMerge, StructureIsDisjointUnion) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const CircuitGraph merged = CircuitGraph::merge(ptrs);

  ASSERT_TRUE(merged.is_batch());
  ASSERT_EQ(merged.members.size(), graphs.size());
  int nodes = 0, max_levels = 0;
  std::size_t edges = 0, skips = 0;
  for (const auto& g : graphs) {
    nodes += g.num_nodes;
    edges += g.edges.size();
    skips += g.skip_edges.size();
    max_levels = std::max(max_levels, g.num_levels);
  }
  EXPECT_EQ(merged.num_nodes, nodes);
  EXPECT_EQ(merged.edges.size(), edges);
  EXPECT_EQ(merged.skip_edges.size(), skips);
  EXPECT_EQ(merged.num_levels, max_levels);
  // Members stay contiguous: node v of member m is merged node offset + v,
  // with identical type and level.
  for (std::size_t m = 0; m < graphs.size(); ++m) {
    const auto& mem = merged.members[m];
    ASSERT_EQ(mem.num_nodes, graphs[m].num_nodes);
    ASSERT_EQ(mem.num_levels, graphs[m].num_levels);
    for (int v = 0; v < mem.num_nodes; ++v) {
      EXPECT_EQ(merged.type_id[static_cast<std::size_t>(mem.node_offset + v)],
                graphs[m].type_id[static_cast<std::size_t>(v)]);
      EXPECT_EQ(merged.level[static_cast<std::size_t>(mem.node_offset + v)],
                graphs[m].level[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(CircuitGraphMerge, RejectsIncompatibleParts) {
  const auto graphs = mixed_graphs();
  CircuitGraph other = graphs[0];
  other.finalize(4);  // different pe_L
  EXPECT_THROW(CircuitGraph::merge({&graphs[0], &other}), std::invalid_argument);
  EXPECT_THROW(CircuitGraph::merge({&graphs[0], nullptr}), std::invalid_argument);
  const CircuitGraph merged = CircuitGraph::merge({&graphs[0], &graphs[1]});
  EXPECT_THROW(CircuitGraph::merge({&merged, &graphs[2]}), std::invalid_argument);
}

TEST(CircuitGraphMerge, EmptyAndSingle) {
  const CircuitGraph empty = CircuitGraph::merge({});
  EXPECT_EQ(empty.num_nodes, 0);
  EXPECT_FALSE(empty.is_batch());

  const auto graphs = mixed_graphs();
  const CircuitGraph one = CircuitGraph::merge({&graphs[0]});
  ASSERT_TRUE(one.is_batch());
  EXPECT_EQ(one.num_nodes, graphs[0].num_nodes);
  EXPECT_EQ(one.edges, graphs[0].edges);
}

TEST(PlanNodeBatches, RespectsBudgetAndCaps) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  // Budget 0: the pre-batching fallback, one graph per batch.
  auto plan = gnn::plan_node_batches(ptrs, 0, 64);
  EXPECT_EQ(plan.size(), ptrs.size());

  // Huge budget: one batch covering everything.
  plan = gnn::plan_node_batches(ptrs, 1u << 30, 64);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (std::pair<std::size_t, std::size_t>{0, ptrs.size()}));

  // max_graphs = 2: ceil(N/2) batches.
  plan = gnn::plan_node_batches(ptrs, 1u << 30, 2);
  EXPECT_EQ(plan.size(), (ptrs.size() + 1) / 2);

  // Tight budget: every batch within budget unless a lone graph exceeds it.
  plan = gnn::plan_node_batches(ptrs, 40, 64);
  std::size_t covered = 0;
  for (const auto& [begin, end] : plan) {
    ASSERT_LT(begin, end);
    std::size_t nodes = 0;
    for (std::size_t i = begin; i < end; ++i)
      nodes += static_cast<std::size_t>(ptrs[i]->num_nodes);
    if (end - begin > 1) {
      EXPECT_LE(nodes, 40u);
    }
    covered += end - begin;
  }
  EXPECT_EQ(covered, ptrs.size());
}

// The merged-forward contract: for every Table II family, predict/embed over
// the merged batch is bitwise equal to the per-graph path on a heterogeneous
// batch — including the masked levels, where a member that skips a level
// when alone keeps its rows untouched.
TEST(BatchedInference, AllFamiliesMatchSingleGraphPath) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  const CircuitGraph merged = CircuitGraph::merge(ptrs);
  int masked = 0;
  for (int L = 0; L < merged.num_levels; ++L) {
    const auto lvl = static_cast<std::size_t>(L);
    masked += static_cast<int>(merged.fwd[lvl].masked()) +
              static_cast<int>(merged.fwd_skip[lvl].masked()) +
              static_cast<int>(merged.rev[lvl].masked());
  }
  ASSERT_GE(masked, 1) << "fixture no longer exercises masked level batches";

  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    const deepgate::Engine engine(options);

    const auto batched = engine.predict_batch(ptrs);
    const auto batched_emb = engine.embeddings_batch(ptrs);
    ASSERT_EQ(batched.size(), graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const auto single = engine.predict_probabilities(graphs[i]);
      ASSERT_EQ(batched[i].size(), single.size()) << gnn::model_spec_label(spec);
      EXPECT_EQ(std::memcmp(batched[i].data(), single.data(), single.size() * sizeof(float)), 0)
          << gnn::model_spec_label(spec) << " graph " << i;

      const nn::Matrix emb = engine.embeddings(graphs[i]);
      ASSERT_TRUE(batched_emb[i].same_shape(emb)) << gnn::model_spec_label(spec);
      EXPECT_EQ(std::memcmp(batched_emb[i].data(), emb.data(), emb.size() * sizeof(float)), 0)
          << gnn::model_spec_label(spec) << " graph " << i;
    }
  }
}

TEST(BatchedInference, BatchOfOneIsBitExact) {
  const auto graphs = mixed_graphs();
  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    const deepgate::Engine engine(options);
    for (const auto& g : graphs) {
      const auto batched = engine.predict_batch({&g});
      const auto single = engine.predict_probabilities(g);
      ASSERT_EQ(batched.size(), 1u);
      // Bitwise, not approximate.
      EXPECT_EQ(batched[0], single) << gnn::model_spec_label(spec);

      const auto emb_b = engine.embeddings_batch({&g});
      const nn::Matrix emb = engine.embeddings(g);
      ASSERT_TRUE(emb_b[0].same_shape(emb));
      EXPECT_TRUE(std::equal(emb.data(), emb.data() + emb.size(), emb_b[0].data()))
          << gnn::model_spec_label(spec);
    }
  }
}

TEST(BatchedInference, EmptyBatch) {
  const deepgate::Engine engine;
  EXPECT_TRUE(engine.predict_batch({}).empty());
  EXPECT_TRUE(engine.embeddings_batch({}).empty());
  deepgate::BatchRunner runner(engine);
  EXPECT_TRUE(runner.predict({}).empty());
  EXPECT_TRUE(runner.embeddings({}).empty());
}

TEST(BatchRunner, BudgetedFanOutMatchesSinglePath) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  // Small budget forces several merged batches; threads > 1 fans them out.
  deepgate::BatchOptions bopts;
  bopts.node_budget = 48;
  bopts.threads = 4;
  const deepgate::BatchRunner runner(engine, bopts);

  const auto batched = runner.predict(ptrs);
  const auto embs = runner.embeddings(ptrs);
  ASSERT_EQ(batched.size(), graphs.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    // Bit-exact even through budgeted packing + pool fan-out.
    EXPECT_EQ(batched[i], engine.predict_probabilities(graphs[i])) << "graph " << i;
    const nn::Matrix emb = engine.embeddings(graphs[i]);
    ASSERT_TRUE(embs[i].same_shape(emb));
    EXPECT_TRUE(std::equal(emb.data(), emb.data() + emb.size(), embs[i].data()));
  }
  EXPECT_EQ(runner.stats().calls, 2u);
  EXPECT_EQ(runner.stats().graphs, 2 * graphs.size());
  EXPECT_GE(runner.stats().batches, 2u);
}

bool bit_equal_matrix(const nn::Matrix& a, const nn::Matrix& b) {
  return a.same_shape(b) && std::equal(a.data(), a.data() + a.size(), b.data());
}

// -- Fused forward outputs -----------------------------------------------------

// The tentpole contract: for every Table II family, ONE forward_outputs pass
// is bitwise identical to separate predict() + embed() calls — on each solo
// graph and on the level-merged batch of all of them.
TEST(FusedForward, BitwiseEqualsSeparatePredictAndEmbed) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const CircuitGraph merged = CircuitGraph::merge(ptrs);

  for (const ModelSpec& spec : table2_specs()) {
    const auto model = gnn::make_model(spec, tiny_config());
    nn::NoGradGuard no_grad;
    const auto check = [&](const CircuitGraph& g, const char* what) {
      const gnn::ForwardOutputs fused = model->forward_outputs(g);
      EXPECT_TRUE(bit_equal_matrix(fused.prediction.value(), model->predict(g).value()))
          << gnn::model_spec_label(spec) << " prediction " << what;
      EXPECT_TRUE(bit_equal_matrix(fused.embedding.value(), model->embed(g).value()))
          << gnn::model_spec_label(spec) << " embedding " << what;
    };
    for (std::size_t i = 0; i < graphs.size(); ++i) check(graphs[i], "solo");
    check(merged, "merged");
  }
}

// Engine::infer_batch must reproduce the predict_batch + embeddings_batch
// pair bitwise while running one merge + one forward instead of two of each.
TEST(FusedForward, InferBatchMatchesSeparateBatchCalls) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    const deepgate::Engine engine(options);

    const deepgate::BatchInference fused = engine.infer_batch(ptrs);
    const auto probs = engine.predict_batch(ptrs);
    const auto embs = engine.embeddings_batch(ptrs);
    ASSERT_EQ(fused.probabilities.size(), graphs.size());
    ASSERT_EQ(fused.embeddings.size(), graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_EQ(fused.probabilities[i], probs[i]) << gnn::model_spec_label(spec) << " graph " << i;
      EXPECT_TRUE(bit_equal_matrix(fused.embeddings[i], embs[i]))
          << gnn::model_spec_label(spec) << " graph " << i;
    }
  }

  // Degenerate requests follow the predict_batch contract.
  const deepgate::Engine engine;
  EXPECT_TRUE(engine.infer_batch({}).probabilities.empty());
  CircuitGraph empty;
  empty.finalize();
  const auto mixed = engine.infer_batch({&graphs[0], &empty});
  ASSERT_EQ(mixed.probabilities.size(), 2u);
  EXPECT_EQ(mixed.probabilities[0], engine.predict_probabilities(graphs[0]));
  EXPECT_TRUE(mixed.probabilities[1].empty());
  EXPECT_EQ(mixed.embeddings[1].rows(), 0);
  EXPECT_THROW(engine.infer_batch({nullptr}), std::invalid_argument);
}

// BatchRunner::infer: fused through budgeted packing + pool fan-out, and
// repeated identical requests hit the runner-owned merge cache.
TEST(BatchRunner, FusedInferMatchesSeparateAndHitsMergeCache) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  deepgate::BatchOptions bopts;
  // Large enough to form multi-member merge groups (solo batches bypass the
  // cache), small enough to keep several batches for the pool to claim.
  bopts.node_budget = 2048;
  bopts.threads = 4;
  const deepgate::BatchRunner runner(engine, bopts);

  const deepgate::BatchInference fused = runner.infer(ptrs);
  const auto probs = runner.predict(ptrs);
  const auto embs = runner.embeddings(ptrs);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(fused.probabilities[i], probs[i]) << "graph " << i;
    EXPECT_TRUE(bit_equal_matrix(fused.embeddings[i], embs[i])) << "graph " << i;
    EXPECT_EQ(fused.probabilities[i], engine.predict_probabilities(graphs[i]));
  }
  // Three calls over the same request list: the first pays every merge, the
  // later ones hit the signature cache (multi-member groups only).
  EXPECT_GE(runner.merge_cache_stats().hits, 1u);
  const auto again = runner.infer(ptrs);
  for (std::size_t i = 0; i < graphs.size(); ++i)
    EXPECT_EQ(again.probabilities[i], fused.probabilities[i]);
}

// -- Checkpoint round trip ------------------------------------------------------

// save -> perturb every parameter -> load must restore predict AND the fused
// forward_outputs bit-exactly, for every family, solo and merged.
TEST(EngineCheckpoint, SavePerturbLoadRestoresBitExactOutputs) {
  const auto graphs = mixed_graphs();
  std::vector<const CircuitGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);

  for (const ModelSpec& spec : table2_specs()) {
    deepgate::Options options;
    options.spec = spec;
    options.model = tiny_config();
    deepgate::Engine engine(options);

    const auto ref_solo = engine.predict_probabilities(graphs[0]);
    const deepgate::BatchInference ref = engine.infer_batch(ptrs);

    const std::string path =
        (std::filesystem::temp_directory_path() / "dg_fused_ckpt.dgtp").string();
    ASSERT_TRUE(engine.save(path)) << gnn::model_spec_label(spec);

    // Perturb every parameter in place; predictions must visibly change so
    // the reload below proves restoration rather than a no-op.
    for (auto& [name, tensor] : engine.model().named_params()) {
      nn::Matrix& value = tensor.mutable_value();
      for (std::size_t k = 0; k < value.size(); ++k) value.data()[k] += 0.25F;
    }
    EXPECT_NE(engine.predict_probabilities(graphs[0]), ref_solo)
        << gnn::model_spec_label(spec) << " (perturbation had no effect)";

    ASSERT_TRUE(engine.load(path)) << gnn::model_spec_label(spec);
    std::remove(path.c_str());

    EXPECT_EQ(engine.predict_probabilities(graphs[0]), ref_solo) << gnn::model_spec_label(spec);
    const deepgate::BatchInference reloaded = engine.infer_batch(ptrs);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_EQ(reloaded.probabilities[i], ref.probabilities[i])
          << gnn::model_spec_label(spec) << " graph " << i;
      EXPECT_TRUE(bit_equal_matrix(reloaded.embeddings[i], ref.embeddings[i]))
          << gnn::model_spec_label(spec) << " graph " << i;
    }
  }
}

TEST(BatchedEvaluate, MatchesPerGraphFallbackAndIsDeterministic) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  gnn::EvalOptions batched;
  batched.node_budget = 48;
  gnn::EvalOptions fallback;
  fallback.node_budget = 0;  // pre-batching path, still pooled
  gnn::EvalOptions serial = fallback;
  serial.threads = 1;

  const double e_batched = gnn::evaluate(engine.model(), graphs, batched);
  const double e_fallback = gnn::evaluate(engine.model(), graphs, fallback);
  const double e_serial = gnn::evaluate(engine.model(), graphs, serial);
  // Merged forwards are bit-exact and the reduction order is fixed, so all
  // three agree exactly.
  EXPECT_EQ(e_batched, e_fallback);
  EXPECT_EQ(e_fallback, e_serial);
  EXPECT_EQ(engine.evaluate(graphs), e_serial);
}

// Repeated offline eval of a fixed test set re-forms identical merge groups
// every pass: with a caller-attached MergeCache the second pass hits the
// signature cache instead of re-paying merge+finalize, and the Eq. (8)
// number is unchanged. Engine::evaluate wires its own cache the same way.
TEST(BatchedEvaluate, MergeCacheReusedAcrossRepeatedEvaluate) {
  const auto graphs = mixed_graphs();
  deepgate::Options options;
  options.model = tiny_config();
  const deepgate::Engine engine(options);

  gnn::MergeCache cache(8);
  gnn::EvalOptions opts;
  opts.node_budget = 2048;  // multi-member groups (solo batches bypass the cache)
  opts.merge_cache = &cache;

  const double uncached = gnn::evaluate(engine.model(), graphs, gnn::EvalOptions{});
  const double first = gnn::evaluate(engine.model(), graphs, opts);
  const auto after_first = cache.stats();
  EXPECT_GE(after_first.misses, 1u);
  const double second = gnn::evaluate(engine.model(), graphs, opts);
  const auto after_second = cache.stats();
  EXPECT_GE(after_second.hits, 1u);
  EXPECT_EQ(after_second.misses, after_first.misses);  // nothing re-merged
  EXPECT_EQ(first, second);
  // Budgets differ between opts and the default, but the result is the same
  // batched-bit-exact Eq. (8) number either way.
  EXPECT_EQ(first, uncached);

  // The engine-owned cache behind Engine::evaluate: first call merges,
  // repeats hit.
  const double e1 = engine.evaluate(graphs);
  const auto engine_first = engine.eval_merge_cache_stats();
  const double e2 = engine.evaluate(graphs);
  const auto engine_second = engine.eval_merge_cache_stats();
  EXPECT_EQ(e1, e2);
  EXPECT_GT(engine_second.hits, engine_first.hits);
  EXPECT_EQ(engine_second.misses, engine_first.misses);

  // clear() releases the retained super-graphs; the next eval re-merges
  // (a fresh miss) and still reports the identical number.
  EXPECT_GE(engine_second.entries, 1u);
  engine.clear_eval_cache();
  EXPECT_EQ(engine.eval_merge_cache_stats().entries, 0u);
  EXPECT_EQ(engine.evaluate(graphs), e1);
  EXPECT_GT(engine.eval_merge_cache_stats().misses, engine_second.misses);
}

TEST(EffectiveIterations, RecurrentHonorsOverrideStackedLogsOnce) {
  deepgate::Options rec;
  rec.model = tiny_config();
  const deepgate::Engine recurrent(rec);
  EXPECT_EQ(recurrent.effective_iterations(7), 7);
  EXPECT_EQ(recurrent.effective_iterations(0), tiny_config().iterations);

  deepgate::Options stacked;
  stacked.spec = {ModelFamily::kGcn, AggKind::kConvSum, false};
  stacked.model = tiny_config();
  const deepgate::Engine gcn(stacked);
  EXPECT_EQ(gcn.effective_iterations(7), tiny_config().iterations);

  // The override is ignored numerically, too: T=7 equals the default run.
  const auto graphs = mixed_graphs();
  EXPECT_EQ(gcn.evaluate(graphs, 7), gcn.evaluate(graphs));
}

}  // namespace
}  // namespace dg
