// Mutation-fuzzed equality oracle for incremental inference: a random edit
// stream drives an IncrementalSession and, after every applied edit, the
// session's incremental outputs must be BITWISE identical to rebuilding the
// graph from its defining fields and running the plain forward — for all
// four model families, with the no-grad arena both on and off. Plus the
// structural guarantees behind the memo: embed-then-predict on an unchanged
// session performs exactly one level-loop forward, memo hits and misses are
// counted for every family, and an over-budget memo degrades to full
// forwards that still cache their outputs.
#include "core/incremental_session.hpp"

#include "gnn/incremental.hpp"
#include "nn/arena.hpp"
#include "obs/metrics.hpp"
#include "synth/mutate.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

namespace {

using dg::gnn::CircuitGraph;

/// Random typed DAG with skip edges (same shape family as the graph-layer
/// delta tests, independent of the AIG pipeline).
CircuitGraph random_graph(int n, std::uint64_t seed) {
  dg::util::Rng rng(seed);
  CircuitGraph g;
  g.num_nodes = n;
  g.num_types = 3;
  g.type_id.resize(static_cast<std::size_t>(n));
  g.level.resize(static_cast<std::size_t>(n));
  g.labels.assign(static_cast<std::size_t>(n), 0.5F);
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (v < 3 || rng.next_bool(0.2)) {
      g.type_id[vi] = 0;
      g.level[vi] = 0;
      continue;
    }
    const int arity = 1 + static_cast<int>(rng.next_below(2));
    g.type_id[vi] = arity == 1 ? 2 : 1;
    int max_level = -1;
    for (int k = 0; k < arity; ++k) {
      const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
      g.edges.emplace_back(src, v);
      max_level = std::max(max_level, g.level[static_cast<std::size_t>(src)]);
    }
    g.level[vi] = max_level + 1;
  }
  for (int v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (g.level[vi] < 2 || !rng.next_bool(0.25)) continue;
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(v)));
    const int diff = g.level[vi] - g.level[static_cast<std::size_t>(src)];
    if (diff >= 2) g.skip_edges.push_back({src, v, diff});
  }
  g.finalize();
  return g;
}

/// From-scratch oracle: rebuild every derived structure from the mutated
/// graph's defining fields, so the reference forward shares nothing with the
/// delta-maintained layout.
CircuitGraph rebuild(const CircuitGraph& g) {
  CircuitGraph fresh;
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

void expect_bitwise(const std::vector<float>& got, const std::vector<float>& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0) << what;
  }
}

void expect_bitwise(const dg::nn::Matrix& got, const dg::nn::Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (got.size() != 0) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0) << what;
  }
}

deepgate::Options small_options(dg::gnn::ModelFamily family) {
  deepgate::Options o;
  o.model.dim = 8;
  o.model.iterations = 2;
  o.model.mlp_hidden = 8;
  o.spec.family = family;
  o.spec.agg = dg::gnn::AggKind::kAttention;
  o.spec.use_skip = family == dg::gnn::ModelFamily::kDeepGate;
  return o;
}

/// One fuzzed session: stream random edits, query after every applied edit,
/// compare bitwise against the rebuilt-from-scratch forward.
void fuzz_family(dg::gnn::ModelFamily family, bool arena_on, std::uint64_t seed) {
  SCOPED_TRACE(std::string(dg::gnn::model_family_name(family)) +
               (arena_on ? " arena=on" : " arena=off"));
  const bool arena_before = dg::nn::arena_enabled();
  dg::nn::arena_set_enabled(arena_on);

  const deepgate::Engine engine(small_options(family));
  deepgate::IncrementalSession session(engine, random_graph(30, seed));
  dg::util::Rng rng(seed * 77 + 1);

  int applied = 0;
  for (int step = 0; step < 40 && applied < 16; ++step) {
    const CircuitGraph& g = session.graph();
    dg::synth::MutationContext ctx;
    ctx.num_nodes = g.num_nodes;
    ctx.num_types = g.num_types;
    ctx.type_id = g.type_id;
    ctx.level = g.level;
    ctx.fanout_count = g.fanout_counts();
    const dg::synth::Mutation m = dg::synth::random_mutation(ctx, rng);
    try {
      switch (m.kind) {
        case dg::synth::Mutation::Kind::kInsert:
          session.insert_node(m.type_id, m.fanins);
          break;
        case dg::synth::Mutation::Kind::kDelete:
          session.delete_node(m.node);
          break;
        case dg::synth::Mutation::Kind::kRewire:
          session.rewire_node(m.node, m.fanins);
          break;
      }
      ++applied;
    } catch (const std::invalid_argument&) {
      continue;  // cycle-creating rewire: skipped step
    }

    const CircuitGraph fresh = rebuild(session.graph());
    expect_bitwise(engine.predict_incremental(session), engine.predict_probabilities(fresh),
                   "prediction");
    // Unchanged since the predict: must replay the memo, and still match.
    expect_bitwise(engine.embeddings_incremental(session), engine.embeddings(fresh),
                   "embedding");
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence after applied edit " << applied;
      break;
    }
  }
  EXPECT_GE(applied, 10);
  dg::nn::arena_set_enabled(arena_before);
}

class IncrementalFuzz : public ::testing::TestWithParam<bool> {};

TEST_P(IncrementalFuzz, DeepGateMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDeepGate, GetParam(), 21);
}
TEST_P(IncrementalFuzz, DagRecMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDagRec, GetParam(), 22);
}
TEST_P(IncrementalFuzz, DagConvMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kDagConv, GetParam(), 23);
}
TEST_P(IncrementalFuzz, GcnMatchesFromScratch) {
  fuzz_family(dg::gnn::ModelFamily::kGcn, GetParam(), 24);
}

INSTANTIATE_TEST_SUITE_P(ArenaOnOff, IncrementalFuzz, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ArenaOn" : "ArenaOff";
                         });

// The memo driver counts every query that reaches a memo: a replayed
// generation is a hit, anything that propagates is a miss — for the GCN
// family as much as for the layered ones.
TEST(IncrementalMemo, CountsHitsAndMisses) {
  const bool metrics_before = dg::obs::metrics_enabled();
  dg::obs::metrics_set_enabled(true);
  const dg::obs::Counter& hits = dg::obs::counter("gnn.memo.hits");
  const dg::obs::Counter& misses = dg::obs::counter("gnn.memo.misses");
  for (const auto family : {dg::gnn::ModelFamily::kGcn, dg::gnn::ModelFamily::kDeepGate}) {
    SCOPED_TRACE(dg::gnn::model_family_name(family));
    const deepgate::Engine engine(small_options(family));
    deepgate::IncrementalSession session(engine, random_graph(25, 6));

    const std::uint64_t h0 = hits.value();
    const std::uint64_t m0 = misses.value();
    engine.predict_incremental(session);     // first query: full forward
    engine.embeddings_incremental(session);  // unchanged: replay
    session.insert_node(1, {0, 1});
    engine.predict_incremental(session);  // edited: partial
    EXPECT_EQ(hits.value(), h0 + 1);
    EXPECT_EQ(misses.value(), m0 + 2);
  }
  dg::obs::metrics_set_enabled(metrics_before);
}

// DEEPGATE_INCREMENTAL_MEMO_MB=0: no graph fits the checkpoint budget, so an
// edit always costs a full forward, never the partial path — but outputs
// are still cached, so an unchanged re-query replays them.
TEST(IncrementalMemo, OverCapRunsFullForwardsAndStillReplays) {
  struct CapGuard {
    CapGuard() { ::setenv("DEEPGATE_INCREMENTAL_MEMO_MB", "0", 1); }
    ~CapGuard() { ::unsetenv("DEEPGATE_INCREMENTAL_MEMO_MB"); }
  } guard;

  for (const auto family : {dg::gnn::ModelFamily::kDagRec, dg::gnn::ModelFamily::kGcn}) {
    SCOPED_TRACE(dg::gnn::model_family_name(family));
    const deepgate::Engine engine(small_options(family));
    deepgate::IncrementalSession session(engine, random_graph(25, 8));
    engine.predict_incremental(session);

    for (int edit = 0; edit < 3; ++edit) {
      session.insert_node(1, {edit, edit + 1});
      const auto c0 = dg::gnn::forward_counters();
      const std::vector<float> probs = engine.predict_incremental(session);
      const auto c1 = dg::gnn::forward_counters();
      EXPECT_EQ(c1.full, c0.full + 1);
      EXPECT_EQ(c1.partial, c0.partial);
      EXPECT_FALSE(session.last_stats().partial);
      EXPECT_FALSE(session.last_stats().memo_hit);

      const dg::nn::Matrix emb = engine.embeddings_incremental(session);
      const auto c2 = dg::gnn::forward_counters();
      EXPECT_EQ(c2.full, c1.full);
      EXPECT_EQ(c2.partial, c1.partial);
      EXPECT_TRUE(session.last_stats().memo_hit);

      const CircuitGraph fresh = rebuild(session.graph());
      expect_bitwise(probs, engine.predict_probabilities(fresh), "over-cap prediction");
      expect_bitwise(emb, engine.embeddings(fresh), "over-cap embedding");
    }
  }
}

// The PR 5 residual, closed: embed-then-predict on an unchanged session runs
// exactly ONE level-loop propagation (the embed's), the predict replays the
// memo. Asserted structurally via the process-wide forward counters.
TEST(IncrementalForwardCount, EmbedThenPredictUnchangedIsOneForward) {
  const deepgate::Engine engine(small_options(dg::gnn::ModelFamily::kDeepGate));
  deepgate::IncrementalSession session(engine, random_graph(30, 9));

  const auto c0 = dg::gnn::forward_counters();
  const dg::nn::Matrix emb = engine.embeddings_incremental(session);
  const auto c1 = dg::gnn::forward_counters();
  EXPECT_EQ(c1.full, c0.full + 1);
  EXPECT_EQ(c1.partial, c0.partial);

  const std::vector<float> probs = engine.predict_incremental(session);
  const auto c2 = dg::gnn::forward_counters();
  EXPECT_EQ(c2.full, c1.full);  // memo hit: zero propagation
  EXPECT_EQ(c2.partial, c1.partial);
  EXPECT_TRUE(session.last_stats().memo_hit);
  EXPECT_EQ(static_cast<int>(probs.size()), session.graph().num_nodes);
  EXPECT_EQ(emb.rows(), session.graph().num_nodes);

  // An edit flips the next query to the cone-limited partial path.
  session.insert_node(1, {0, 1});
  engine.predict_incremental(session);
  const auto c3 = dg::gnn::forward_counters();
  EXPECT_EQ(c3.full, c2.full);
  EXPECT_EQ(c3.partial, c2.partial + 1);
  EXPECT_TRUE(session.last_stats().partial);
  EXPECT_GT(session.last_stats().dirty_nodes, 0);
  EXPECT_LT(session.last_stats().dirty_nodes, session.graph().num_nodes);
}

TEST(IncrementalSession, RejectsForeignAndDegenerateGraphs) {
  const deepgate::Engine a(small_options(dg::gnn::ModelFamily::kDeepGate));
  const deepgate::Engine b(small_options(dg::gnn::ModelFamily::kDeepGate));
  EXPECT_THROW(deepgate::IncrementalSession(a, CircuitGraph{}), std::invalid_argument);

  const CircuitGraph g1 = random_graph(10, 3);
  const CircuitGraph g2 = random_graph(10, 4);
  EXPECT_THROW(deepgate::IncrementalSession(a, CircuitGraph::merge({&g1, &g2})),
               std::invalid_argument);

  deepgate::IncrementalSession session(a, random_graph(10, 3));
  EXPECT_THROW(b.predict_incremental(session), std::invalid_argument);
  EXPECT_THROW(b.embeddings_incremental(session), std::invalid_argument);
}

}  // namespace
