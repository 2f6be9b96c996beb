// eval_offline: back-to-back Engine::evaluate passes over a fixed test set
// of Table I-class circuits — the epoch-loop / sweep pattern. The only
// workload that runs CircuitGraph::merge, the evaluate() MergeCache, masked
// merged levels and the pool fan-out.
#include "common.hpp"

#include "data/dataset.hpp"
#include "nn/arena.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <cstring>

namespace pb {

namespace {

/// Ops per --second: a little under the 5.1–6.1 evaluate() passes/s
/// measured on a shared 4-vCPU Xeon VM at two threads.
constexpr double kRate = 5.0;
/// The test set is the small-scale Table I mix built from this fixed seed
/// (the checkpoint trained on seed 1), so every workload seed evaluates the
/// same circuits; the workload seed only permutes their order.
constexpr std::uint64_t kTestSetSeed = 2;

struct EvalState {
  std::unique_ptr<deepgate::Engine> engine;
  std::vector<deepgate::CircuitGraph> test_set;
  double reference_error = 0.0;
};

std::unique_ptr<EvalState> make_state(const Args& args) {
  auto st = std::make_unique<EvalState>();
  st->engine = load_engine(args.checkpoint);
  dg::data::BuildOptions build;  // no shard cache: set-up always builds
  dg::data::Dataset ds = dg::data::build_dataset(
      dg::data::default_dataset_config(dg::util::BenchScale::kSmall, kTestSetSeed), build);
  dg::util::Rng rng(args.seed ^ 0xe7a1ULL);
  for (std::size_t k = ds.graphs.size(); k > 1; --k)
    std::swap(ds.graphs[k - 1], ds.graphs[rng.next_below(k)]);
  st->test_set = std::move(ds.graphs);
  // Warm-up pass: fills the merge cache, as an epoch loop's first eval does.
  st->reference_error = st->engine->evaluate(st->test_set);
  return st;
}

struct Layer {
  std::uint64_t cache_hits = 0, cache_misses = 0;
  double pool_busy_s = 0.0;
  std::size_t heap_allocs = 0;
};

std::uint64_t pool_busy_ns() {
  std::uint64_t ns = 0;
  for (const auto& lane : dg::util::global_pool().lane_stats()) ns += lane.busy_ns;
  return ns;
}

/// One pass of `ops` evaluate() calls; the layer counters cover the whole
/// pass (traced passes are never re-run, so they count each op once).
Pass run_pass(EvalState& st, long long ops, double retry_budget_s, Result& r, Layer& layer) {
  const dg::gnn::MergeCacheStats cache0 = st.engine->eval_merge_cache_stats();
  const std::uint64_t busy0 = pool_busy_ns();
  const std::size_t allocs0 = dg::nn::arena_stats().heap_allocs;
  Pass pass = run_blocks(ops, retry_budget_s, [&](std::size_t lo, std::size_t hi, bool first, Block& b) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t id = dg::obs::next_trace_id();
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      const double err = st.engine->evaluate(st.test_set);
      const Clock::time_point t1 = Clock::now();
      b.cpu_s += process_cpu_seconds() - cpu0;
      b.wall_s += seconds_between(t0, t1);
      ++b.attempted;
      if (r.check(std::memcmp(&err, &st.reference_error, sizeof(double)) == 0,
                  "eval_offline: evaluate() error differs between passes")) {
        ++b.completed;
        ++b.good;
        b.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
      } else if (first) {
        ++r.failed;
      }
      span("core.evaluate", t0, t1, id);
      span("op", t0, Clock::now(), id);
    }
  });
  const dg::gnn::MergeCacheStats cache1 = st.engine->eval_merge_cache_stats();
  layer.cache_hits = cache1.hits - cache0.hits;
  layer.cache_misses = cache1.misses - cache0.misses;
  layer.pool_busy_s = static_cast<double>(pool_busy_ns() - busy0) * 1e-9;
  layer.heap_allocs = dg::nn::arena_stats().heap_allocs - allocs0;
  return pass;
}

}  // namespace

void run_eval_offline(const Args& args, Result& r) {
  double setup_s = 0.0;
  std::unique_ptr<EvalState> st = timed_setup(args, r, setup_s, [&] { return make_state(args); });
  if (!st) return;
  const long long ops = args.op_count(kRate);
  std::size_t nodes = 0;
  for (const auto& g : st->test_set) nodes += static_cast<std::size_t>(g.num_nodes);
  r.note("test_circuits", static_cast<double>(st->test_set.size()));
  r.note("test_nodes", static_cast<double>(nodes));

  Layer layer;
  const Pass pass = run_pass(*st, ops, args.retry_budget_s(), r, layer);
  r.attempted += pass.attempted;
  if (!args.trace) {
    emit_end_to_end(r, setup_s, pass, st->reference_error);
    return;
  }

  Layer tl;
  dg::obs::trace_set_enabled(true);
  const Pass traced = run_pass(*st, ops, 0.0, r, tl);
  dg::obs::trace_set_enabled(false);
  r.attempted += traced.attempted;
  const double lookups = static_cast<double>(tl.cache_hits + tl.cache_misses);
  const double done = static_cast<double>(std::max<long long>(1, traced.completed));
  r.set("gnn.merge_cache.hit_frac", lookups > 0.0 ? static_cast<double>(tl.cache_hits) / lookups : 0.0,
        "frac");
  r.set("gnn.merge_groups_per_op", lookups / done, "count");
  r.set("util.pool.utilization",
        traced.wall_s > 0.0 ? tl.pool_busy_s / (traced.wall_s * kComputeThreads) : 0.0, "frac");
  r.set("nn.arena.heap_allocs_per_op", static_cast<double>(tl.heap_allocs) / done, "count");
  emit_common_layers(r, pass, traced);
  export_trace(args, self_times_ms_per_op(traced.attempted));
}

}  // namespace pb
