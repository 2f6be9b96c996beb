// Pins the signal-probability estimators to fixed hashes of their output.
// Ones-counts are integers and the Monte-Carlo pattern words come from one
// sequential Rng stream, so every estimate is a fixed set of doubles: the
// same at every SIMD level and every thread count, and unchanged by any
// rewrite of the simulator's driver. Each hash is FNV-1a over the raw bytes
// of the returned vector (the dataset hash over every graph's float labels).
#include "aig/gate_graph.hpp"
#include "data/dataset.hpp"
#include "data/generators_large.hpp"
#include "data/generators_small.hpp"
#include "nn/simd/dispatch.hpp"
#include "sim/probability.hpp"
#include "synth/optimize.hpp"
#include "synth/sweep.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace dg::sim {
namespace {

using nn::kern::SimdLevel;

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
std::uint64_t hash_of(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}

/// The prepare() path: optimize, drop constant outputs, expand to gates.
aig::Aig optimized(const aig::Aig& raw) {
  aig::Aig a = synth::optimize(raw);
  if (a.uses_constants()) a = synth::drop_constant_outputs(a);
  return a;
}

struct Circuit {
  std::string name;
  aig::Aig aig;
  aig::GateGraph graph;
};

std::vector<Circuit> circuits() {
  std::vector<Circuit> out;
  // 5 inputs (a partial exhaustive lane mask), 12 and 11 inputs.
  for (auto& [name, raw] : std::vector<std::pair<std::string, aig::Aig>>{
           {"squarer", data::gen_squarer(5)},
           {"multiplier", data::gen_multiplier(6)},
           {"arbiter", data::gen_arbiter(8, 3)}}) {
    aig::Aig a = optimized(raw);
    aig::GateGraph g = aig::to_gate_graph(a);
    out.push_back({name, std::move(a), std::move(g)});
  }
  return out;
}

constexpr std::size_t kPatterns[] = {1, 63, 64, 65, 1000, 100000};

/// Every pinned estimate, in a fixed order.
std::vector<std::uint64_t> all_hashes() {
  std::vector<std::uint64_t> h;
  for (const Circuit& c : circuits()) {
    for (std::size_t n : kPatterns) h.push_back(hash_of(gate_graph_probabilities(c.graph, n, 11)));
    h.push_back(hash_of(exact_gate_graph_probabilities(c.graph)));
    h.push_back(hash_of(exact_aig_probabilities(c.aig)));
    h.push_back(hash_of(aig_probabilities(c.aig, 1000, 12)));
  }
  util::Rng rng(21);
  h.push_back(hash_of(netlist_probabilities(data::gen_iwls_like(rng), 1000, 13)));

  data::DatasetConfig cfg = data::default_dataset_config(util::BenchScale::kTiny, 5);
  cfg.sim_patterns = 4000;
  const data::Dataset ds = data::build_dataset(cfg, data::BuildOptions{});
  std::uint64_t labels = 1469598103934665603ULL;
  for (const auto& g : ds.graphs)
    labels = fnv1a(g.labels.data(), g.labels.size() * sizeof(float), labels);
  h.push_back(labels);
  return h;
}

// Recorded from the per-block simulator the tiled driver replaced.
const std::vector<std::uint64_t> kPinned = {
    // squarer: gate graph at each kPatterns, exact graph, exact aig, aig MC
    121514603065689946ULL, 15784540529625206323ULL, 6226762510757313501ULL,
    16807488589122663434ULL, 8586324160309263130ULL, 10809506054543680298ULL,
    736384397437154653ULL, 3012016699976134056ULL, 7780135287128548880ULL,
    // multiplier: gate graph at each kPatterns, exact graph, exact aig, aig MC
    2450280049254924899ULL, 14941631679384671466ULL, 17504376374754265437ULL,
    10189570636133262742ULL, 16077415966949705759ULL, 6244980145783393471ULL,
    6243725532910409405ULL, 2977433316000805767ULL, 8143695074566466315ULL,
    // arbiter: gate graph at each kPatterns, exact graph, exact aig, aig MC
    2376923097605966947ULL, 4490081539298804855ULL, 12541366135915522961ULL,
    13144458601385065349ULL, 17105420597267513697ULL, 7980168045239692300ULL,
    1165191098920585421ULL, 14106699268841794774ULL, 888007298118939905ULL,
    // netlist MC, tiny dataset labels
    17065839154314264869ULL, 16844065396154808802ULL,
};

struct Restore {
  SimdLevel level = nn::kern::simd::active();
  ~Restore() {
    nn::kern::simd::set_level(level);
    util::set_global_threads(util::default_num_threads());
  }
};

TEST(SimPinned, HashesAtEverySimdLevelAndPoolSize) {
  Restore restore;
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kGeneric, SimdLevel::kAvx2}) {
    if (!nn::kern::simd::available(level)) continue;
    nn::kern::simd::set_level(level);
    for (int threads : {1, 2, 3}) {
      util::set_global_threads(threads);
      EXPECT_EQ(all_hashes(), kPinned)
          << nn::kern::simd::level_name(level) << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace dg::sim
