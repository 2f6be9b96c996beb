#include "nn/serialize.hpp"

#include "gnn/circuit_graph.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

namespace dg::nn {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, RoundTripExactValues) {
  util::Rng rng(1);
  Linear lin(4, 3, rng);
  NamedParams params;
  lin.collect(params, "lin");
  const std::string path = temp_path("dg_roundtrip.dgtp");
  ASSERT_TRUE(save_params(path, params));

  // Perturb, then load back — values must be bit-exact.
  const Matrix original = params[0].second.value();
  params[0].second.mutable_value().fill(0.0F);
  ASSERT_TRUE(load_params(path, params));
  const Matrix& restored = params[0].second.value();
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(original.data()[i], restored.data()[i]);
  std::remove(path.c_str());
}

TEST(Serialize, GruFullStateRoundTrip) {
  util::Rng rng(2);
  GruCell gru(5, 7, rng);
  NamedParams params;
  gru.collect(params, "gru");
  const std::string path = temp_path("dg_gru.dgtp");
  ASSERT_TRUE(save_params(path, params));
  util::Rng rng2(99);
  GruCell gru2(5, 7, rng2);
  NamedParams params2;
  gru2.collect(params2, "gru");
  ASSERT_TRUE(load_params(path, params2));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Matrix& a = params[i].second.value();
    const Matrix& b = params2[i].second.value();
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a.data()[k], b.data()[k]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, MissingNameFails) {
  util::Rng rng(3);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "a");
  const std::string path = temp_path("dg_missing.dgtp");
  ASSERT_TRUE(save_params(path, params));

  Linear other(2, 2, rng);
  NamedParams renamed;
  other.collect(renamed, "b");  // names differ
  EXPECT_FALSE(load_params(path, renamed));
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchFails) {
  util::Rng rng(4);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  const std::string path = temp_path("dg_shape.dgtp");
  ASSERT_TRUE(save_params(path, params));

  Linear bigger(3, 3, rng);
  NamedParams params2;
  bigger.collect(params2, "lin");
  EXPECT_FALSE(load_params(path, params2));
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbageFile) {
  const std::string path = temp_path("dg_garbage.dgtp");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  util::Rng rng(5);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  EXPECT_FALSE(load_params(path, params));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileFails) {
  util::Rng rng(6);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  EXPECT_FALSE(load_params("/nonexistent/path/x.dgtp", params));
}

/// A version-1 checkpoint holding one parameter "w" whose header declares
/// rows x cols but whose payload carries only `payload_floats` floats.
std::string write_header_only(const char* file, std::int32_t rows, std::int32_t cols,
                              std::size_t payload_floats) {
  const std::string path = temp_path(file);
  std::ofstream out(path, std::ios::binary);
  const auto put = [&](auto v) { out.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
  out.write("DGTP", 4);
  put(std::uint32_t{1});  // version
  put(std::uint32_t{1});  // parameter count
  put(std::uint32_t{1});  // name length
  out.write("w", 1);
  put(rows);
  put(cols);
  const std::vector<float> payload(payload_floats, 0.5F);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size() * sizeof(float)));
  return path;
}

NamedParams one_param(int rows, int cols) {
  return {{"w", Tensor::leaf(Matrix(rows, cols), true)}};
}

// 25 bytes declaring 70000 x 70000 floats: without the bound the reader
// asked for 19.6 GB before noticing the payload is missing.
TEST(Serialize, HugeHeaderFailsWithoutAllocating) {
  const std::string path = write_header_only("dg_huge.dgtp", 70000, 70000, 0);
  EXPECT_EQ(std::filesystem::file_size(path), 25U);
  NamedParams params = one_param(2, 2);
  EXPECT_FALSE(load_params(path, params));
  std::remove(path.c_str());
}

// 65536 x 65537 overflows int32 (and wraps to 65536 in uint32); the file
// carries exactly the wrapped byte count, so only 64-bit arithmetic rejects it.
TEST(Serialize, Int32ProductOverflowFails) {
  const std::string path = write_header_only("dg_overflow.dgtp", 65536, 65537, 65536);
  NamedParams params = one_param(2, 2);
  EXPECT_FALSE(load_params(path, params));
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedPayloadFails) {
  const std::string path = write_header_only("dg_truncated.dgtp", 2, 3, 5);
  NamedParams params = one_param(2, 3);
  EXPECT_FALSE(load_params(path, params));
  std::remove(path.c_str());
  // The same header with its full payload loads.
  const std::string whole = write_header_only("dg_whole.dgtp", 2, 3, 6);
  EXPECT_TRUE(load_params(whole, params));
  EXPECT_EQ(params[0].second.value().at(1, 2), 0.5F);
  std::remove(whole.c_str());
}

/// Defining fields of a 4-node graph: PIs 0 and 1 on level 0, gates 2 and 3
/// on level 1, plus `extra` edges. Not finalized: only serialize() reads it.
gnn::CircuitGraph four_node_graph(std::vector<std::pair<int, int>> extra) {
  gnn::CircuitGraph g;
  g.num_nodes = 4;
  g.num_types = 3;
  g.type_id = {0, 0, 1, 1};
  g.level = {0, 0, 1, 1};
  g.edges = {{0, 2}, {1, 3}};
  g.edges.insert(g.edges.end(), extra.begin(), extra.end());
  g.labels.assign(4, 0.5F);
  return g;
}

bool parses(const gnn::CircuitGraph& g) {
  std::vector<std::uint8_t> bytes;
  g.serialize(bytes);
  gnn::CircuitGraph out;
  std::size_t offset = 0;
  return gnn::CircuitGraph::deserialize(bytes.data(), bytes.size(), offset, out);
}

// A graph whose edges do not all run upward in level has no level-sweep
// forward: a same-level 2 <-> 3 cycle, a same-level edge and a downward
// edge must all be rejected, as must a same-level skip edge.
TEST(SerializeGraph, RejectsEdgesNotStrictlyUpward) {
  EXPECT_TRUE(parses(four_node_graph({})));
  EXPECT_FALSE(parses(four_node_graph({{2, 3}, {3, 2}})));
  EXPECT_FALSE(parses(four_node_graph({{2, 3}})));
  EXPECT_FALSE(parses(four_node_graph({{3, 0}})));

  gnn::CircuitGraph skip = four_node_graph({});
  skip.skip_edges.push_back({2, 3, 0});
  EXPECT_FALSE(parses(skip));
  skip.skip_edges.back() = {0, 3, 1};
  EXPECT_TRUE(parses(skip));
}

}  // namespace
}  // namespace dg::nn
