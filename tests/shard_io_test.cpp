#include "data/shard_io.hpp"

#include "aig/aig.hpp"
#include "aig/gate_graph.hpp"
#include "sim/probability.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace dg::data {
namespace {

namespace fs = std::filesystem;

fs::path temp_dir() {
  const fs::path dir =
      fs::temp_directory_path() / ("dg_shard_io_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Hand-built graph with every serialized feature populated: three node
/// types, a skip edge (so the positional-encoding matrices are non-zero),
/// and non-trivial labels. Field values are frozen — the golden file guards
/// the byte format against accidental changes.
gnn::CircuitGraph golden_graph_a() {
  gnn::CircuitGraph g;
  g.num_nodes = 5;
  g.num_types = 3;
  g.type_id = {0, 0, 1, 2, 1};  // PI PI AND NOT AND
  g.level = {0, 0, 1, 2, 3};
  g.edges = {{0, 2}, {1, 2}, {2, 3}, {0, 4}, {3, 4}};
  g.skip_edges = {{0, 4, 3}};
  g.labels = {0.5F, 0.5F, 0.25F, 0.75F, 0.375F};
  g.finalize(4);
  return g;
}

/// Second record with a different type count and pe_L, exercising per-record
/// parameter variation within one shard.
gnn::CircuitGraph golden_graph_b() {
  gnn::CircuitGraph g;
  g.num_nodes = 4;
  g.num_types = 9;
  g.type_id = {0, 0, 3, 5};
  g.level = {0, 0, 1, 2};
  g.edges = {{0, 2}, {1, 2}, {2, 3}};
  g.labels = {0.5F, 0.5F, 0.125F, 0.875F};
  g.finalize(8);
  return g;
}

std::vector<ShardRecord> golden_records() {
  std::vector<ShardRecord> records;
  records.push_back({golden_graph_a(), {"EPFL", 5, 3}});
  records.push_back({golden_graph_b(), {"ITC99", 4, 2}});
  return records;
}

constexpr std::uint64_t kGoldenHash = 0x1234abcd5678ef00ULL;
constexpr std::uint64_t kGoldenSeed = 42;
constexpr std::uint32_t kGoldenIndex = 7;

void expect_records_equal(const std::vector<ShardRecord>& a,
                          const std::vector<ShardRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(gnn::bit_equal(a[i].graph, b[i].graph)) << "record " << i;
    EXPECT_EQ(a[i].info.family, b[i].info.family);
    EXPECT_EQ(a[i].info.nodes, b[i].info.nodes);
    EXPECT_EQ(a[i].info.levels, b[i].info.levels);
  }
}

TEST(ShardIo, RoundTripIsBitExact) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "roundtrip.dgsh").string();
  const auto records = golden_records();
  ASSERT_TRUE(write_shard(path, kGoldenHash, kGoldenSeed, kGoldenIndex, records));

  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ASSERT_EQ(ShardReader::read_all(path, header, loaded), ShardError::kNone);
  EXPECT_EQ(header.config_hash, kGoldenHash);
  EXPECT_EQ(header.seed, kGoldenSeed);
  EXPECT_EQ(header.shard_index, kGoldenIndex);
  EXPECT_EQ(header.num_records, 2U);
  expect_records_equal(records, loaded);

  // Bit-exactness of the derived structures specifically: pe_L survives, the
  // skip-edge positional encodings are byte-identical, reconvergence flags
  // (skip edges) intact.
  EXPECT_EQ(loaded[0].graph.pe_L, 4);
  EXPECT_EQ(loaded[1].graph.pe_L, 8);
  ASSERT_EQ(loaded[0].graph.skip_edges.size(), 1U);
  EXPECT_EQ(loaded[0].graph.skip_edges[0].level_diff, 3);
  fs::remove_all(dir);
}

TEST(ShardIo, RoundTripRealCircuit) {
  // A simulated AIG-derived graph (reconvergences detected, real labels)
  // survives the disk round trip bit-exactly.
  aig::Aig a;
  const auto x = aig::make_lit(a.add_input(), false);
  const auto y = aig::make_lit(a.add_input(), false);
  const auto z = aig::make_lit(a.add_input(), false);
  const auto g1 = a.add_and(x, y);
  const auto g2 = aig::lit_not(a.add_and(y, z));
  a.add_output(a.add_and(g1, g2));
  const aig::GateGraph gg = aig::to_gate_graph(a);
  const auto labels = sim::gate_graph_probabilities(gg, 4096, 11);
  const gnn::CircuitGraph cg = gnn::CircuitGraph::from_gate_graph(gg, labels, 6);

  const fs::path dir = temp_dir();
  const std::string path = (dir / "real.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 2, 0, {{cg, {"EPFL", gg.size(), gg.num_levels - 1}}}));
  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ASSERT_EQ(ShardReader::read_all(path, header, loaded), ShardError::kNone);
  ASSERT_EQ(loaded.size(), 1U);
  EXPECT_TRUE(gnn::bit_equal(cg, loaded[0].graph));
  fs::remove_all(dir);
}

TEST(ShardIo, RejectsBadMagic) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "bad_magic.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  auto bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  ShardReader reader;
  EXPECT_EQ(reader.open(path), ShardError::kBadMagic);
  fs::remove_all(dir);
}

TEST(ShardIo, RejectsWrongVersion) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "bad_version.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  auto bytes = read_file(path);
  bytes[4] = 0xFF;  // version is the u32 after the 4-byte magic
  write_file(path, bytes);
  ShardReader reader;
  EXPECT_EQ(reader.open(path), ShardError::kBadVersion);
  fs::remove_all(dir);
}

TEST(ShardIo, RejectsTruncation) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "truncated.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  const auto bytes = read_file(path);
  // Every proper prefix must be rejected at open() (checksum or size check);
  // sample a spread of truncation points to keep the test fast.
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    write_file(path, std::vector<std::uint8_t>(bytes.begin(),
                                               bytes.begin() + static_cast<long>(keep)));
    ShardReader reader;
    EXPECT_NE(reader.open(path), ShardError::kNone) << "kept " << keep << " bytes";
  }
  fs::remove_all(dir);
}

TEST(ShardIo, RejectsPayloadCorruption) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "corrupt.dgsh").string();
  ASSERT_TRUE(write_shard(path, 1, 1, 0, golden_records()));
  auto bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x5A;  // flip bits mid-payload
  write_file(path, bytes);
  ShardReader reader;
  EXPECT_EQ(reader.open(path), ShardError::kChecksum);
  fs::remove_all(dir);
}

// A record whose graph has a same-level edge cycle passes the checksum
// (the writer stored exactly those bytes) but not the graph parser: the
// reader stops at it with kCorrupt instead of handing out a graph with no
// level-sweep forward.
TEST(ShardIo, RejectsSameLevelEdgeCycle) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "cycle.dgsh").string();
  gnn::CircuitGraph g;
  g.num_nodes = 4;
  g.num_types = 3;
  g.type_id = {0, 0, 1, 1};
  g.level = {0, 0, 1, 1};
  g.edges = {{0, 2}, {1, 3}, {2, 3}, {3, 2}};
  g.labels.assign(4, 0.5F);
  std::vector<ShardRecord> records = golden_records();
  records.push_back({g, {"cycle", 4, 2}});
  ASSERT_TRUE(write_shard(path, 1, 1, 0, records));

  ShardReader reader;
  ASSERT_EQ(reader.open(path), ShardError::kNone);
  ShardRecord rec;
  EXPECT_TRUE(reader.next(rec));
  EXPECT_TRUE(reader.next(rec));
  EXPECT_FALSE(reader.next(rec));
  EXPECT_EQ(reader.error(), ShardError::kCorrupt);
  fs::remove_all(dir);
}

TEST(ShardIo, MissingFileIsIoError) {
  ShardReader reader;
  EXPECT_EQ(reader.open("/nonexistent/definitely_missing.dgsh"), ShardError::kIo);
}

TEST(ShardIo, EmptyShardRoundTrips) {
  const fs::path dir = temp_dir();
  const std::string path = (dir / "empty.dgsh").string();
  ASSERT_TRUE(write_shard(path, 3, 4, 5, {}));
  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ASSERT_EQ(ShardReader::read_all(path, header, loaded), ShardError::kNone);
  EXPECT_EQ(header.num_records, 0U);
  EXPECT_TRUE(loaded.empty());
  fs::remove_all(dir);
}

TEST(ShardIo, CacheRejectsKeyMismatch) {
  const fs::path dir = temp_dir();
  const ShardCache writer(dir.string(), /*config_hash=*/111, /*seed=*/5);
  ASSERT_TRUE(writer.store(0, golden_records()));
  std::vector<ShardRecord> out;
  EXPECT_TRUE(writer.load(0, out));

  // Same directory, different config hash: different file name, so a miss.
  const ShardCache other_cfg(dir.string(), /*config_hash=*/222, /*seed=*/5);
  EXPECT_FALSE(other_cfg.load(0, out));

  // A file renamed over another key's slot is caught by the header check.
  const ShardCache other_seed(dir.string(), /*config_hash=*/111, /*seed=*/6);
  fs::copy_file(writer.shard_path(0), other_seed.shard_path(0));
  EXPECT_FALSE(other_seed.load(0, out));
  fs::remove_all(dir);
}

// -- Golden file: guards the format across code changes ----------------------
//
// tests/data/golden_shard_v1.dgsh was written by this very writer at format
// version 1 and is checked into the repo. If either the byte layout or the
// checksum recipe changes, these tests fail — bump kShardFormatVersion and
// regenerate (run this binary with DG_REGEN_GOLDEN=1) only on purpose.

std::string golden_path() { return std::string(DG_TEST_DATA_DIR) + "/golden_shard_v1.dgsh"; }

TEST(ShardIoGolden, GoldenFileParsesToKnownContent) {
  if (std::getenv("DG_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(
        write_shard(golden_path(), kGoldenHash, kGoldenSeed, kGoldenIndex, golden_records()));
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  ShardHeader header;
  std::vector<ShardRecord> loaded;
  ASSERT_EQ(ShardReader::read_all(golden_path(), header, loaded), ShardError::kNone)
      << "golden file missing or unreadable: " << golden_path();
  EXPECT_EQ(header.config_hash, kGoldenHash);
  EXPECT_EQ(header.seed, kGoldenSeed);
  EXPECT_EQ(header.shard_index, kGoldenIndex);
  expect_records_equal(golden_records(), loaded);
}

// -- ShardStream LRU + read-ahead ---------------------------------------------

/// Three distinct single-record shards; returns their paths.
std::vector<std::string> make_shard_trio(const fs::path& dir) {
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 3; ++i) {
    gnn::CircuitGraph g = golden_graph_a();
    g.labels[0] = 0.125F * static_cast<float>(i + 1);  // tell shards apart
    g.finalize(g.pe_L);
    const fs::path path = dir / ("stream_shard_" + std::to_string(i) + ".dgsh");
    EXPECT_TRUE(write_shard(path.string(), 9, 9, i, {{g, {"EPFL", 5, 3}}}));
    paths.push_back(path.string());
  }
  return paths;
}

std::vector<std::vector<gnn::CircuitGraph>> drain_epochs(ShardStream& stream, int epochs) {
  std::vector<std::vector<gnn::CircuitGraph>> chunks;
  for (int e = 0; e < epochs; ++e) {
    if (e > 0) stream.reset();
    std::vector<gnn::CircuitGraph> chunk;
    while (stream.next(chunk)) chunks.push_back(chunk);
  }
  return chunks;
}

TEST(ShardStreamOptions, KnobsDoNotChangeTheSequence) {
  const fs::path dir = temp_dir();
  const auto paths = make_shard_trio(dir);

  ShardStream plain(paths);
  const auto baseline = drain_epochs(plain, 2);
  ASSERT_EQ(baseline.size(), 6u);

  for (const StreamOptions opts : {StreamOptions{2, false}, StreamOptions{0, true},
                                   StreamOptions{2, true}, StreamOptions{8, true}}) {
    ShardStream stream(paths, opts);
    const auto chunks = drain_epochs(stream, 2);
    ASSERT_EQ(chunks.size(), baseline.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      ASSERT_EQ(chunks[c].size(), baseline[c].size());
      for (std::size_t i = 0; i < chunks[c].size(); ++i)
        EXPECT_TRUE(gnn::bit_equal(chunks[c][i], baseline[c][i]))
            << "lru=" << opts.lru_shards << " ra=" << opts.readahead << " chunk " << c;
    }
  }
}

TEST(ShardStreamOptions, LruBoundsResidencyAndServesRepeats) {
  const fs::path dir = temp_dir();
  const auto paths = make_shard_trio(dir);

  // Capacity >= shard count: epoch 2+ is served entirely from memory.
  ShardStream cached(paths, StreamOptions{8, false});
  drain_epochs(cached, 3);
  EXPECT_EQ(cached.disk_loads(), 3u);
  EXPECT_EQ(cached.lru_hits(), 6u);

  // Capacity 1 with 3 shards cycling: every access evicts, never hits.
  ShardStream tight(paths, StreamOptions{1, false});
  drain_epochs(tight, 2);
  EXPECT_EQ(tight.disk_loads(), 6u);
  EXPECT_EQ(tight.lru_hits(), 0u);
}

TEST(ShardStreamOptions, ReadaheadPrefetchesAndSurvivesReset) {
  const fs::path dir = temp_dir();
  const auto paths = make_shard_trio(dir);

  ShardStream stream(paths, StreamOptions{0, true});
  const auto chunks = drain_epochs(stream, 2);
  EXPECT_EQ(chunks.size(), 6u);
  // Shard 0 of epoch 1 is a cold load (no prefetch had been scheduled);
  // everything after can come off the prefetch thread. Exact counts depend
  // on timing only in that a prefetch is always *taken* when scheduled for
  // the right index — which the sequential cursor guarantees.
  EXPECT_GE(stream.prefetch_hits(), 4u);
  EXPECT_EQ(stream.disk_loads(), 6u);
}

TEST(ShardStreamOptions, ReadaheadSkipsCorruptShards) {
  const fs::path dir = temp_dir();
  auto paths = make_shard_trio(dir);
  // Corrupt the middle shard's payload.
  auto bytes = read_file(paths[1]);
  bytes[bytes.size() / 2] ^= 0xFF;
  write_file(paths[1], bytes);

  ShardStream stream(paths, StreamOptions{2, true});
  std::vector<gnn::CircuitGraph> chunk;
  int chunks = 0;
  while (stream.next(chunk)) ++chunks;
  EXPECT_EQ(chunks, 2);  // the corrupt shard is skipped with a warning
}

TEST(ShardStreamOptions, FromEnvParsesKnobs) {
  ::setenv("DEEPGATE_SHARD_LRU", "5", 1);
  ::setenv("DEEPGATE_SHARD_READAHEAD", "1", 1);
  const StreamOptions opts = StreamOptions::from_env();
  EXPECT_EQ(opts.lru_shards, 5u);
  EXPECT_TRUE(opts.readahead);
  ::unsetenv("DEEPGATE_SHARD_LRU");
  ::unsetenv("DEEPGATE_SHARD_READAHEAD");
  const StreamOptions off = StreamOptions::from_env();
  EXPECT_EQ(off.lru_shards, 0u);
  EXPECT_FALSE(off.readahead);
}

TEST(ShardIoGolden, WriterReproducesGoldenBytes) {
  if (std::getenv("DG_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  const fs::path dir = temp_dir();
  const std::string path = (dir / "rewrite.dgsh").string();
  ASSERT_TRUE(write_shard(path, kGoldenHash, kGoldenSeed, kGoldenIndex, golden_records()));
  const auto expected = read_file(golden_path());
  const auto actual = read_file(path);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual, expected) << "writer output drifted from the v1 golden bytes";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dg::data
