#include "netlist/bench_io.hpp"

#include "data/generators_small.hpp"
#include "sim/bitsim.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

namespace dg::netlist {
namespace {

TEST(BenchIo, ParseSimple) {
  const std::string text =
      "# comment line\n"
      "INPUT(a)\n"
      "INPUT(b)\n"
      "OUTPUT(f)\n"
      "f = NAND(a, b)\n";
  std::string err;
  auto nl = read_bench(text, &err);
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->inputs().size(), 2U);
  EXPECT_EQ(nl->outputs().size(), 1U);
  EXPECT_EQ(nl->gate(nl->outputs()[0]).type, GateType::kNand);
}

TEST(BenchIo, OutOfOrderDefinitions) {
  const std::string text =
      "INPUT(a)\n"
      "OUTPUT(g)\n"
      "g = NOT(f)\n"    // uses f before its definition
      "f = BUF(a)\n";
  std::string err;
  auto nl = read_bench(text, &err);
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->gate(nl->outputs()[0]).type, GateType::kNot);
}

TEST(BenchIo, RejectsUndefinedSignal) {
  std::string err;
  EXPECT_FALSE(read_bench("OUTPUT(f)\nf = AND(x, y)\n", &err).has_value());
}

TEST(BenchIo, RejectsUnknownGate) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\nf = FROB(a)\n", &err).has_value());
  EXPECT_NE(err.find("unknown gate"), std::string::npos);
}

TEST(BenchIo, RejectsCycle) {
  const std::string text =
      "INPUT(a)\n"
      "x = AND(a, y)\n"
      "y = AND(a, x)\n";
  std::string err;
  EXPECT_FALSE(read_bench(text, &err).has_value());
  EXPECT_NE(err.find("cyclic"), std::string::npos);
}

TEST(BenchIo, RejectsMultiFaninNotAndBuf) {
  for (const char* gate : {"NOT", "BUFF", "INV", "BUF"}) {
    std::string err;
    const std::string text = std::string("INPUT(a)\nINPUT(b)\nf = ") + gate + "(a, b)\n";
    EXPECT_FALSE(read_bench(text, &err).has_value()) << gate;
    EXPECT_NE(err.find("one fanin"), std::string::npos) << gate << ": " << err;
  }
}

TEST(BenchIo, RejectsSignalDefinedTwice) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\nINPUT(b)\nf = AND(a, b)\nf = OR(a, b)\n", &err));
  EXPECT_NE(err.find("signal defined twice: f"), std::string::npos) << err;
}

TEST(BenchIo, RejectsInputRedefinedByGate) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\na = NOT(a)\nOUTPUT(a)\n", &err));
  EXPECT_NE(err.find("input redefined by a gate: a"), std::string::npos) << err;
}

TEST(BenchIo, RejectsDuplicateInput) {
  std::string err;
  EXPECT_FALSE(read_bench("INPUT(a)\nINPUT(a)\nf = NOT(a)\n", &err));
  EXPECT_NE(err.find("duplicate input: a"), std::string::npos) << err;
}

// Out-of-order files resolve to the order a rescan of the file until every
// gate resolves would give: each pass emits, in file order, the gates whose
// fanins are defined by then.
TEST(BenchIo, OutOfOrderGatesKeepRescanOrder) {
  const std::string text =
      "INPUT(a)\n"
      "z = NOT(y)\n"  // pass 3
      "y = NOT(x)\n"  // pass 2
      "x = NOT(a)\n"  // pass 1
      "w = BUF(a)\n"  // pass 1
      "v = AND(w, a)\n";  // pass 1: w precedes it
  std::string err;
  auto nl = read_bench(text, &err);
  ASSERT_TRUE(nl.has_value()) << err;
  std::vector<std::string> names;
  for (const auto& g : nl->gates()) names.push_back(g.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "x", "w", "v", "y", "z"}));
}

// Resolution is linear: a reverse-ordered chain used to cost one rescan of
// every pending gate per gate (quadratic; ~48 s at this size).
TEST(BenchIo, ReverseOrderedChainResolvesInLinearTime) {
  constexpr int kGates = 50000;
  const std::string last = std::string("g").append(std::to_string(kGates));
  std::string text = "INPUT(g0)\nOUTPUT(";
  text.append(last).append(")\n");
  for (int i = kGates; i >= 1; --i) {
    text.append("g").append(std::to_string(i));
    text.append(" = NOT(g").append(std::to_string(i - 1)).append(")\n");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::string err;
  const auto nl = read_bench(text, &err);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->size(), static_cast<std::size_t>(kGates) + 1);
  EXPECT_EQ(nl->gate(nl->outputs()[0]).name, last);
  EXPECT_LT(seconds, 2.0);
}

TEST(BenchIo, AcceptsAliases) {
  std::string err;
  auto nl = read_bench("INPUT(a)\nf = INV(a)\ng = BUFF(a)\nOUTPUT(f)\nOUTPUT(g)\n", &err);
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->gate(nl->outputs()[0]).type, GateType::kNot);
  EXPECT_EQ(nl->gate(nl->outputs()[1]).type, GateType::kBuf);
}

TEST(BenchIo, RoundTripPreservesSimulation) {
  util::Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Netlist original = data::gen_iwls_like(rng);
    const std::string text = write_bench(original);
    std::string err;
    auto parsed = read_bench(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    ASSERT_EQ(parsed->inputs().size(), original.inputs().size());
    ASSERT_EQ(parsed->outputs().size(), original.outputs().size());

    std::vector<std::uint64_t> patterns(original.inputs().size());
    for (auto& w : patterns) w = rng.next_u64();
    const auto w1 = sim::simulate_netlist(original, patterns);
    const auto w2 = sim::simulate_netlist(*parsed, patterns);
    for (std::size_t o = 0; o < original.outputs().size(); ++o) {
      EXPECT_EQ(w1[static_cast<std::size_t>(original.outputs()[o])],
                w2[static_cast<std::size_t>(parsed->outputs()[o])]);
    }
  }
}

TEST(BenchIo, CaseInsensitiveGateNames) {
  std::string err;
  auto nl = read_bench("INPUT(a)\nINPUT(b)\nf = nand(a, b)\nOUTPUT(f)\n", &err);
  ASSERT_TRUE(nl.has_value()) << err;
  EXPECT_EQ(nl->gate(nl->outputs()[0]).type, GateType::kNand);
}

}  // namespace
}  // namespace dg::netlist
