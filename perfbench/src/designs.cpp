#include "designs.hpp"

#include "data/generators_large.hpp"

namespace pb {

namespace {

/// Copy `unit` into `dst` with fresh inputs (a disjoint unit of a larger
/// design).
void append_unit(dg::aig::Aig& dst, const dg::aig::Aig& unit) {
  using dg::aig::Lit;
  std::vector<Lit> lit_of(unit.num_vars(), dg::aig::kLitFalse);
  for (const dg::aig::Var v : unit.inputs()) lit_of[v] = dg::aig::make_lit(dst.add_input(), false);
  const auto map = [&](Lit l) { return lit_of[dg::aig::lit_var(l)] ^ (l & 1U); };
  for (dg::aig::Var v = 1; v < unit.num_vars(); ++v)
    if (unit.is_and(v)) lit_of[v] = dst.add_and(map(unit.fanin0(v)), map(unit.fanin1(v)));
  for (const Lit o : unit.outputs()) dst.add_output(map(o));
}

}  // namespace

std::vector<Design> serve_designs() {
  std::vector<Design> out;
  for (const int bits : {4, 5, 6, 7})
    out.push_back({"squarer" + std::to_string(bits), dg::data::gen_squarer(bits)});
  for (const int bits : {4, 5, 6, 8})
    out.push_back({"multiplier" + std::to_string(bits), dg::data::gen_multiplier(bits)});
  return out;
}

std::vector<Design> corpus_designs() {
  std::vector<Design> out;
  for (auto& d : dg::data::table3_designs(dg::util::BenchScale::kTiny))
    out.push_back({d.name, std::move(d.aig)});
  out.push_back({"squarer12", dg::data::gen_squarer(12)});
  out.push_back({"multiplier8", dg::data::gen_multiplier(8)});
  out.push_back({"arbiter16", dg::data::gen_arbiter(16, 1)});
  for (Design& d : out) d.exact = d.aig.num_inputs() <= 16;
  return out;
}

dg::aig::Aig edit_design() {
  dg::aig::Aig chip;
  for (int unit = 0; unit < 24; ++unit) {
    switch (unit % 4) {
      case 0: append_unit(chip, dg::data::gen_squarer(6 + unit % 3)); break;
      case 1: append_unit(chip, dg::data::gen_multiplier(5 + unit % 3)); break;
      case 2: append_unit(chip, dg::data::gen_arbiter(8, 2)); break;
      default:
        append_unit(chip, dg::data::gen_processor_slice(8, 1, 100 + static_cast<unsigned>(unit)));
        break;
    }
  }
  return chip;
}

}  // namespace pb
