#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace dg::netlist {
namespace {

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<GateType> parse_gate_type(std::string t) {
  std::transform(t.begin(), t.end(), t.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (t == "NOT" || t == "INV") return GateType::kNot;
  if (t == "AND") return GateType::kAnd;
  if (t == "OR") return GateType::kOr;
  if (t == "NAND") return GateType::kNand;
  if (t == "NOR") return GateType::kNor;
  if (t == "XOR") return GateType::kXor;
  if (t == "XNOR") return GateType::kXnor;
  if (t == "BUF" || t == "BUFF") return GateType::kBuf;
  return std::nullopt;
}

struct PendingGate {
  std::string name;
  GateType type;
  std::vector<std::string> fanin_names;
};

}  // namespace

std::string write_bench(const Netlist& nl) {
  std::ostringstream os;
  for (int i : nl.inputs()) os << "INPUT(" << nl.gate(i).name << ")\n";
  for (int o : nl.outputs()) os << "OUTPUT(" << nl.gate(o).name << ")\n";
  for (const auto& g : nl.gates()) {
    if (g.type == GateType::kInput) continue;
    os << g.name << " = " << gate_type_name(g.type) << '(';
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) os << ", ";
      os << nl.gate(g.fanins[i]).name;
    }
    os << ")\n";
  }
  return os.str();
}

bool write_bench_file(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_bench(nl);
  return static_cast<bool>(out);
}

std::optional<Netlist> read_bench(const std::string& text, std::string* error) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> input_names, output_names;
  std::vector<PendingGate> pending;

  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      // INPUT(x) or OUTPUT(x)
      const std::size_t lp = line.find('(');
      const std::size_t rp = line.rfind(')');
      if (lp == std::string::npos || rp == std::string::npos || rp < lp) {
        set_error(error, "malformed line: " + line);
        return std::nullopt;
      }
      const std::string head = trim(line.substr(0, lp));
      const std::string arg = trim(line.substr(lp + 1, rp - lp - 1));
      if (head == "INPUT") {
        input_names.push_back(arg);
      } else if (head == "OUTPUT") {
        output_names.push_back(arg);
      } else {
        set_error(error, "unknown directive: " + head);
        return std::nullopt;
      }
      continue;
    }

    PendingGate pg;
    pg.name = trim(line.substr(0, eq));
    const std::string rhs = trim(line.substr(eq + 1));
    const std::size_t lp = rhs.find('(');
    const std::size_t rp = rhs.rfind(')');
    if (lp == std::string::npos || rp == std::string::npos || rp < lp) {
      set_error(error, "malformed gate: " + line);
      return std::nullopt;
    }
    const auto type = parse_gate_type(trim(rhs.substr(0, lp)));
    if (!type) {
      set_error(error, "unknown gate type in: " + line);
      return std::nullopt;
    }
    pg.type = *type;
    std::string args = rhs.substr(lp + 1, rp - lp - 1);
    std::istringstream argstream(args);
    std::string tok;
    while (std::getline(argstream, tok, ',')) {
      tok = trim(tok);
      if (!tok.empty()) pg.fanin_names.push_back(tok);
    }
    if (pg.fanin_names.empty()) {
      set_error(error, "gate with no fanins: " + line);
      return std::nullopt;
    }
    if ((pg.type == GateType::kNot || pg.type == GateType::kBuf) && pg.fanin_names.size() != 1) {
      set_error(error, "NOT and BUF take one fanin: " + line);
      return std::nullopt;
    }
    pending.push_back(std::move(pg));
  }

  // Name ids: def[id] is the index of the pending gate defining the name,
  // kInput, or kUndefined.
  constexpr int kUndefined = -1, kInput = -2;
  std::unordered_map<std::string, std::size_t> id_of;
  std::vector<int> def;
  const auto intern = [&](const std::string& name) {
    const auto [it, fresh] = id_of.emplace(name, def.size());
    if (fresh) def.push_back(kUndefined);
    return it->second;
  };
  for (const auto& name : input_names) {
    const std::size_t id = intern(name);
    if (def[id] == kInput) {
      set_error(error, "duplicate input: " + name);
      return std::nullopt;
    }
    def[id] = kInput;
  }
  const std::size_t n = pending.size();
  std::vector<std::size_t> self(n);
  std::vector<std::vector<std::size_t>> fanin_ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    self[i] = intern(pending[i].name);
    if (def[self[i]] != kUndefined) {
      set_error(error, (def[self[i]] == kInput ? "input redefined by a gate: "
                                               : "signal defined twice: ") + pending[i].name);
      return std::nullopt;
    }
    def[self[i]] = static_cast<int>(i);
    for (const auto& fn : pending[i].fanin_names) fanin_ids[i].push_back(intern(fn));
  }

  // Kahn queue over the gates, so resolution is linear in the text. It also
  // finds the pass in which rescanning the file until no gate resolves would
  // emit each gate, pass[i] = max(1, pass[j] + (j > i)) over the gates j
  // defining its fanins, and emits by (pass, line): that rescan's order, so a
  // file already in topological order keeps its order. A gate never queued
  // reads a cycle or an undefined name.
  std::vector<std::vector<std::size_t>> readers(def.size());  // gates reading each name
  std::vector<std::size_t> waiting(n, 0), queue;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f : fanin_ids[i])
      if (def[f] != kInput) {
        readers[f].push_back(i);
        ++waiting[i];
      }
    if (waiting[i] == 0) queue.push_back(i);
  }
  std::vector<std::size_t> pass(n, 1);
  std::size_t max_pass = 1;
  for (std::size_t q = 0; q < queue.size(); ++q) {
    const std::size_t j = queue[q];
    max_pass = std::max(max_pass, pass[j]);
    for (std::size_t i : readers[self[j]]) {
      pass[i] = std::max(pass[i], pass[j] + (j > i ? 1 : 0));
      if (--waiting[i] == 0) queue.push_back(i);
    }
  }
  if (queue.size() != n) {
    set_error(error, "cyclic or undefined signal in netlist");
    return std::nullopt;
  }
  std::vector<std::vector<std::size_t>> by_pass(max_pass + 1);
  for (std::size_t i = 0; i < n; ++i) by_pass[pass[i]].push_back(i);

  Netlist nl;
  std::vector<int> node_of(def.size(), -1);  // netlist gate per name id
  for (const auto& name : input_names) node_of[id_of[name]] = nl.add_input(name);
  for (const auto& gates : by_pass)
    for (std::size_t i : gates) {
      std::vector<int> fanins;
      for (std::size_t f : fanin_ids[i]) fanins.push_back(node_of[f]);
      node_of[self[i]] = nl.add_gate(pending[i].type, std::move(fanins), pending[i].name);
    }

  for (const auto& name : output_names) {
    const auto it = id_of.find(name);
    if (it == id_of.end() || node_of[it->second] < 0) {
      set_error(error, "undefined output: " + name);
      return std::nullopt;
    }
    nl.mark_output(node_of[it->second]);
  }
  return nl;
}

std::optional<Netlist> read_bench_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return read_bench(buf.str(), error);
}

}  // namespace dg::netlist
