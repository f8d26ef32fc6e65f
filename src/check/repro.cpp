#include "check/repro.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "sim/machine_fields.hpp"

namespace lssim::check {
namespace {

constexpr const char* kHeader = "lssim-repro v2";
constexpr const char* kHeaderV1 = "lssim-repro v1";

/// The five version-1 lines that hold several machine fields: the rows
/// they set, in line order, the first `required` of them mandatory.
/// Every other v1 machine line is already a v2 line.
constexpr struct {
  const char* line;
  std::size_t required;
  std::array<const char*, 4> keys;
} kV1Lines[] = {
    {"nodes", 1, {"num_nodes"}},
    {"l1", 3, {"l1.size_bytes", "l1.assoc", "l1.block_bytes"}},
    {"l2", 3, {"l2.size_bytes", "l2.assoc", "l2.block_bytes"}},
    {"directory", 2, {"directory", "directory_pointers",
                      "directory_region", "directory_entries"}},
    {"interconnect", 1, {"interconnect", "bus_arbitration"}},
};

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw std::runtime_error("repro parse error at line " +
                           std::to_string(line) + ": " + what);
}

/// Reads the next token as a decimal number no larger than `max`,
/// checked before the caller narrows it; `label` names it in messages.
std::uint64_t read_number(std::istringstream& ls, int line,
                          const std::string& label, std::uint64_t max) {
  std::string token;
  if (!(ls >> token)) parse_fail(line, "missing " + label);
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (stop != end || ec == std::errc::invalid_argument) {
    parse_fail(line, "malformed " + label + " '" + token + "'");
  }
  if (ec == std::errc::result_out_of_range || value > max) {
    parse_fail(line, label + " " + token + " out of range [0, " +
                         std::to_string(max) + "]");
  }
  return value;
}

/// Reads the next token as the value of machine field `field`: a name
/// for named fields, else a number the field can hold. Its range is
/// validate()'s to check, once the machine is whole.
void read_field(std::istringstream& ls, int line, const MachineField& field,
                const std::string& label, MachineConfig& m) {
  std::uint64_t value = 0;
  if (field.parse == nullptr) {
    value = read_number(ls, line, label, field.max);
  } else if (std::string name; !(ls >> name) || !field.parse(name, &value)) {
    parse_fail(line, "unknown " + label + " " + name);
  }
  field.set(m, value);
}

/// Rejects anything left on `key`'s line.
void expect_line_end(std::istringstream& ls, int line,
                     const std::string& key) {
  std::string extra;
  if (ls >> extra) {
    parse_fail(line, "trailing token '" + extra + "' after " + key);
  }
}

}  // namespace

std::string to_string(const ReproAccess& access) {
  std::ostringstream os;
  os << "access " << static_cast<int>(access.node) << ' '
     << kReproOpNames.name(access.op) << " 0x" << std::hex << access.addr
     << std::dec << ' ' << static_cast<int>(access.size) << " 0x"
     << std::hex << access.wdata;
  if (access.op == MemOpKind::kCas) {
    os << " 0x" << access.expected;
  }
  return os.str();
}

void save_repro(std::ostream& os, const ReproTrace& trace) {
  os << kHeader << "\n";
  for (const MachineField& field : kMachineFields) {
    os << field.key << ' ' << field.text(field.get(trace.machine)) << "\n";
  }
  for (const ReproAccess& access : trace.accesses) {
    os << to_string(access) << "\n";
  }
  os << "end\n";
}

ReproTrace load_repro(std::istream& is) {
  ReproTrace trace;
  MachineConfig& m = trace.machine;
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  bool v1 = false;
  bool saw_end = false;
  std::vector<int> access_lines;  // Index-aligned with trace.accesses.

  while (std::getline(is, line)) {
    ++line_no;
    // Strip trailing CR (repros may be edited on any platform).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != kHeader && line != kHeaderV1) {
        parse_fail(line_no, "expected header '" + std::string(kHeader) +
                                "' or '" + kHeaderV1 + "', got '" + line +
                                "'");
      }
      v1 = line == kHeaderV1;
      saw_header = true;
      continue;
    }
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") {
      expect_line_end(ls, line_no, key);
      saw_end = true;
      break;
    }
    const auto* group = std::find_if(
        std::begin(kV1Lines), std::end(kV1Lines),
        [&](const auto& l) { return v1 && key == l.line; });
    if (group != std::end(kV1Lines)) {
      for (std::size_t i = 0; i < group->keys.size(); ++i) {
        const char* row = group->keys[i];
        if (!row || (i >= group->required && (ls >> std::ws).eof())) break;
        std::string label = row;  // v1 named values in words.
        std::replace(label.begin(), label.end(), '_', ' ');
        read_field(ls, line_no, *find_machine_field(row), label, m);
      }
    } else if (const MachineField* field = find_machine_field(key)) {
      read_field(ls, line_no, *field, key, m);
    } else if (key == "access") {
      // "access <node> <op> <addr> <size> <wdata> [<expected>]", hex
      // addresses and values.
      ReproAccess access;
      access.node = static_cast<NodeId>(
          read_number(ls, line_no, "access node", kMaxNodes - 1));
      std::string op;
      ls >> op;
      if (!kReproOpNames.parse(op, &access.op)) {
        parse_fail(line_no, "unknown op " + op);
      }
      if (!(ls >> std::hex >> access.addr)) {
        parse_fail(line_no, "missing or malformed access address");
      }
      ls >> std::dec;
      const std::uint64_t size = read_number(ls, line_no, "access size", 8);
      if (size != 1 && size != 2 && size != 4 && size != 8) {
        parse_fail(line_no, "access size " + std::to_string(size) +
                                " is not 1, 2, 4 or 8");
      }
      if (!(ls >> std::hex >> access.wdata)) {
        parse_fail(line_no, "missing or malformed access data");
      }
      if (access.op == MemOpKind::kCas && !(ls >> access.expected)) {
        parse_fail(line_no, "CAS access missing expected value");
      }
      // An unaligned access may cross a page, past the end of its
      // backing buffer; the fuzzer only ever emits aligned ones.
      if (access.addr % static_cast<Addr>(size) != 0) {
        std::ostringstream os;
        os << "access address 0x" << std::hex << access.addr << std::dec
           << " is not a multiple of its size " << size;
        parse_fail(line_no, os.str());
      }
      access.size = static_cast<std::uint8_t>(size);
      trace.accesses.push_back(access);
      access_lines.push_back(line_no);
    } else {
      parse_fail(line_no, "unknown key '" + key + "'");
    }
    expect_line_end(ls, line_no, key);
  }
  if (!saw_header) parse_fail(line_no, "missing header");
  if (!saw_end) parse_fail(line_no, "missing 'end' terminator");
  // The machine is whole once every line is read: validate it once, then
  // the accesses against its node count.
  if (const std::string problem = m.validate(); !problem.empty()) {
    parse_fail(line_no, "invalid machine: " + problem);
  }
  for (std::size_t i = 0; i < trace.accesses.size(); ++i) {
    if (trace.accesses[i].node >= m.num_nodes) {
      parse_fail(access_lines[i],
                 "access node " + std::to_string(trace.accesses[i].node) +
                     " not below nodes " + std::to_string(m.num_nodes));
    }
  }
  return trace;
}

void save_repro_file(const std::string& path, const ReproTrace& trace) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  save_repro(os, trace);
  os.flush();
  if (!os) {
    throw std::runtime_error("failed writing repro to " + path);
  }
}

ReproTrace load_repro_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("cannot open repro file " + path);
  }
  return load_repro(is);
}

}  // namespace lssim::check
