#include "check/repro.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace lssim::check {
namespace {

constexpr const char* kHeader = "lssim-repro v1";

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw std::runtime_error("repro parse error at line " +
                           std::to_string(line) + ": " + what);
}

/// Reads `field` as an integer in [lo, hi], checked before the caller
/// narrows it to the config field's type.
long long read_int(std::istringstream& ls, int line, const char* field,
                   long long lo, long long hi) {
  long long v = 0;
  if (!(ls >> v)) {
    parse_fail(line, "missing or malformed " + std::string(field));
  }
  if (v < lo || v > hi) {
    parse_fail(line, std::string(field) + " " + std::to_string(v) +
                         " out of range [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
  }
  return v;
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
  const MachineConfig& m = trace.machine;
  os << kHeader << "\n";
  os << "protocol " << to_string(m.protocol.kind) << "\n";
  os << "nodes " << m.num_nodes << "\n";
  os << "l1 " << m.l1.size_bytes << ' ' << m.l1.assoc << ' '
     << m.l1.block_bytes << "\n";
  os << "l2 " << m.l2.size_bytes << ' ' << m.l2.assoc << ' '
     << m.l2.block_bytes << "\n";
  os << "default_tagged " << (m.protocol.default_tagged ? 1 : 0) << "\n";
  os << "tag_hysteresis " << static_cast<int>(m.protocol.tag_hysteresis)
     << "\n";
  os << "detag_hysteresis " << static_cast<int>(m.protocol.detag_hysteresis)
     << "\n";
  os << "keep_tag_on_lone_write "
     << (m.protocol.keep_tag_on_lone_write ? 1 : 0) << "\n";
  os << "ad_detag_on_replacement "
     << (m.protocol.ad_detag_on_replacement ? 1 : 0) << "\n";
  os << "directory " << to_string(m.directory_scheme) << ' '
     << static_cast<int>(m.directory_pointers) << ' ' << m.directory_region
     << ' ' << m.directory_entries << "\n";
  os << "interconnect " << to_string(m.interconnect) << ' '
     << to_string(m.bus_arbitration) << "\n";
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
  bool saw_end = false;
  std::vector<int> access_lines;  // Index-aligned with trace.accesses.

  while (std::getline(is, line)) {
    ++line_no;
    // Strip trailing CR (repros may be edited on any platform).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != kHeader) {
        parse_fail(line_no, "expected header '" + std::string(kHeader) +
                                "', got '" + line + "'");
      }
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
    if (key == "protocol") {
      std::string name;
      ls >> name;
      if (!kProtocolNames.parse(name, &m.protocol.kind)) {
        parse_fail(line_no, "unknown protocol " + name);
      }
    } else if (key == "nodes") {
      m.num_nodes = static_cast<int>(
          read_int(ls, line_no, "nodes", 1, kMaxNodes));
    } else if (key == "l1" || key == "l2") {
      CacheConfig& cache = key == "l1" ? m.l1 : m.l2;
      const std::string prefix = key + " ";
      constexpr long long kMaxU32 = 0xffffffffLL;
      cache.size_bytes = static_cast<std::uint32_t>(
          read_int(ls, line_no, (prefix + "size").c_str(), 0, kMaxU32));
      cache.assoc = static_cast<std::uint32_t>(
          read_int(ls, line_no, (prefix + "assoc").c_str(), 0, kMaxU32));
      cache.block_bytes = static_cast<std::uint32_t>(
          read_int(ls, line_no, (prefix + "block").c_str(), 0, kMaxU32));
    } else if (key == "default_tagged") {
      m.protocol.default_tagged = read_int(ls, line_no, key.c_str(), 0, 1) != 0;
    } else if (key == "tag_hysteresis") {
      m.protocol.tag_hysteresis = static_cast<std::uint8_t>(
          read_int(ls, line_no, key.c_str(), 0, 255));
    } else if (key == "detag_hysteresis") {
      m.protocol.detag_hysteresis = static_cast<std::uint8_t>(
          read_int(ls, line_no, key.c_str(), 0, 255));
    } else if (key == "keep_tag_on_lone_write") {
      m.protocol.keep_tag_on_lone_write =
          read_int(ls, line_no, key.c_str(), 0, 1) != 0;
    } else if (key == "ad_detag_on_replacement") {
      m.protocol.ad_detag_on_replacement =
          read_int(ls, line_no, key.c_str(), 0, 1) != 0;
    } else if (key == "directory") {
      // "directory <name> <pointers> [<region> <entries>]" — the two
      // trailing knobs are optional so pre-existing repros still load.
      std::string scheme;
      ls >> scheme;
      if (!kDirectoryNames.parse(scheme, &m.directory_scheme)) {
        parse_fail(line_no, "unknown directory organisation " + scheme);
      }
      m.directory_pointers = static_cast<std::uint8_t>(
          read_int(ls, line_no, "directory pointers", 0, 255));
      if (!(ls >> std::ws).eof()) {
        m.directory_region = static_cast<std::uint16_t>(
            read_int(ls, line_no, "directory region", 0, 0xffff));
        m.directory_entries = static_cast<std::uint32_t>(
            read_int(ls, line_no, "directory entries", 0, 0xffffffffLL));
      }
    } else if (key == "interconnect") {
      // "interconnect <name> [<arbitration>]" — optional as a whole so
      // pre-seam repros still load (they default to the directory
      // network, the only transport that existed when they were saved).
      std::string name;
      ls >> name;
      if (!kInterconnectNames.parse(name, &m.interconnect)) {
        parse_fail(line_no, "unknown interconnect " + name);
      }
      std::string arb;
      if (ls >> arb && !kBusArbitrationNames.parse(arb, &m.bus_arbitration)) {
        parse_fail(line_no, "unknown bus arbitration " + arb);
      }
    } else if (key == "access") {
      // "access <node> <op> <addr> <size> <wdata> [<expected>]", hex
      // addresses and values.
      ReproAccess access;
      access.node = static_cast<NodeId>(
          read_int(ls, line_no, "access node", 0, kMaxNodes - 1));
      std::string op;
      ls >> op;
      if (!kReproOpNames.parse(op, &access.op)) {
        parse_fail(line_no, "unknown op " + op);
      }
      if (!(ls >> std::hex >> access.addr)) {
        parse_fail(line_no, "missing or malformed access address");
      }
      ls >> std::dec;
      const long long size = read_int(ls, line_no, "access size", 1, 8);
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
