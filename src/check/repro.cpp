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
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  bool saw_end = false;

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
      saw_end = true;
      break;
    }
    if (key == "protocol") {
      std::string name;
      ls >> name;
      if (!kProtocolNames.parse(name, &trace.machine.protocol.kind)) {
        parse_fail(line_no, "unknown protocol " + name);
      }
    } else if (key == "nodes") {
      int n = 0;
      ls >> n;
      if (!ls || n < 1 || n > kMaxNodes) parse_fail(line_no, "bad nodes");
      trace.machine.num_nodes = n;
    } else if (key == "l1" || key == "l2") {
      CacheConfig cache;
      ls >> cache.size_bytes >> cache.assoc >> cache.block_bytes;
      if (!ls) parse_fail(line_no, "bad cache geometry");
      (key == "l1" ? trace.machine.l1 : trace.machine.l2) = cache;
    } else if (key == "default_tagged") {
      int v = 0;
      ls >> v;
      trace.machine.protocol.default_tagged = v != 0;
    } else if (key == "tag_hysteresis") {
      int v = 1;
      ls >> v;
      trace.machine.protocol.tag_hysteresis = static_cast<std::uint8_t>(v);
    } else if (key == "detag_hysteresis") {
      int v = 1;
      ls >> v;
      trace.machine.protocol.detag_hysteresis = static_cast<std::uint8_t>(v);
    } else if (key == "keep_tag_on_lone_write") {
      int v = 0;
      ls >> v;
      trace.machine.protocol.keep_tag_on_lone_write = v != 0;
    } else if (key == "ad_detag_on_replacement") {
      int v = 1;
      ls >> v;
      trace.machine.protocol.ad_detag_on_replacement = v != 0;
    } else if (key == "directory") {
      // "directory <name> <pointers> [<region> <entries>]" — the two
      // trailing knobs are optional so pre-existing repros still load.
      std::string scheme;
      int pointers = 4;
      ls >> scheme >> pointers;
      DirectoryKind kind;
      if (!kDirectoryNames.parse(scheme, &kind)) {
        parse_fail(line_no, "unknown directory organisation " + scheme);
      }
      trace.machine.directory_scheme = kind;
      trace.machine.directory_pointers = static_cast<std::uint8_t>(pointers);
      unsigned region = 0;
      unsigned entries = 0;
      if (ls >> region >> entries) {
        trace.machine.directory_region = static_cast<std::uint16_t>(region);
        trace.machine.directory_entries = entries;
      }
    } else if (key == "interconnect") {
      // "interconnect <name> [<arbitration>]" — optional as a whole so
      // pre-seam repros still load (they default to the directory
      // network, the only transport that existed when they were saved).
      std::string name;
      ls >> name;
      InterconnectKind net;
      if (!kInterconnectNames.parse(name, &net)) {
        parse_fail(line_no, "unknown interconnect " + name);
      }
      trace.machine.interconnect = net;
      std::string arb;
      if (ls >> arb) {
        BusArbitration a;
        if (!kBusArbitrationNames.parse(arb, &a)) {
          parse_fail(line_no, "unknown bus arbitration " + arb);
        }
        trace.machine.bus_arbitration = a;
      }
    } else if (key == "access") {
      ReproAccess access;
      int node = 0;
      std::string op;
      int size = 0;
      ls >> node >> op >> std::hex >> access.addr >> std::dec >> size >>
          std::hex >> access.wdata;
      if (!ls) parse_fail(line_no, "malformed access");
      if (!kReproOpNames.parse(op, &access.op)) {
        parse_fail(line_no, "unknown op " + op);
      }
      if (access.op == MemOpKind::kCas) {
        ls >> access.expected;
        if (!ls) parse_fail(line_no, "CAS access missing expected value");
      }
      if (node < 0 || node >= kMaxNodes) parse_fail(line_no, "bad node");
      if (size != 1 && size != 2 && size != 4 && size != 8) {
        parse_fail(line_no, "bad size");
      }
      access.node = static_cast<NodeId>(node);
      access.size = static_cast<std::uint8_t>(size);
      trace.accesses.push_back(access);
    } else {
      parse_fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_header) parse_fail(line_no, "missing header");
  if (!saw_end) parse_fail(line_no, "missing 'end' terminator");
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
