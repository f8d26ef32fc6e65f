#include "trace/config_hash.hpp"

#include <cstdio>

#include "sim/machine_fields.hpp"

namespace lssim {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

class Fnv1a {
 public:
  void mix(std::uint64_t value) noexcept {
    // Hash all 8 bytes explicitly so the result is independent of host
    // endianness and of the caller's integer width.
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= kFnvPrime;
    }
  }
  void mix(std::string_view text) noexcept {
    // Length-prefixed so adjacent strings can't alias ("ab","c" vs
    // "a","bc").
    mix(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kFnvPrime;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

}  // namespace

std::uint64_t trace_config_hash(const MachineConfig& config,
                                std::uint32_t version) noexcept {
  Fnv1a h;
  for (const MachineField& field : kMachineFields) {
    if (field.hashed == Hashed::kTrace0 ||
        (field.hashed == Hashed::kTrace1 && version >= 1)) {
      h.mix(field.get(config));
    }
  }
  return h.value();
}

std::string format_config_hash(std::uint64_t hash) {
  char buffer[2 + 16 + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

bool parse_config_hash(std::string_view text, std::uint64_t* out) noexcept {
  if (text.size() >= 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

std::uint64_t sweep_config_hash(
    const MachineConfig& config, std::string_view workload,
    const std::vector<std::pair<std::string, std::string>>& params,
    std::uint64_t seed) noexcept {
  Fnv1a h;
  h.mix(std::uint64_t{kSweepConfigHashVersion});
  // The protocol-insensitive machine fields, exactly as a trace capture
  // would hash them, then the protocol, directory and classifier fields
  // trace_config_hash deliberately leaves out.
  h.mix(trace_config_hash(config));
  for (const MachineField& field : kMachineFields) {
    if (field.hashed == Hashed::kSweep) h.mix(field.get(config));
  }
  // What ran on the machine: workload, parameter overrides (in the
  // caller-supplied order — the sweep generator emits them sorted), seed.
  h.mix(workload);
  h.mix(static_cast<std::uint64_t>(params.size()));
  for (const auto& [key, value] : params) {
    h.mix(key);
    h.mix(value);
  }
  h.mix(seed);
  return h.value();
}

}  // namespace lssim
