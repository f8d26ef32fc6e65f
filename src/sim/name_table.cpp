#include "sim/name_table.hpp"

#include <cctype>

namespace lssim {
namespace {

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool name_matches(std::string_view text, const char* name,
                  const char* aliases) noexcept {
  if (text.empty()) return false;
  if (iequals(text, name)) return true;
  std::string_view rest(aliases);
  while (!rest.empty()) {
    const std::size_t space = rest.find(' ');
    if (iequals(text, rest.substr(0, space))) return true;
    if (space == std::string_view::npos) break;
    rest.remove_prefix(space + 1);
  }
  return false;
}

std::vector<std::string> split_name_list(const std::string& csv) {
  std::vector<std::string> elements;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    elements.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return elements;
}

}  // namespace lssim
