#include "telemetry/json.hpp"

#include <cstdlib>
#include <sstream>

#include "telemetry/json_writer.hpp"

namespace lssim {

void Json::write(JsonWriter& writer) const {
  switch (type_) {
    case Type::kNull: writer.value(nullptr); break;
    case Type::kBool: writer.value(bool_); break;
    case Type::kUint: writer.value(uint_); break;
    case Type::kNumber: writer.value(num_); break;
    case Type::kString: writer.value(std::string_view(str_)); break;
    case Type::kArray:
      writer.begin_array();
      for (const Json& item : arr_) item.write(writer);
      writer.end_array();
      break;
    case Type::kObject:
      writer.begin_object();
      for (const auto& [key, value] : obj_) {
        writer.key(key);
        value.write(writer);
      }
      writer.end_object();
      break;
  }
}

void Json::write(std::ostream& os, int indent) const {
  JsonWriter writer(os, indent);
  write(writer);
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  Json parse_document() {
    Json value = parse_value();
    if (failed_) return Json();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return Json();
    }
    return value;
  }

 private:
  void fail(const std::string& what) {
    if (!failed_ && error_ != nullptr) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    failed_ = true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    fail(std::string("invalid literal, expected '") + std::string(lit) + "'");
    return false;
  }

  Json parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return Json();
    }
    switch (text_[pos_]) {
      case 'n': expect_literal("null"); return Json();
      case 't': expect_literal("true"); return Json(true);
      case 'f': expect_literal("false"); return Json(false);
      case '"': return parse_string();
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  Json parse_string() {
    ++pos_;  // Opening quote.
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Json(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return Json();
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape digit");
                return Json();
              }
            }
            // UTF-8 encode (BMP only; surrogate pairs are not needed for
            // the telemetry documents, which are ASCII).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape sequence");
            return Json();
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return Json();
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool negative = false;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") {
      fail("invalid number");
      return Json();
    }
    char* end = nullptr;
    if (integral && !negative) {
      const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
      if (end == token.c_str() + token.size()) {
        return Json(static_cast<std::uint64_t>(v));
      }
    }
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("invalid number '" + token + "'");
      return Json();
    }
    return Json(d);
  }

  Json parse_array() {
    ++pos_;  // '['
    Json::Array items;
    skip_ws();
    if (consume(']')) return Json(std::move(items));
    for (;;) {
      items.push_back(parse_value());
      if (failed_) return Json();
      skip_ws();
      if (consume(']')) return Json(std::move(items));
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return Json();
      }
    }
  }

  Json parse_object() {
    ++pos_;  // '{'
    Json::Object members;
    skip_ws();
    if (consume('}')) return Json(std::move(members));
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected string key in object");
        return Json();
      }
      Json key = parse_string();
      if (failed_) return Json();
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return Json();
      }
      Json value = parse_value();
      if (failed_) return Json();
      members.emplace_back(key.as_string(), std::move(value));
      skip_ws();
      if (consume('}')) return Json(std::move(members));
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return Json();
      }
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace

Json Json::parse(std::string_view text, std::string* error) {
  if (error != nullptr) error->clear();
  Parser parser(text, error);
  return parser.parse_document();
}

}  // namespace lssim
