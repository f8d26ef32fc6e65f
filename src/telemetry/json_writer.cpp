#include "telemetry/json_writer.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace lssim {

JsonWriter::JsonWriter(std::ostream& os, int indent)
    : out_(os),
      indent_(indent > 0 ? static_cast<std::size_t>(indent) : 0),
      separators_(indent_ > 0 ? ",\n" : ",") {}

JsonWriter::Shape::Shape(std::string_view text, std::size_t depth,
                         std::size_t indent)
    : depth_(depth), indent_(indent) {
  for (;;) {
    const std::string_view piece = text.substr(0, text.find('\0'));
    pieces_.push_back(Piece{text_.size(), piece.size()});
    text_ += piece;
    text_.resize((text_.size() / kChunk + 1) * kChunk, '\0');
    if (piece.size() == text.size()) break;
    text.remove_prefix(piece.size() + 1);
  }
}

JsonWriter::Shape JsonWriter::shape(
    const std::function<void(JsonWriter&)>& describe) const {
  std::ostringstream text;
  {
    JsonWriter w(text, static_cast<int>(indent_));
    // Open levels stand in for this writer's containers, so the record
    // is indented for its depth. They are object levels: a value there
    // follows its key directly, so the record's own separator, which
    // record() writes, stays out of the shape.
    w.stack_.assign(stack_.size(), Level{true, false});
    describe(w);
    assert(w.stack_.size() == stack_.size());
  }
  return Shape(text.str(), stack_.size(), indent_);
}

void JsonWriter::put_escape(char c) {
  switch (c) {
    case '"': put("\\\""); break;
    case '\\': put("\\\\"); break;
    case '\n': put("\\n"); break;
    case '\r': put("\\r"); break;
    case '\t': put("\\t"); break;
    default: {
      char escape[8];
      std::snprintf(escape, sizeof(escape), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      put(std::string_view(escape, 6));
    }
  }
}

void JsonWriter::open(char bracket, bool object) {
  begin_element(false);
  put(bracket);
  stack_.push_back(Level{object, true});
  const std::size_t needed = 2 + stack_.size() * indent_;
  if (indent_ > 0 && separators_.size() < needed) {
    separators_.resize(needed, ' ');
  }
}

void JsonWriter::value(double v) {
  begin_element(false);
  if (!std::isfinite(v)) {
    put("null");
    return;
  }
  char digits[32];
  const int n = std::snprintf(digits, sizeof(digits), "%.17g", v);
  put(std::string_view(digits, static_cast<std::size_t>(n)));
}

}  // namespace lssim
