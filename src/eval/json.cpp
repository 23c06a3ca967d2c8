#include "eval/json.h"

#include <cmath>
#include <cstdio>

namespace poiprivacy::eval {

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted the separator
  }
  if (needs_comma_.back()) out_ += ',';
  needs_comma_.back() = true;
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
}

void JsonWriter::key(const std::string& name) {
  comma();
  value_string(name);
  out_ += ':';
  pending_key_ = true;
}

void JsonWriter::value(double x) {
  comma();
  if (!std::isfinite(x)) {
    out_ += "null";  // JSON has no inf/nan
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  out_ += buf;
}

void JsonWriter::value(std::int64_t x) {
  comma();
  out_ += std::to_string(x);
}

void JsonWriter::value(std::uint64_t x) {
  comma();
  out_ += std::to_string(x);
}

void JsonWriter::value(bool x) {
  comma();
  out_ += x ? "true" : "false";
}

void JsonWriter::value(std::nullptr_t) {
  comma();
  out_ += "null";
}

void JsonWriter::value(const std::string& x) {
  comma();
  value_string(x);
}

void JsonWriter::value_string(const std::string& x) {
  out_ += '"';
  for (const char c : x) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\b':
        out_ += "\\b";
        break;
      case '\f':
        out_ += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

}  // namespace poiprivacy::eval
