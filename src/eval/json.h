// Minimal JSON emission for bench binaries that report machine-readable
// results (plain-text tables remain the human-facing format; JSON lines
// are what sweep scripts and dashboards ingest).
//
//   eval::JsonWriter json;
//   json.begin_object();
//   json.field("requests_per_sec", 1234.5);
//   json.key("latency_ms");
//   json.begin_object();
//   ...
//   json.end_object();
//   json.end_object();
//   std::cout << json.str() << "\n";
//
// Numbers are emitted with enough digits to round-trip doubles; strings
// are escaped per RFC 8259 (control characters, quote, backslash).
// `json.field("latency_ms", nullptr)` writes null.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace poiprivacy::eval {

class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next value inside an object.
  void key(const std::string& name);

  void value(double x);
  void value(std::int64_t x);
  void value(std::uint64_t x);
  void value(bool x);
  void value(const std::string& x);
  void value(const char* x) { value(std::string(x)); }
  /// JSON null, for a field that was not measured.
  void value(std::nullptr_t);

  /// key() + value() in one call.
  template <typename T>
  void field(const std::string& name, T x) {
    key(name);
    value(x);
  }

  const std::string& str() const noexcept { return out_; }

 private:
  void comma();
  void value_string(const std::string& x);

  std::string out_;
  /// Whether a value has already been written at each nesting level.
  std::vector<bool> needs_comma_{false};
  bool pending_key_ = false;
};

}  // namespace poiprivacy::eval
