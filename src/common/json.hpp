// Minimal recursive-descent JSON reader for the analyzer tooling (the
// `dvs-sim report` subcommand ingests metrics/ledger JSON written by this
// repo).  Deliberately small: objects, arrays, strings (with the common
// escapes), doubles, bools, null.  No external dependencies — the container
// image is frozen.
//
// JSON writing stays hand-rolled at the emission sites (metrics_registry,
// attribution, serve artifacts) where the format lives next to the data;
// what every writer shares lives here: escape() and fmt17(), the crash-
// tolerant JSONL log open/read pair, and the atomic file replace.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dvs::json {

class Value;
using ValuePtr = std::shared_ptr<Value>;

enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

/// Thrown on malformed input, with a byte offset in the message.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  Value() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }

  /// Typed accessors; throw ParseError when the type does not match (the
  /// analyzer treats a shape mismatch the same as a syntax error).
  [[nodiscard]] double as_number() const;
  /// The number as a whole value in [0, max] and below 2^53, where every
  /// integer is exact; fractions, negatives and larger values throw
  /// ParseError instead of reaching an undefined float-to-int cast.
  [[nodiscard]] std::uint64_t as_integer(std::uint64_t max) const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<ValuePtr>& as_array() const;
  [[nodiscard]] const std::map<std::string, ValuePtr>& as_object() const;

  /// Object member lookup; null pointer when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;
  /// Object member that must exist, else ParseError naming the key.
  [[nodiscard]] const Value& at(const std::string& key) const;

  /// Convenience: member `key` as a number/string, or `fallback` when the
  /// member is absent.  Wrong-typed members still throw.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;
  /// Member `key` through as_integer(max), or `fallback` when absent.
  [[nodiscard]] std::uint64_t integer_or(const std::string& key,
                                         std::uint64_t fallback,
                                         std::uint64_t max) const;

 private:
  friend class Parser;
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<ValuePtr> array_;
  std::map<std::string, ValuePtr> object_;
};

/// Parses one JSON document; trailing non-whitespace is an error.
ValuePtr parse(const std::string& text);

/// Reads and parses a whole file; ParseError mentions the path.
ValuePtr parse_file(const std::string& path);

/// Reads the intact prefix of a JSONL file whose header line carries
/// `"schema": schema`: `on_header` (may be empty) sees the header,
/// `on_record` every other line.  The first line that does not parse, for
/// which on_record returns false, or whose shape makes on_record throw
/// std::runtime_error ends the read — a SIGKILL-torn tail keeps the
/// prefix.  A missing file reads nothing; a header naming another schema
/// throws std::runtime_error naming `what` and `path`.
void read_jsonl_prefix(const std::string& path, const std::string& schema,
                       const std::string& what,
                       const std::function<void(const Value&)>& on_header,
                       const std::function<bool(const Value&)>& on_record);

/// `s` as the body of a JSON string literal: quote, backslash and every
/// control character below 0x20 are escaped, so strict parsers accept it.
std::string escape(std::string_view s);

/// %.17g: the shortest printf format that round-trips every finite double.
std::string fmt17(double v);

/// %.9g: the compact form of the metrics, trace, and telemetry outputs.
std::string fmt9(double v);

/// Opens a JSONL log for appending.  A torn final line (a SIGKILL
/// mid-append) is truncated away first — appending after the fragment
/// would glue the next record onto it and hide every later line from
/// readers — and `header` (one line, no newline) is written when the file
/// starts empty.  Throws std::runtime_error when the file cannot be opened.
std::ofstream append_jsonl(const std::string& path, const std::string& header);

/// Replaces `path` with `text` through `path.tmp` and a rename, so a
/// polling reader (status.json, metrics.om) never sees a torn document.
/// Throws std::runtime_error on failure.
void write_file_atomic(const std::string& path, const std::string& text);

}  // namespace dvs::json
