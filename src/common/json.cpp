#include "common/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

namespace dvs::json {

namespace {

[[noreturn]] void type_error(const char* want, Type got) {
  throw ParseError(std::string("json: expected ") + want + ", got type " +
                   std::to_string(static_cast<int>(got)));
}

}  // namespace

double Value::as_number() const {
  if (type_ != Type::Number) type_error("number", type_);
  return number_;
}

std::uint64_t Value::as_integer(std::uint64_t max) const {
  constexpr std::uint64_t kExact = (std::uint64_t{1} << 53) - 1;
  max = std::min(max, kExact);
  const double x = as_number();
  // The range test comes first: it also turns away NaN, and only a double
  // inside it may be cast.
  if (!(x >= 0.0 && x <= static_cast<double>(max)) || x != std::floor(x)) {
    throw ParseError("expected an integer from 0 to " + std::to_string(max) +
                     ", got " + fmt17(x));
  }
  return static_cast<std::uint64_t>(x);
}

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const std::vector<ValuePtr>& Value::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const std::map<std::string, ValuePtr>& Value::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : it->second.get();
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw ParseError("json: missing member \"" + key + "\"");
  return *v;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

std::string Value::string_or(const std::string& key,
                             std::string fallback) const {
  const Value* v = find(key);
  return v == nullptr ? std::move(fallback) : v->as_string();
}

std::uint64_t Value::integer_or(const std::string& key, std::uint64_t fallback,
                                std::uint64_t max) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_integer(max);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ValuePtr parse_document() {
    ValuePtr v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  ValuePtr parse_value() {
    skip_ws();
    auto v = std::make_shared<Value>();
    switch (peek()) {
      case '{': parse_object(*v); break;
      case '[': parse_array(*v); break;
      case '"':
        v->type_ = Type::String;
        v->string_ = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v->type_ = Type::Bool;
        v->bool_ = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v->type_ = Type::Bool;
        v->bool_ = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        break;
      default:
        v->type_ = Type::Number;
        v->number_ = parse_number();
        break;
    }
    return v;
  }

  void parse_object(Value& v) {
    v.type_ = Type::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(Value& v) {
    v.type_ = Type::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Only BMP escapes; non-ASCII code points are passed through as
          // '?' — nothing this repo writes uses them.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [this] {
      std::size_t n = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("bad number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail("bad number exponent");
    }
    // strtod round-trips the %.17g doubles our writers emit exactly.
    return std::strtod(text_.c_str() + start, nullptr);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

ValuePtr parse(const std::string& text) { return Parser(text).parse_document(); }

ValuePtr parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("json: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse(buf.str());
  } catch (const ParseError& e) {
    throw ParseError(std::string(e.what()) + " (" + path + ")");
  }
}

void read_jsonl_prefix(const std::string& path, const std::string& schema,
                       const std::string& what,
                       const std::function<void(const Value&)>& on_header,
                       const std::function<bool(const Value&)>& on_record) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ValuePtr doc;
    try {
      doc = parse(line);
    } catch (const ParseError&) {
      return;
    }
    if (const Value* s = doc->find("schema"); s != nullptr) {
      if (!s->is_string() || s->as_string() != schema) {
        throw std::runtime_error(what + " " + path +
                                 ": header schema is not \"" + schema + "\"");
      }
      if (on_header) on_header(*doc);
      continue;
    }
    try {
      if (!on_record(*doc)) return;
    } catch (const std::runtime_error&) {
      return;
    }
  }
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::ofstream append_jsonl(const std::string& path,
                           const std::string& header) {
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::ifstream in(path, std::ios::binary);
    const std::string content{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
    if (!content.empty() && content.back() != '\n') {
      const std::size_t nl = content.rfind('\n');
      std::filesystem::resize_file(
          path, nl == std::string::npos ? 0 : nl + 1, ec);
    }
  }
  const bool fresh = !std::filesystem::exists(path, ec) ||
                     std::filesystem::file_size(path, ec) == 0;
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("cannot open " + path);
  if (fresh) out << header << "\n" << std::flush;
  return out;
}

void write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open " + tmp);
    os << text;
    os.flush();
    if (!os) throw std::runtime_error("write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("rename to " + path + ": " + ec.message());
  }
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt9(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace dvs::json
