#include "arch/scenario.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "arch/architecture.hpp"
#include "cs/solver.hpp"
#include "obs/sidecar.hpp"
#include "util/atomic_io.hpp"
#include "util/cache.hpp"
#include "util/error.hpp"

namespace efficsense::arch {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader — just the subset the scenario schema needs (objects,
// arrays, strings, numbers, booleans, null). No dependency is available in
// the container, and the repo's only JSON facilities are the obs sidecar's
// escape helpers, so the value walk is hand-rolled here.

struct Json {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;                             // Array
  std::vector<std::pair<std::string, Json>> members;   // Object, file order

  const Json* member(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("scenario JSON: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string_value() {
    expect('"');
    std::string raw;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        break;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) fail("unterminated escape");
        raw.push_back(c);
        raw.push_back(text_[pos_ + 1]);
        pos_ += 2;
        continue;
      }
      raw.push_back(c);
      ++pos_;
    }
    return obs::json_unescape(raw);
  }

  Json value() {
    const char c = peek();
    Json v;
    if (c == '{') {
      ++pos_;
      v.type = Json::Type::Object;
      if (!consume('}')) {
        while (true) {
          std::string key = string_value();
          for (const auto& [k, _] : v.members) {
            if (k == key) fail("duplicate key \"" + key + "\"");
          }
          expect(':');
          v.members.emplace_back(std::move(key), value());
          if (consume('}')) break;
          expect(',');
        }
      }
    } else if (c == '[') {
      ++pos_;
      v.type = Json::Type::Array;
      if (!consume(']')) {
        while (true) {
          v.items.push_back(value());
          if (consume(']')) break;
          expect(',');
        }
      }
    } else if (c == '"') {
      v.type = Json::Type::String;
      v.text = string_value();
    } else if (c == 't' || c == 'f') {
      const char* word = (c == 't') ? "true" : "false";
      if (text_.compare(pos_, std::strlen(word), word) != 0) {
        fail("invalid literal");
      }
      pos_ += std::strlen(word);
      v.type = Json::Type::Bool;
      v.boolean = (c == 't');
    } else if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) fail("invalid literal");
      pos_ += 4;
    } else {
      // Number: locale-independent via from_chars.
      const char* begin = text_.data() + pos_;
      const char* end = text_.data() + text_.size();
      double num = 0.0;
      const auto [ptr, ec] = std::from_chars(begin, end, num);
      if (ec != std::errc{} || ptr == begin) fail("invalid number");
      pos_ += static_cast<std::size_t>(ptr - begin);
      v.type = Json::Type::Number;
      v.number = num;
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Schema walk.

[[noreturn]] void schema_error(const std::string& what) {
  throw Error("scenario spec: " + what);
}

void require_type(const Json& v, Json::Type type, const std::string& where) {
  if (v.type != type) schema_error(where + " has the wrong JSON type");
}

void check_keys(const Json& obj, const std::string& where,
                std::initializer_list<const char*> known) {
  for (const auto& [key, _] : obj.members) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok) {
      std::string list;
      for (const char* k : known) {
        if (!list.empty()) list += ", ";
        list += k;
      }
      schema_error("unknown key \"" + key + "\" in " + where +
                   " (known keys: " + list + ")");
    }
  }
}

double number_at(const Json& obj, const char* key, double fallback,
                 const std::string& where) {
  const Json* v = obj.member(key);
  if (v == nullptr) return fallback;
  require_type(*v, Json::Type::Number, where + "." + key);
  return v->number;
}

std::uint64_t uint_at(const Json& obj, const char* key, std::uint64_t fallback,
                      const std::string& where) {
  const Json* v = obj.member(key);
  if (v == nullptr) return fallback;
  require_type(*v, Json::Type::Number, where + "." + key);
  if (v->number < 0 || v->number != std::floor(v->number)) {
    schema_error(where + "." + key + " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v->number);
}

void append_bits(std::string& bytes, double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<char>((b >> shift) & 0xFF));
  }
}

void append_u64(std::string& bytes, std::uint64_t b) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<char>((b >> shift) & 0xFF));
  }
}

}  // namespace

power::DesignParams ScenarioSpec::base_design() const {
  return apply_point(power::DesignParams{}, base);
}

std::uint64_t ScenarioSpec::digest() const {
  std::string bytes = "scenario-digest-v2;";
  bytes += architecture;
  bytes.push_back('\n');
  for (const auto& [key, value] : base) {
    bytes += key;
    bytes.push_back('=');
    append_bits(bytes, value);
  }
  bytes.push_back('\n');
  append_u64(bytes, space.digest());
  // Retired algorithm-enum byte: always the old default (0), so digests
  // keep their byte layout.
  bytes.push_back(0);
  bytes.push_back(static_cast<char>(recon.basis));
  append_u64(bytes, recon.sparsity);
  append_bits(bytes, recon.residual_tol);
  append_u64(bytes, recon.max_iters);
  append_u64(bytes, recon.basis_atoms);
  bytes.push_back(recon.compensate_decay ? 1 : 0);
  bytes.push_back(static_cast<char>(recon.omp_mode));
  bytes += recon.solver_id();
  bytes.push_back('\n');
  append_u64(bytes, seeds.mismatch);
  append_u64(bytes, seeds.noise);
  append_u64(bytes, seeds.phi);
  append_u64(bytes, max_segments);
  append_u64(bytes, segments);
  append_u64(bytes, train_segments);
  append_u64(bytes, seed);
  return fnv1a(bytes);
}

ScenarioSpec scenario_from_json(const std::string& json) {
  const Json root = JsonParser(json).parse();
  require_type(root, Json::Type::Object, "top level");
  check_keys(root, "the top-level object",
             {"name", "architecture", "base", "axes", "eval", "sweep"});

  ScenarioSpec spec;
  if (const Json* v = root.member("name")) {
    require_type(*v, Json::Type::String, "name");
    spec.name = v->text;
  }
  if (const Json* v = root.member("architecture")) {
    require_type(*v, Json::Type::String, "architecture");
    spec.architecture = v->text;
  }
  if (spec.architecture != "auto" && !spec.architecture.empty() &&
      !ArchRegistry::instance().contains(spec.architecture)) {
    schema_error("unknown architecture '" + spec.architecture +
                 "'; registered architectures: " +
                 ArchRegistry::instance().known_ids() + " (or \"auto\")");
  }

  if (const Json* v = root.member("base")) {
    require_type(*v, Json::Type::Object, "base");
    for (const auto& [key, val] : v->members) {
      require_type(val, Json::Type::Number, "base." + key);
      spec.base[key] = val.number;
    }
    // apply_axis validates the names; fail at parse time, not sweep time.
    (void)spec.base_design();
  }

  if (const Json* v = root.member("axes")) {
    require_type(*v, Json::Type::Array, "axes");
    for (std::size_t i = 0; i < v->items.size(); ++i) {
      const Json& axis = v->items[i];
      const std::string where = "axes[" + std::to_string(i) + "]";
      require_type(axis, Json::Type::Object, where);
      check_keys(axis, where, {"name", "values"});
      const Json* name = axis.member("name");
      const Json* values = axis.member("values");
      if (name == nullptr || values == nullptr) {
        schema_error(where + " needs \"name\" and \"values\"");
      }
      require_type(*name, Json::Type::String, where + ".name");
      require_type(*values, Json::Type::Array, where + ".values");
      std::vector<double> vals;
      vals.reserve(values->items.size());
      for (const Json& item : values->items) {
        // The "solver" axis also accepts registry ids as strings
        // ("bsbl", ...), mapped to their numeric codes here so the rest of
        // the sweep machinery sees a plain numeric axis.
        if (name->text == "solver" && item.type == Json::Type::String) {
          vals.push_back(static_cast<double>(
              cs::SolverRegistry::instance().code_of(item.text)));
          continue;
        }
        require_type(item, Json::Type::Number, where + ".values[]");
        vals.push_back(item.number);
      }
      spec.space.add_axis(name->text, std::move(vals));
      // An unknown axis name should also fail here, not mid-sweep.
      power::DesignParams probe;
      apply_axis(probe, name->text, spec.space.axes().back().second.front());
    }
  }

  if (const Json* v = root.member("eval")) {
    require_type(*v, Json::Type::Object, "eval");
    check_keys(*v, "\"eval\"",
               {"solver", "residual_tol", "sparsity", "max_iters",
                "max_segments", "seeds"});
    if (const Json* s = v->member("solver")) {
      require_type(*s, Json::Type::String, "eval.solver");
      // get() throws the canonical unknown-solver error listing the ids.
      (void)cs::SolverRegistry::instance().get(s->text);
      spec.recon.solver = s->text;
    }
    spec.recon.residual_tol =
        number_at(*v, "residual_tol", spec.recon.residual_tol, "eval");
    spec.recon.sparsity = static_cast<std::size_t>(
        uint_at(*v, "sparsity", spec.recon.sparsity, "eval"));
    spec.recon.max_iters = static_cast<std::size_t>(
        uint_at(*v, "max_iters", spec.recon.max_iters, "eval"));
    spec.max_segments = static_cast<std::size_t>(
        uint_at(*v, "max_segments", spec.max_segments, "eval"));
    if (const Json* s = v->member("seeds")) {
      require_type(*s, Json::Type::Object, "eval.seeds");
      check_keys(*s, "\"eval.seeds\"", {"mismatch", "noise", "phi"});
      spec.seeds.mismatch =
          uint_at(*s, "mismatch", spec.seeds.mismatch, "eval.seeds");
      spec.seeds.noise = uint_at(*s, "noise", spec.seeds.noise, "eval.seeds");
      spec.seeds.phi = uint_at(*s, "phi", spec.seeds.phi, "eval.seeds");
    }
  }

  if (const Json* v = root.member("sweep")) {
    require_type(*v, Json::Type::Object, "sweep");
    check_keys(*v, "\"sweep\"", {"segments", "train_segments", "seed"});
    spec.segments = static_cast<std::size_t>(
        uint_at(*v, "segments", spec.segments, "sweep"));
    spec.train_segments = static_cast<std::size_t>(
        uint_at(*v, "train_segments", spec.train_segments, "sweep"));
    spec.seed = uint_at(*v, "seed", spec.seed, "sweep");
    if (spec.segments == 0) schema_error("sweep.segments must be >= 1");
    if (spec.train_segments < 2) {
      schema_error("sweep.train_segments must be >= 2 (both classes)");
    }
  }

  return spec;
}

ScenarioSpec scenario_from_file(const std::string& path) {
  const auto text = read_file(path);
  if (!text) throw Error("scenario file not found: " + path);
  try {
    return scenario_from_json(*text);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace efficsense::arch
