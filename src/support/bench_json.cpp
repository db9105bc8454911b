#include "support/bench_json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace lr90 {

namespace {

/// JSON string escaping: quotes, backslashes, and control characters.
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
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

/// The active transparent-huge-page mode: the bracketed word of the
/// kernel's THP setting ("always [madvise] never" -> "madvise"), or
/// "unavailable" when the setting cannot be read.
std::string thp_mode() {
  std::FILE* f =
      std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
  if (f == nullptr) return "unavailable";
  char buf[128] = {};
  const std::size_t got = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  const std::string line(buf, got);
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos)
    return "unavailable";
  return line.substr(open + 1, close - open - 1);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  // Integral values (counts, sizes) print exactly; measurements keep six
  // significant digits.
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

}  // namespace

BenchJson::BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

void BenchJson::meta(const std::string& key, const std::string& value) {
  meta_.push_back(Field{key, value, 0.0, false});
}

void BenchJson::meta(const std::string& key, double value) {
  meta_.push_back(Field{key, {}, value, true});
}

void BenchJson::row() { rows_.emplace_back(); }

void BenchJson::field(const std::string& key, double value) {
  rows_.back().push_back(Field{key, {}, value, true});
}

void BenchJson::field(const std::string& key, const std::string& value) {
  rows_.back().push_back(Field{key, value, 0.0, false});
}

void BenchJson::append_fields(std::string& out,
                              const std::vector<Field>& fields) {
  bool first = true;
  for (const Field& f : fields) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += escaped(f.key);
    out += "\": ";
    if (f.is_num) {
      out += number(f.num);
    } else {
      out += '"';
      out += escaped(f.str);
      out += '"';
    }
  }
}

std::string BenchJson::dump() const {
  std::string out = "{\n  \"bench\": \"" + escaped(name_) + "\",\n";
  out += "  \"meta\": { ";
  append_fields(out, meta_);
  out += " },\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += "    { ";
    append_fields(out, rows_[i]);
    out += i + 1 < rows_.size() ? " },\n" : " }\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool BenchJson::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const std::string doc = dump();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (!ok)
    std::fprintf(stderr, "bench_json: short write to %s\n", path.c_str());
  return ok;
}

std::string bench_json_path(const char* default_name) {
  const char* env = std::getenv("LR90_BENCH_JSON_PATH");
  return env != nullptr && env[0] != '\0' ? std::string(env)
                                          : std::string(default_name);
}

void stamp_provenance(BenchJson& json) {
  const char* sha = std::getenv("LR90_GIT_SHA");
  if (sha == nullptr || sha[0] == '\0') sha = std::getenv("GITHUB_SHA");
#if defined(LR90_GIT_SHA_CONFIGURED)
  if (sha == nullptr || sha[0] == '\0') sha = LR90_GIT_SHA_CONFIGURED;
#endif
  json.meta("git_sha", sha != nullptr && sha[0] != '\0' ? sha : "unknown");
#if defined(__clang__)
  json.meta("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  json.meta("compiler", std::string("gcc ") + __VERSION__);
#else
  json.meta("compiler", "unknown");
#endif
#if defined(LISTRANK90_HAVE_OPENMP)
  json.meta("openmp", "on");
#else
  json.meta("openmp", "off");
#endif
  json.meta("hw_threads",
            static_cast<double>(std::thread::hardware_concurrency()));
  json.meta("thp", thp_mode());
}

}  // namespace lr90
