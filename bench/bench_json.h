#ifndef RANKTIES_BENCH_BENCH_JSON_H_
#define RANKTIES_BENCH_BENCH_JSON_H_

// Tiny machine-readable output helper shared by the bench harnesses'
// --json modes (bench_metrics, bench_aggregation, bench_obs). The CI
// bench-regression gate parses this, so the shape is versioned: a top-level
// object
//   {"schema": "rankties-bench-v2", "harness": "...", "records": [...],
//    "metrics": {...}}
// where each record is a flat object of strings/numbers/bools. v2 adds the
// optional top-level "metrics" object (the obs counter/histogram snapshot,
// see docs/OBSERVABILITY.md); v1 consumers that read only "records" keep
// working unchanged. No external JSON dependency — the writer covers
// exactly what the records need.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace rankties {
namespace benchjson {

inline std::string Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// One flat JSON object, keys emitted in insertion order.
class Record {
 public:
  Record& Str(const std::string& key, const std::string& value) {
    // Appending to an lvalue, not `"\"" + std::string&&`, which GCC 12's
    // -Wrestrict misreports at -O3.
    std::string quoted = "\"";
    quoted.append(Escape(value)).push_back('"');
    return Raw(key, std::move(quoted));
  }
  Record& Num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return Raw(key, buffer);
  }
  Record& Int(const std::string& key, long long value) {
    return Raw(key, std::to_string(value));
  }
  Record& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }

  std::string ToJson() const {
    std::string out = "{";
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (i) out += ", ";
      out.append("\"").append(Escape(keys_[i])).append("\": ");
      out += values_[i];
    }
    out += "}";
    return out;
  }

 private:
  Record& Raw(const std::string& key, std::string value) {
    keys_.push_back(key);
    values_.push_back(std::move(value));
    return *this;
  }

  std::vector<std::string> keys_;
  std::vector<std::string> values_;
};

/// Writes the versioned document to `out`. `metrics_json`, when non-empty,
/// must be a serialized JSON object (obs::MetricsJsonObject()) and becomes
/// the optional top-level "metrics" member introduced by bench-v2.
inline void WriteDocument(std::FILE* out, const std::string& harness,
                          const std::vector<Record>& records,
                          const std::string& metrics_json = "") {
  std::fprintf(out, "{\"schema\": \"rankties-bench-v2\", \"harness\": \"%s\", "
                    "\"records\": [\n",
               Escape(harness).c_str());
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(out, "  %s%s\n", records[i].ToJson().c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  if (metrics_json.empty()) {
    std::fprintf(out, "]}\n");
  } else {
    std::fprintf(out, "],\n\"metrics\": %s}\n", metrics_json.c_str());
  }
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace benchjson
}  // namespace rankties

#endif  // RANKTIES_BENCH_BENCH_JSON_H_
