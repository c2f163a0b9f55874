#include "bench_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "json_mini.h"

namespace bate {

using json::JsonParser;
using json::JsonValue;

namespace {

/// JSON string escaping for the subset we emit (names are identifiers, but
/// escape defensively).
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void write_bench_json(const BenchReport& report, const std::string& path) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": " << quote(report.bench) << ",\n";
  out << "  \"schema_version\": 8,\n";
  out << "  \"cases\": [";
  for (std::size_t i = 0; i < report.cases.size(); ++i) {
    const BenchCase& c = report.cases[i];
    out << (i ? ",\n    " : "\n    ");
    out << "{\"name\": " << quote(c.name) << ", \"metrics\": {";
    for (std::size_t m = 0; m < c.metrics.size(); ++m) {
      if (!std::isfinite(c.metrics[m].second)) {
        throw std::runtime_error("bench_report: non-finite metric " +
                                 c.metrics[m].first + " in case " + c.name);
      }
      out << (m ? ", " : "") << quote(c.metrics[m].first) << ": "
          << format_double(c.metrics[m].second);
    }
    out << "}}";
  }
  out << (report.cases.empty() ? "]" : "\n  ]");
  if (!report.obs_json.empty()) {
    // Embedded verbatim; validate_bench_json re-parses the whole file, so
    // a malformed snapshot fails loudly rather than silently.
    out << ",\n  \"obs\": " << report.obs_json;
  }
  out << "\n}\n";

  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("bench_report: cannot open " + path);
  f << out.str();
  if (!f.good()) throw std::runtime_error("bench_report: write failed: " + path);
}

std::string validate_bench_json(const std::string& path) {
  std::ifstream f(path);
  if (!f) return "cannot open " + path;
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  try {
    root = JsonParser(text).parse();
  } catch (const std::exception& e) {
    return e.what();
  }
  if (root.kind != JsonValue::Kind::kObject) return "root is not an object";
  const JsonValue* bench = root.find("bench");
  if (!bench || bench->kind != JsonValue::Kind::kString || bench->str.empty()) {
    return "missing or empty string field 'bench'";
  }
  const JsonValue* ver = root.find("schema_version");
  if (!ver || ver->kind != JsonValue::Kind::kNumber ||
      (ver->number != 1.0 && ver->number != 2.0 && ver->number != 3.0 &&
       ver->number != 4.0 && ver->number != 5.0 && ver->number != 6.0 &&
       ver->number != 7.0 && ver->number != 8.0)) {
    return "missing field 'schema_version' or version not in {1, 2, 3, 4, 5, "
           "6, 7, 8}";
  }
  const JsonValue* obs = root.find("obs");
  if (obs != nullptr && obs->kind != JsonValue::Kind::kObject) {
    return "'obs' is present but not an object";
  }
  const JsonValue* cases = root.find("cases");
  if (!cases || cases->kind != JsonValue::Kind::kArray) {
    return "missing array field 'cases'";
  }
  for (const JsonValue& c : cases->array) {
    if (c.kind != JsonValue::Kind::kObject) return "case is not an object";
    const JsonValue* name = c.find("name");
    if (!name || name->kind != JsonValue::Kind::kString || name->str.empty()) {
      return "case without a 'name' string";
    }
    const JsonValue* metrics = c.find("metrics");
    if (!metrics || metrics->kind != JsonValue::Kind::kObject) {
      return "case '" + name->str + "' without a 'metrics' object";
    }
    if (metrics->object.empty()) {
      return "case '" + name->str + "' has no metrics";
    }
    for (const auto& [k, v] : metrics->object) {
      if (v.kind != JsonValue::Kind::kNumber || !std::isfinite(v.number)) {
        return "metric '" + k + "' in case '" + name->str +
               "' is not a finite number";
      }
    }
  }
  return "";
}

namespace {

/// (case name, metric value) pairs of a validated BENCH file, in file
/// order; cases without the metric are skipped (schema drift between the
/// two sides of a compare is not an error, just fewer shared cases).
std::string load_metric(
    const std::string& path, const std::string& metric,
    std::vector<std::pair<std::string, double>>* out) {
  const std::string err = validate_bench_json(path);
  if (!err.empty()) return path + ": " + err;
  std::ifstream f(path);
  std::ostringstream buf;
  buf << f.rdbuf();
  const JsonValue root = JsonParser(buf.str()).parse();  // validated above
  for (const JsonValue& c : root.find("cases")->array) {
    const JsonValue* value = c.find("metrics")->find(metric);
    if (value != nullptr) {
      out->emplace_back(c.find("name")->str, value->number);
    }
  }
  return "";
}

}  // namespace

BenchCompareResult compare_bench_json(const std::string& old_path,
                                      const std::string& new_path,
                                      double max_regress,
                                      const std::string& metric) {
  BenchCompareResult res;
  std::vector<std::pair<std::string, double>> old_cases;
  std::vector<std::pair<std::string, double>> new_cases;
  std::string err = load_metric(old_path, metric, &old_cases);
  if (err.empty()) err = load_metric(new_path, metric, &new_cases);
  if (!err.empty()) {
    res.report = err;
    return res;
  }

  std::ostringstream out;
  out << "  metric: " << metric << "\n";
  out << "  case                       old        new         ratio\n";
  std::vector<double> ratios;
  for (const auto& [name, new_val] : new_cases) {
    for (const auto& [old_name, old_val] : old_cases) {
      if (old_name != name) continue;
      // A sub-resolution old value cannot anchor a ratio; list it as
      // informational only.
      char line[160];
      if (old_val > 1e-6) {
        const double ratio = new_val / old_val;
        ratios.push_back(ratio);
        std::snprintf(line, sizeof(line), "  %-24s %9.3f  %9.3f  %8.2fx\n",
                      name.c_str(), old_val, new_val, ratio);
      } else {
        std::snprintf(line, sizeof(line), "  %-24s %9.3f  %9.3f         -\n",
                      name.c_str(), old_val, new_val);
      }
      out << line;
      break;
    }
  }
  if (ratios.empty()) {
    res.report =
        "no case with a comparable '" + metric + "' appears in both files";
    return res;
  }
  std::sort(ratios.begin(), ratios.end());
  res.median_ratio = ratios[ratios.size() / 2];
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "  median ratio %.2fx over %zu shared cases (limit %.2fx)\n",
                res.median_ratio, ratios.size(), 1.0 + max_regress);
  out << summary;
  res.ok = res.median_ratio <= 1.0 + max_regress;
  res.report = out.str();
  return res;
}

BenchMinResult check_bench_min(const std::string& path,
                               const std::string& metric, double floor) {
  BenchMinResult res;
  std::vector<std::pair<std::string, double>> cases;
  const std::string err = load_metric(path, metric, &cases);
  if (!err.empty()) {
    res.report = err;
    return res;
  }
  if (cases.empty()) {
    res.report = "no case carries metric '" + metric + "'";
    return res;
  }

  std::ostringstream out;
  out << "  metric: " << metric << " (floor " << floor << ")\n";
  bool all_above = true;
  res.min_value = cases.front().second;
  for (const auto& [name, value] : cases) {
    res.min_value = std::min(res.min_value, value);
    const bool above = value >= floor;
    all_above = all_above && above;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %9.3f  %s\n", name.c_str(),
                  value, above ? "ok" : "BELOW FLOOR");
    out << line;
  }
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "  min %.3f over %zu cases (floor %.3f)\n", res.min_value,
                cases.size(), floor);
  out << summary;
  res.ok = all_above;
  res.report = out.str();
  return res;
}

BenchMaxResult check_bench_max(const std::string& path,
                               const std::string& metric, double ceiling) {
  BenchMaxResult res;
  std::vector<std::pair<std::string, double>> cases;
  const std::string err = load_metric(path, metric, &cases);
  if (!err.empty()) {
    res.report = err;
    return res;
  }
  if (cases.empty()) {
    res.report = "no case carries metric '" + metric + "'";
    return res;
  }

  std::ostringstream out;
  out << "  metric: " << metric << " (ceiling " << ceiling << ")\n";
  bool all_below = true;
  res.max_value = cases.front().second;
  for (const auto& [name, value] : cases) {
    res.max_value = std::max(res.max_value, value);
    const bool below = value <= ceiling;
    all_below = all_below && below;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %9.3f  %s\n", name.c_str(),
                  value, below ? "ok" : "OVER CEILING");
    out << line;
  }
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "  max %.3f over %zu cases (ceiling %.3f)\n", res.max_value,
                cases.size(), ceiling);
  out << summary;
  res.ok = all_below;
  res.report = out.str();
  return res;
}

}  // namespace bate
