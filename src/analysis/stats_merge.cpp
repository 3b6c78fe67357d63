#include "src/analysis/stats_merge.h"

#include <algorithm>
#include <fstream>
#include <istream>

#include "src/obs/json.h"
#include "src/util/error.h"

namespace tp {

void append_stats_rows(std::vector<std::vector<std::string>>& rows,
                       const std::string& source, std::istream& in) {
  std::string line;
  i64 record = 0;
  while (std::getline(in, line)) {
    if (obs::blank_line(line)) continue;
    const obs::JsonValue root = obs::parse_json(line);
    if (const obs::JsonValue* counters = root.find("counters"))
      for (const auto& [name, v] : counters->members())
        rows.push_back({source, fmt(record), "counter", name,
                        fmt(v.as_int()), "", "", "", "", "", "", ""});
    if (const obs::JsonValue* gauges = root.find("gauges"))
      for (const auto& [name, v] : gauges->members())
        rows.push_back({source, fmt(record), "gauge", name, fmt(v.as_int()),
                        "", "", "", "", "", "", ""});
    if (const obs::JsonValue* hists = root.find("histograms"))
      for (const auto& [name, h] : hists->members()) {
        const auto field = [&](const char* key) -> const obs::JsonValue& {
          const obs::JsonValue* v = h.find(key);
          TP_REQUIRE(v != nullptr, "stats dump histogram missing field '" +
                                       std::string(key) + "': " + source);
          return *v;
        };
        rows.push_back({source, fmt(record), "histogram", name, "",
                        fmt(field("count").as_int()), fmt(field("sum").as_int()),
                        fmt(field("min").as_int()), fmt(field("max").as_int()),
                        fmt(field("mean").as_number(), 6),
                        fmt(field("p50").as_number(), 6),
                        fmt(field("p95").as_number(), 6)});
      }
    ++record;
  }
}

Table merge_stats_dumps(const std::vector<std::string>& inputs) {
  std::vector<std::vector<std::string>> rows;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    TP_REQUIRE(in.good(), "cannot open stats dump: " + path);
    append_stats_rows(rows, path, in);
  }
  // Deterministic order regardless of input listing or JSON member order.
  // The record column is numeric, so compare it as a number, not a string.
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
              if (a[0] != b[0]) return a[0] < b[0];
              const i64 ra = std::stoll(a[1]);
              const i64 rb = std::stoll(b[1]);
              if (ra != rb) return ra < rb;
              if (a[2] != b[2]) return a[2] < b[2];
              return a[3] < b[3];
            });
  Table t({"source", "record", "kind", "metric", "value", "count", "sum",
           "min", "max", "mean", "p50", "p95"});
  for (std::vector<std::string>& row : rows) t.add_row(std::move(row));
  return t;
}

}  // namespace tp
