#include "checker.h"

#include <cmath>
#include <ostream>

#include "src/load/complete_exchange.h"
#include "src/obs/json.h"
#include "src/placement/placement.h"
#include "src/service/jsonl.h"
#include "src/util/error.h"

namespace tpbench {

namespace {

using tp::obs::JsonValue;

std::string id_prefix(i64 id) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true";
}

double number(const JsonValue& doc, const char* field) {
  const JsonValue* v = doc.find(field);
  if (v == nullptr) throw tp::Error(std::string("missing '") + field + "'");
  return v->as_number();
}

std::string check_doc(const QueryKey& key, i64 id, const JsonValue& doc) {
  const JsonValue* ok = doc.find("ok");
  const JsonValue* echoed = doc.find("id");
  if (ok == nullptr || ok->kind() != JsonValue::Kind::Bool || !ok->as_bool())
    return "rule 1: answer is not ok";
  if (echoed == nullptr || !echoed->is_number() || echoed->as_int() != id)
    return "rule 1: id " + std::to_string(id) + " not echoed";

  const JsonValue* name = doc.find("key");
  if (name == nullptr || !name->is_string() || name->as_string() != key.str())
    return "rule 5: answer is not for key '" + key.str() + "'";
  if (!key.measure) return {};

  const tp::Torus torus(key.radices);
  const double links = static_cast<double>(torus.num_directed_edges());
  const double expected = tp::expected_total_load(
      torus, tp::multiple_linear_placement(torus, key.t));
  const double total = number(doc, "mean_load") * links;
  if (std::abs(total - expected) > 1e-9 * std::max(1.0, std::abs(expected)))
    return "rule 2: mean_load x links = " + std::to_string(total) +
           ", expected total load " + std::to_string(expected);

  const double emax = number(doc, "measured_emax");
  if (emax < number(doc, "lower_bound") - 1e-9)
    return "rule 3: measured_emax below the lower bound";

  if (key.router == tp::RouterKind::Odr && key.t == 1) {
    const i32 k = key.radices[0];
    double want = k / 2;
    for (i32 i = 2; i < key.dims(); ++i) want *= k;
    if (emax != want)
      return "rule 4: ODR t=1 measured_emax " + std::to_string(emax) +
             " != floor(k/2)*k^(d-2) = " + std::to_string(want);
  }
  return {};
}

}  // namespace

std::string check_answer(const QueryKey& key, i64 id, std::string_view line) {
  try {
    return check_doc(key, id, tp::obs::parse_json(line));
  } catch (const tp::Error& e) {
    return std::string("rule 1: unreadable answer (") + e.what() + ")";
  }
}

bool AnswerLog::record(i64 id, std::string_view line) {
  std::string& first = first_[static_cast<std::size_t>(id)];
  const std::string prefix = id_prefix(id);
  bool good = line.substr(0, prefix.size()) == prefix;
  if (good && first.empty())
    first = line;
  else if (good)
    good = first == line;
  return good;
}

i64 check_first_answers(const std::vector<const AnswerLog*>& logs,
                        const std::vector<QueryKey>& universe,
                        std::vector<std::string>& first, std::ostream& err) {
  first.assign(universe.size(), std::string());
  i64 rejected = 0;
  for (std::size_t key = 0; key < universe.size(); ++key) {
    std::string why;
    for (const AnswerLog* log : logs) {
      const std::string& line = log->first()[key];
      if (line.empty()) continue;
      if (first[key].empty())
        first[key] = line;
      else if (first[key] != line)
        why = "rule 6: connections disagree byte for byte";
    }
    if (first[key].empty()) continue;
    if (why.empty())
      why = check_answer(universe[key], static_cast<i64>(key), first[key]);
    if (!why.empty()) {
      ++rejected;
      err << "tp_bench: rejected answer for '" << universe[key].str()
          << "': " << why << "\n";
    }
  }
  return rejected;
}

bool checker_self_test(std::ostream& out) {
  const QueryKey key = tp::service::make_query_key(
      tp::Radices{8, 8, 8}, 1, tp::RouterKind::Odr,
      tp::service::QueryOp::Analyze);
  constexpr i64 kId = 7;
  tp::service::Response response;
  response.ok = true;
  response.result = std::make_shared<const tp::service::QueryResult>(
      tp::service::compute_query(key));
  const JsonValue good = tp::service::response_to_json(JsonValue(kId), response);

  bool pass = true;
  const auto expect = [&](const char* what, const std::string& verdict,
                          bool flagged) {
    const bool ok = flagged == !verdict.empty();
    out << (ok ? "ok    " : "FAIL  ") << what << ": "
        << (verdict.empty() ? "accepted" : verdict) << "\n";
    pass = pass && ok;
  };
  const auto corrupt = [&good](const char* field, JsonValue value) {
    JsonValue copy = good;
    copy.set(field, std::move(value));
    return copy.dump();
  };

  expect("good answer", check_answer(key, kId, good.dump()), false);
  expect("rule 1, ok=false", check_answer(key, kId, corrupt("ok", JsonValue(false))),
         true);
  expect("rule 1, wrong id", check_answer(key, kId, corrupt("id", JsonValue(i64{8}))),
         true);
  const double mean = good.find("mean_load")->as_number();
  expect("rule 2, mean_load off by 1e-6",
         check_answer(key, kId, corrupt("mean_load", JsonValue(mean * (1 + 1e-6)))),
         true);
  const double emax = good.find("measured_emax")->as_number();
  expect("rule 3, lower_bound above measured_emax",
         check_answer(key, kId, corrupt("lower_bound", JsonValue(emax + 1.0))),
         true);
  expect("rule 4, measured_emax + 1",
         check_answer(key, kId, corrupt("measured_emax", JsonValue(emax + 1.0))),
         true);
  expect("rule 5, answer for another key",
         check_answer(key, kId, corrupt("key", JsonValue("analyze d3 k8 t2 odr"))),
         true);

  AnswerLog log(kId + 1);
  const bool first_ok = log.record(kId, good.dump());
  const bool repeat_ok = log.record(kId, good.dump());
  const bool changed_ok =
      log.record(kId, corrupt("summary", JsonValue("changed")));
  expect("rule 6, repeated identical answer",
         first_ok && repeat_ok ? "" : "rejected", false);
  expect("rule 6, repeated answer with one field changed",
         changed_ok ? "" : "rule 6: not byte-identical", true);
  return pass;
}

}  // namespace tpbench
