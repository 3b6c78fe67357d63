// The answer checker.  Every response the benchmark receives is checked;
// a rejected answer counts as a failed request and makes the run exit
// nonzero.  The six rules:
//
//   1. `ok` is true and the request id is echoed.
//   2. mean_load × (number of directed links) equals
//      expected_total_load(torus, multiple_linear_placement(torus, t))
//      within 1e-9 relative — the total load of any minimal router.
//   3. measured_emax >= lower_bound - 1e-9 (the paper's lower bound).
//   4. ODR with t = 1: measured_emax == floor(k/2)·k^(d-2) exactly.  The
//      planner's predicted_emax is the interior-link form and is not the
//      overall maximum, so it is deliberately not compared.
//   5. Each distinct key is checked semantically once, against its own
//      canonical key string (the answer's "key" must name the request).
//   6. Every later answer for a key is byte-identical to the first.
//
// Rules 2-4 apply to load/analyze answers, which carry measured loads.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "universe.h"

namespace tpbench {

/// Rules 1-5 on one answer to `key`, requested with `id`.  Returns the
/// empty string when the answer passes, else "rule N: <why>".
std::string check_answer(const QueryKey& key, i64 id, std::string_view line);

/// One connection's answers.  record() applies the cheap per-answer
/// checks — the exact `{"id":<id>,"ok":true` prefix (rule 1) and byte
/// identity with this log's first answer for the key (rule 6) — and keeps
/// each key's first answer for the semantic check.  Not thread-safe: one
/// log per client thread.
class AnswerLog {
 public:
  explicit AnswerLog(std::size_t universe) : first_(universe) {}

  /// False when the answer is rejected.
  bool record(i64 id, std::string_view line);

  const std::vector<std::string>& first() const { return first_; }

 private:
  std::vector<std::string> first_;
};

/// Checks every key's first answer once (rules 1-5), and that the logs
/// agree byte for byte where they saw the same key (rule 6).  Fills
/// `first` with the merged first answers (empty for keys never seen).
/// Returns the number of keys rejected, describing each on `err`.
i64 check_first_answers(const std::vector<const AnswerLog*>& logs,
                        const std::vector<QueryKey>& universe,
                        std::vector<std::string>& first, std::ostream& err);

/// Self-test: feeds check_answer/AnswerLog one good answer and one
/// corrupted copy per rule; returns true when the good one passes and
/// every copy is flagged.
bool checker_self_test(std::ostream& out);

}  // namespace tpbench
