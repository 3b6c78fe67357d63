// Error handling for torusplace.
//
// The library throws tp::Error (derived from std::runtime_error) for all
// precondition violations.  TP_REQUIRE is used at public API boundaries;
// TP_ASSERT guards internal invariants and compiles to the same check (the
// cost is negligible next to the combinatorial work this library does, and
// a hard failure beats silently wrong combinatorics).

#pragma once

#include <stdexcept>
#include <string>

namespace tp {

/// Exception type thrown on any precondition or invariant violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
// The message names the failed expression, not its source location:
// service answers carry it, and they must not change with the checkout or
// with the line a check sits on.
[[noreturn]] inline void raise(const char* kind, const char* expr,
                               const std::string& msg) {
  std::string full(kind);
  full += ": (";
  full += expr;
  full += ")";
  if (!msg.empty()) {
    full += " — ";
    full += msg;
  }
  throw Error(full);
}
}  // namespace detail

}  // namespace tp

#define TP_REQUIRE(cond, msg)                                   \
  do {                                                          \
    if (!(cond))                                                \
      ::tp::detail::raise("precondition failed", #cond, (msg)); \
  } while (false)

#define TP_ASSERT(cond, msg)                                            \
  do {                                                                  \
    if (!(cond))                                                        \
      ::tp::detail::raise("internal invariant violated", #cond, (msg)); \
  } while (false)
