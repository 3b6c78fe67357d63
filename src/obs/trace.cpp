#include "src/obs/trace.h"

#include <atomic>

#include "src/obs/timer.h"

namespace tp::obs {

namespace {

/// Small dense thread ids (Chrome renders one lane per tid).
i64 current_tid() {
  static std::atomic<i64> next{1};
  thread_local i64 tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(Stopwatch::now_ns()) {}

void Tracer::push(std::string_view name, std::string_view cat, char phase,
                  i64 value, i64 dur_ns) {
  // Complete events end now and started dur_ns ago; everything else is
  // stamped at the current instant.
  const i64 ts = Stopwatch::now_ns() - epoch_ns_ - (phase == 'X' ? dur_ns : 0);
  const MutexLock lock(mu_);
  events_.push_back(TraceEvent{std::string(name), std::string(cat), phase,
                               ts, current_tid(), value, dur_ns});
}

void Tracer::begin(std::string_view name, std::string_view cat) {
  if (!enabled_) return;
  push(name, cat, 'B');
}

void Tracer::end(std::string_view name) {
  if (!enabled_) return;
  push(name, "", 'E');
}

void Tracer::instant(std::string_view name, std::string_view cat) {
  if (!enabled_) return;
  push(name, cat, 'i');
}

void Tracer::counter(std::string_view name, i64 value,
                     std::string_view cat) {
  if (!enabled_) return;
  push(name, cat, 'C', value);
}

void Tracer::complete(std::string_view name, i64 dur_ns,
                      std::string_view cat) {
  if (!enabled_) return;
  push(name, cat, 'X', 0, dur_ns < 0 ? 0 : dur_ns);
}

std::vector<TraceEvent> Tracer::events() const {
  const MutexLock lock(mu_);
  return events_;
}

void Tracer::clear() {
  const MutexLock lock(mu_);
  events_.clear();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace tp::obs
