#include "src/obs/linkprobe.h"

#include "src/util/error.h"

namespace tp::obs {

LinkProbe::LinkProbe(i64 num_directed_edges, i32 dims, i64 window_width,
                     std::size_t window_capacity)
    : dims_(dims),
      links_(static_cast<std::size_t>(num_directed_edges)),
      forwards_series_(window_width, window_capacity),
      queue_series_(window_width, window_capacity),
      stall_series_(window_width, window_capacity) {
  TP_REQUIRE(num_directed_edges >= 0, "negative link count");
  TP_REQUIRE(dims >= 1, "link probe needs at least one dimension");
  TP_REQUIRE(num_directed_edges % (2 * dims) == 0,
             "link count is not 2 * dims * nodes");
}

i64 LinkProbe::total_forwards() const {
  i64 n = 0;
  for (const LinkCounters& c : links_) n += c.forwards;
  return n;
}

i64 LinkProbe::total_stalls() const {
  i64 n = 0;
  for (const LinkCounters& c : links_) n += c.stalls;
  return n;
}

i64 LinkProbe::active_links() const {
  i64 n = 0;
  for (const LinkCounters& c : links_)
    if (c.forwards > 0 || c.busy_cycles > 0 || c.peak_queue > 0 ||
        c.stalls > 0)
      ++n;
  return n;
}

void LinkProbe::reset() {
  for (LinkCounters& c : links_) c = LinkCounters{};
  forwards_series_.clear();
  queue_series_.clear();
  stall_series_.clear();
}

}  // namespace tp::obs
