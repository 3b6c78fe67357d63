#include "src/simulate/wormhole.h"

#include <algorithm>

#include "src/util/error.h"
#include "src/util/small_vec.h"

namespace tp {

namespace {

/// True when traversing this link crosses its ring's dateline (the wrap
/// from k-1 to 0 in +, or 0 to k-1 in -).
bool crosses_dateline(const Torus& torus, const Link& link) {
  const i32 k = torus.radix(link.dim);
  const i32 a = torus.coord_of(link.tail, link.dim);
  return (link.dir == Dir::Pos && a == k - 1) ||
         (link.dir == Dir::Neg && a == 0);
}

}  // namespace

WormholeSim::WormholeSim(const Torus& torus, WormholeConfig config)
    : torus_(torus), config_(config) {
  TP_REQUIRE(config_.vcs_per_link >= 1, "need at least one VC per link");
  TP_REQUIRE(config_.buffer_flits >= 1, "need at least one buffer flit");
  TP_REQUIRE(config_.message_flits >= 1, "messages need at least one flit");
  TP_REQUIRE(config_.stall_threshold >= 1, "stall threshold must be >= 1");
  if (config_.policy == VcPolicy::Dateline)
    TP_REQUIRE(config_.vcs_per_link >= 2,
               "the dateline discipline needs two VCs");
  if (config_.probe != nullptr)
    TP_REQUIRE(config_.probe->num_links() == torus.num_directed_edges(),
               "link probe sized for a different torus");
  FaultRecovery::validate(config_.recovery);
}

WormholeResult WormholeSim::run(const std::vector<Path>& messages) {
  struct Vc {
    i32 owner = -1;   // message index, -1 = free
    i32 flits = 0;    // buffered flits
    i32 fresh = 0;    // flits that arrived this cycle (cannot depart yet)
  };
  struct Msg {
    const Path* path = nullptr;
    i64 at_source = 0;  // flits not yet injected
    i64 ejected = 0;
    i32 head_idx = -1;  // furthest path link with an allocated VC
    i32 tail_idx = 0;   // earliest path link still allocated
    std::vector<i32> vc_of;  // allocated VC index per path link
    bool done = false;
    bool waiting = false;  // parked on a backoff wait (dynamic faults only)
  };

  const i32 V = config_.vcs_per_link;
  const i64 L = config_.message_flits;
  std::vector<Vc> vcs(
      static_cast<std::size_t>(torus_.num_directed_edges() * V));
  auto vc_at = [&](EdgeId e, i32 v) -> Vc& {
    return vcs[static_cast<std::size_t>(e * V + v)];
  };

  std::vector<Msg> msgs(messages.size());
  i64 outstanding = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    messages[i].verify_connected(torus_);
    TP_REQUIRE(messages[i].length() >= 1,
               "wormhole messages need at least one hop");
    msgs[i].path = &messages[i];
    msgs[i].at_source = L;
    msgs[i].vc_of.assign(messages[i].edges.size(), -1);
    ++outstanding;
  }

  // The VC class the dateline discipline assigns on path link j: 1 if an
  // earlier link of the same dimension segment crossed the dateline.
  auto dateline_class = [&](const Path& path, std::size_t j) -> i32 {
    const i32 dim = torus_.link(path.edges[j]).dim;
    for (std::size_t i = j; i > 0; --i) {
      const Link prev = torus_.link(path.edges[i - 1]);
      if (prev.dim != dim) break;
      if (crosses_dateline(torus_, prev)) return 1;
    }
    return 0;
  };

  // Chooses (and validates) the VC for message m's head on path link j.
  // Returns the VC index or -1 if none is available.
  auto choose_vc = [&](const Msg& m, std::size_t j) -> i32 {
    const EdgeId e = m.path->edges[j];
    switch (config_.policy) {
      case VcPolicy::SingleVc:
        return vc_at(e, 0).owner < 0 ? 0 : -1;
      case VcPolicy::AnyFree:
        for (i32 v = 0; v < V; ++v)
          if (vc_at(e, v).owner < 0) return v;
        return -1;
      case VcPolicy::Dateline: {
        const i32 v = dateline_class(*m.path, j);
        return vc_at(e, v).owner < 0 ? v : -1;
      }
    }
    return -1;
  };

  WormholeResult result;
  obs::LinkProbe* const probe = config_.probe;
  i64 cycle = 0;
  i64 last_progress = 0;
  std::vector<std::size_t> rr(
      static_cast<std::size_t>(torus_.num_directed_edges()), 0);

  // Dormant without a schedule, so the fault-free run is reproduced
  // bit-for-bit.
  FaultRecovery recovery(torus_, config_.recovery, messages.size());

  // Frees every VC the worm holds and discards all its flits; the message
  // is back at its source with the full payload to retransmit.
  auto teardown = [&](Msg& m) {
    for (i32 j = m.tail_idx; j <= m.head_idx; ++j) {
      Vc& vc = vc_at(m.path->edges[static_cast<std::size_t>(j)],
                     m.vc_of[static_cast<std::size_t>(j)]);
      vc.owner = -1;
      vc.flits = 0;
      vc.fresh = 0;
    }
    m.head_idx = -1;
    m.tail_idx = 0;
    m.at_source = L;
    m.ejected = 0;
    std::fill(m.vc_of.begin(), m.vc_of.end(), -1);
  };

  // Charges one retry attempt: parks the message on a backoff wait, or
  // drops it once the budget is spent.
  auto handle_blocked = [&](std::size_t mi) {
    Msg& m = msgs[mi];
    m.waiting = recovery.back_off(mi, cycle);
    if (!m.waiting) {
      m.done = true;
      --outstanding;
    }
  };

  std::vector<std::size_t> due;
  while (outstanding > 0) {
    bool moved = false;
    bool recovered = false;
    if (recovery.enabled()) {
      recovery.advance_to(cycle);
      // Tear down every worm cut by a dead wire: any link of its
      // allocated chain, the head's next hop, or (if still at the
      // source) its first link.
      for (std::size_t mi = 0; mi < msgs.size(); ++mi) {
        Msg& m = msgs[mi];
        if (m.done || m.waiting) continue;
        const auto& edges = m.path->edges;
        bool cut = false;
        if (m.head_idx < 0) {
          cut = m.at_source > 0 && recovery.is_dead(edges[0]);
        } else {
          for (i32 j = m.tail_idx; j <= m.head_idx && !cut; ++j)
            cut = recovery.is_dead(edges[static_cast<std::size_t>(j)]);
          const auto next = static_cast<std::size_t>(m.head_idx) + 1;
          if (!cut && next < edges.size()) cut = recovery.is_dead(edges[next]);
        }
        if (cut) {
          teardown(m);
          handle_blocked(mi);
          recovered = true;
        }
      }
      // Wake messages whose backoff expired, in message-index order (each
      // wake draws from the reroute RNG, so the order is part of the
      // result): each re-injects over a path sampled against the live
      // fault set, or is charged another attempt when no path survives.
      due.clear();
      for (std::size_t mi = 0; recovery.pop_wake(cycle, mi);)
        due.push_back(mi);
      std::sort(due.begin(), due.end());
      for (std::size_t mi : due) {
        Msg& m = msgs[mi];
        m.waiting = false;
        recovered = true;
        const NodeId src = m.path->source;
        const NodeId dst = torus_.link(m.path->edges.back()).head;
        if (recovery.num_paths(src, dst) == 0) {
          handle_blocked(mi);
          continue;
        }
        m.path = &recovery.reroute(src, dst);
        m.vc_of.assign(m.path->edges.size(), -1);
      }
    }
    for (auto& vc : vcs) vc.fresh = 0;

    // Ejection: each message drains one flit per cycle at its destination.
    for (std::size_t mi = 0; mi < msgs.size(); ++mi) {
      Msg& m = msgs[mi];
      if (m.done || m.head_idx < 0) continue;
      const auto last = static_cast<i32>(m.path->edges.size()) - 1;
      if (m.head_idx != last) continue;
      Vc& vc = vc_at(m.path->edges[static_cast<std::size_t>(last)],
                     m.vc_of[static_cast<std::size_t>(last)]);
      if (vc.flits - vc.fresh <= 0) continue;
      --vc.flits;
      ++m.ejected;
      moved = true;
      if (vc.flits == 0 && m.tail_idx == last && m.at_source == 0) {
        // Tail left the network.
        vc.owner = -1;
        if (m.ejected == L) {
          m.done = true;
          --outstanding;
          ++result.delivered;
          result.cycles = std::max(result.cycles, cycle + 1);
        }
      }
    }

    // One flit transfer per physical link.
    for (EdgeId e = 0; e < torus_.num_directed_edges(); ++e) {
      if (recovery.is_dead(e)) continue;  // dead wires never transmit
      // Candidates: (message, source position) pairs whose next hop is e.
      // Positions: -1 = injection from the source node.
      struct Candidate {
        std::size_t mi;
        i32 idx;  // chain position whose flit crosses e; -1 = inject
      };
      SmallVec<Candidate, 32> candidates;
      for (std::size_t mi = 0;
           mi < msgs.size() && candidates.size() < candidates.capacity();
           ++mi) {
        Msg& m = msgs[mi];
        if (m.done || m.waiting) continue;
        const auto& edges = m.path->edges;
        // Injection into link 0.
        if (m.at_source > 0 && edges[0] == e) {
          if (m.head_idx >= 0) {
            Vc& vc = vc_at(e, m.vc_of[0]);
            if (vc.flits < config_.buffer_flits)
              candidates.push_back({mi, -1});
          } else if (choose_vc(m, 0) >= 0) {
            candidates.push_back({mi, -1});
          }
          continue;
        }
        // Forwarding from chain position idx across edges[idx + 1] == e.
        if (m.head_idx < 0) continue;
        for (i32 idx = m.tail_idx; idx <= m.head_idx; ++idx) {
          const auto j = static_cast<std::size_t>(idx);
          if (j + 1 >= edges.size() || edges[j + 1] != e) continue;
          Vc& src = vc_at(edges[j], m.vc_of[j]);
          if (src.flits - src.fresh <= 0) continue;
          if (idx + 1 <= m.head_idx) {
            Vc& dst = vc_at(e, m.vc_of[j + 1]);
            if (dst.flits < config_.buffer_flits)
              candidates.push_back({mi, idx});
          } else if (choose_vc(m, j + 1) >= 0) {
            candidates.push_back({mi, idx});
          }
        }
      }
      if (candidates.empty()) continue;
      if (probe != nullptr) {
        // Contention for the physical wire: all candidates want link e this
        // cycle but only one flit crosses; the rest stall a cycle.
        probe->on_queue_depth(e, cycle, static_cast<i64>(candidates.size()));
        if (candidates.size() > 1)
          probe->on_stall(e, cycle, static_cast<i64>(candidates.size()) - 1);
      }
      const Candidate pick =
          candidates[rr[static_cast<std::size_t>(e)] % candidates.size()];
      ++rr[static_cast<std::size_t>(e)];

      Msg& m = msgs[pick.mi];
      if (pick.idx < 0) {
        // Injection.
        if (m.head_idx < 0) {
          const i32 v = choose_vc(m, 0);
          TP_ASSERT(v >= 0, "injection candidate lost its VC");
          m.vc_of[0] = v;
          m.head_idx = 0;
          vc_at(e, v).owner = static_cast<i32>(pick.mi);
        }
        Vc& dst = vc_at(e, m.vc_of[0]);
        ++dst.flits;
        ++dst.fresh;
        --m.at_source;
      } else {
        const auto j = static_cast<std::size_t>(pick.idx);
        Vc& src = vc_at(m.path->edges[j], m.vc_of[j]);
        if (pick.idx + 1 > m.head_idx) {
          const i32 v = choose_vc(m, j + 1);
          TP_ASSERT(v >= 0, "head candidate lost its VC");
          m.vc_of[j + 1] = v;
          m.head_idx = pick.idx + 1;
          vc_at(e, v).owner = static_cast<i32>(pick.mi);
        }
        Vc& dst = vc_at(e, m.vc_of[j + 1]);
        --src.flits;
        ++dst.flits;
        ++dst.fresh;
        // Tail bookkeeping: free the source VC once drained and no flits
        // can ever enter it again.
        if (src.flits == 0 && pick.idx == m.tail_idx &&
            (pick.idx > 0 || m.at_source == 0)) {
          src.owner = -1;
          ++m.tail_idx;
        }
      }
      ++result.flits_moved;
      if (probe != nullptr) probe->on_forward(e, cycle);
      moved = true;
    }

    if (moved || recovered) last_progress = cycle;
    // Every live message parked on a backoff wait: jump straight to the
    // earliest wake instead of spinning (and spuriously "stalling").
    if (!moved && !recovered &&
        recovery.waiting() == static_cast<std::size_t>(outstanding)) {
      const i64 next_wake = recovery.resume_at(cycle);
      if (next_wake > cycle) {
        cycle = next_wake;
        last_progress = cycle;
        continue;
      }
    }
    if (cycle - last_progress >= config_.stall_threshold) {
      result.deadlocked = true;
      result.cycles = cycle;
      for (const Msg& m : msgs)
        if (!m.done) ++result.stuck_messages;
      break;
    }
    ++cycle;
    TP_REQUIRE(cycle < (1 << 26), "wormhole simulation runaway");
  }
  static_cast<RecoveryStats&>(result) = recovery.stats();
  return result;
}

}  // namespace tp
