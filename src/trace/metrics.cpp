#include "trace/metrics.h"

#include <algorithm>
#include <cstring>

namespace quda::trace {

namespace {

// merge possibly-overlapping intervals into a disjoint sorted union
Intervals interval_union(Intervals in) {
  std::sort(in.begin(), in.end());
  Intervals out;
  for (const Interval& iv : in) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

// length of the intersection of two disjoint sorted unions
double intersection_length(const Intervals& a, const Intervals& b) {
  double t = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) t += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return t;
}

bool is_recovery_span(const char* name) {
  return std::strcmp(name, "detect") == 0 || std::strcmp(name, "respawn") == 0 ||
         std::strcmp(name, "rollback") == 0 || std::strcmp(name, "restore") == 0 ||
         std::strcmp(name, "resume") == 0;
}

} // namespace

double total_length(const Intervals& u) {
  double t = 0;
  for (const Interval& iv : u) t += iv.second - iv.first;
  return t;
}

Intervals interval_subtract(const Intervals& a, const Intervals& b) {
  Intervals out;
  std::size_t j = 0;
  for (const Interval& iv : a) {
    double lo = iv.first;
    while (j < b.size() && b[j].second <= lo) ++j;
    std::size_t k = j;
    while (k < b.size() && b[k].first < iv.second && lo < iv.second) {
      if (b[k].first > lo) out.emplace_back(lo, b[k].first);
      lo = std::max(lo, b[k].second);
      ++k;
    }
    if (lo < iv.second) out.emplace_back(lo, iv.second);
  }
  return out;
}

Activity fold(const Event* first, const Event* last, Tally& tally) {
  Metrics& m = tally.metrics;
  long* link_bytes[kNumLinkClasses] = {&m.shm_bytes, &m.ib_bytes, &m.xswitch_bytes};
  Activity a;
  for (const Event* e = first; e != last; ++e) {
    ++m.events;
    if (e->instant) {
      if (std::strcmp(e->name, "isend") == 0) {
        ++m.messages;
        m.halo_bytes += e->bytes;
      } else if (std::strcmp(e->name, "retry") == 0) {
        ++m.retries;
      } else if (std::strcmp(e->name, "checksum_error") == 0) {
        ++m.checksum_errors;
      }
      continue;
    }
    const double dur_us = e->end_us - e->ts_us;
    if (e->cat == Cat::Kernel && e->track >= 0) {
      m.kernels[e->name].add(dur_us);
      m.kernel_us += dur_us;
      a.kernel.emplace_back(e->ts_us, e->end_us);
    } else if (e->track == kTrackComm && std::strcmp(e->name, "msg_flight") == 0) {
      // delivered wire traffic by link class (sim::LinkClass numeric values)
      if (e->link >= 0 && e->link < kNumLinkClasses) {
        *link_bytes[e->link] += e->bytes;
        tally.flight_us[e->link] += dur_us;
      }
    } else if (e->track == kTrackComm && std::strcmp(e->name, "halo_comm") == 0) {
      a.halo_comm.emplace_back(e->ts_us, e->end_us);
    } else if (e->cat == Cat::Copy) {
      a.pcie.emplace_back(e->ts_us, e->end_us);
    } else if (e->cat == Cat::Fault) {
      (is_recovery_span(e->name) ? a.recovery : a.stall).emplace_back(e->ts_us, e->end_us);
    }
  }
  a.kernel = interval_union(std::move(a.kernel));
  a.halo_comm = interval_union(std::move(a.halo_comm));
  a.pcie = interval_union(std::move(a.pcie));
  a.recovery = interval_union(std::move(a.recovery));
  a.stall = interval_union(std::move(a.stall));
  m.comm_us += total_length(a.halo_comm);
  m.overlapped_us += intersection_length(a.halo_comm, a.kernel);
  m.overlap_efficiency = m.comm_us > 0 ? m.overlapped_us / m.comm_us : 0.0;
  return a;
}

TraceFold fold(const TraceReport& report) {
  TraceFold f;
  f.ranks.reserve(report.per_rank.size());
  for (const auto& events : report.per_rank)
    f.ranks.push_back(fold(events.data(), events.data() + events.size(), f.tally));
  return f;
}

Metrics compute_metrics(const TraceReport& report) { return fold(report).tally.metrics; }

} // namespace quda::trace
