#pragma once
// The one fold over recorded events, and the metrics derived from it.
//
// fold() walks a rank's events (or any range of them) once, classifies each
// event once, and yields running totals (instant counts, per-kernel stats,
// msg_flight bytes and time per link class, added event by event in rank
// order) plus the rank's disjoint activity unions, built from each span's
// exact (ts_us, end_us).  Its three consumers: compute_metrics sums the
// folds of all ranks; telemetry::build_report bucketizes the same folds
// into utilization timelines and bandwidth gauges; the overlap-collapse
// monitor folds the event suffix since its last iteration boundary.
// VirtualCluster::run folds each rank once per traced run and feeds both.
//
// Overlap efficiency (the paper's overlapped / total comm time) is measured
// geometrically: per rank, the union of "halo_comm" windows on the comm
// track intersected with the union of kernel spans across the streams.

#include "trace/trace.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace quda::trace {

// running stats for one kernel name across all ranks/streams
struct KernelStat {
  long count = 0;
  double total_us = 0;
  double min_us = 0;
  double max_us = 0;

  void add(double dur_us) {
    if (count == 0) {
      min_us = max_us = dur_us;
    } else {
      if (dur_us < min_us) min_us = dur_us;
      if (dur_us > max_us) max_us = dur_us;
    }
    ++count;
    total_us += dur_us;
  }

  // guarded mean: an empty histogram (e.g. a zero-iteration solve) reports 0
  // rather than dividing by a zero count
  double mean_us() const { return count > 0 ? total_us / static_cast<double>(count) : 0.0; }
};

struct Metrics {
  long events = 0;          // total recorded events across ranks
  long messages = 0;        // isend count
  long halo_bytes = 0;      // modeled bytes across all isends
  long retries = 0;         // reliable-layer retransmissions
  long checksum_errors = 0; // corrupt frames detected on receive
  // delivered wire traffic split by link class (msg_flight events tagged by
  // the transport; all zero on pre-hierarchy traces with untagged flights)
  long shm_bytes = 0;     // same-node shared-memory deliveries
  long ib_bytes = 0;      // one-hop InfiniBand deliveries
  long xswitch_bytes = 0; // cross-leaf-switch fat-tree deliveries
  double comm_us = 0;       // sum over ranks of union of halo_comm windows
  double overlapped_us = 0; // portion of comm_us covered by kernel spans
  double overlap_efficiency = 0; // overlapped_us / comm_us (0 when no comm)
  double kernel_us = 0;          // total device kernel time
  std::map<std::string, KernelStat> kernels;
};

using Interval = std::pair<double, double>; // [begin, end) in simulated us
using Intervals = std::vector<Interval>;

// total length of a disjoint union
double total_length(const Intervals& u);
// a \ b for disjoint sorted unions
Intervals interval_subtract(const Intervals& a, const Intervals& b);

// disjoint sorted activity unions of one rank (or one event range)
struct Activity {
  Intervals kernel;    // device kernels on any stream
  Intervals halo_comm; // halo_comm windows on the comm track
  Intervals pcie;      // host<->device copies
  Intervals recovery;  // rank-failure detect/respawn/rollback/restore/resume
  Intervals stall;     // every other fault span: checkpoint/storage waits
};

inline constexpr int kNumLinkClasses = 3; // sim::LinkClass: shm, ib, xswitch

// totals accumulated across the folded ranks
struct Tally {
  Metrics metrics;
  double flight_us[kNumLinkClasses] = {}; // msg_flight time per link class
};

// Fold events [first, last) of one rank into `tally` (its halo_comm length
// and kernel overlap included) and return the range's activity unions.
Activity fold(const Event* first, const Event* last, Tally& tally);

// every rank of a report folded once, in rank order
struct TraceFold {
  Tally tally;
  std::vector<Activity> ranks; // indexed by rank
};

TraceFold fold(const TraceReport& report);

Metrics compute_metrics(const TraceReport& report);

} // namespace quda::trace
