#pragma once
// Critical-path attribution of one traced run.
//
// The tracer records, next to every event, the happens-before edge that
// gated it (Event::dep_*): mpi_wait carries the sender and send time,
// allreduce the rendezvous-gating rank, copies and kernels their host
// issue anchor, stream_wait the waitee's ready value.  analyze_solve()
// rebuilds each rank's program from those records, then
//  * walks the DAG backward from the makespan-defining rank's completion
//    to time zero and folds the path into the paper's cost vocabulary --
//    interior vs boundary compute, exposed communication, PCIe occupancy,
//    stalls, solver-serial host time, recovery.  The walk uses only
//    recorded doubles, so path length == end-to-end simulated time bitwise;
//  * replays the program forward once, with four sets of edge weights side
//    by side: unedited, zero-latency network, free PCIe, infinite overlap.
//
// DESIGN.md §8 describes the model, the walk and the replay.

#include "trace/trace.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace quda::trace {

// analyzer-side description of the device the trace was recorded on
struct ModelConfig {
  bool dual_copy_engine = false; // GT200: one engine; Fermi: one per direction
};

// attribution categories for critical-path time
enum class PathCat : std::uint8_t {
  Interior,     // interior/local compute (dslash interior, BLAS)
  Boundary,     // boundary compute after the halo arrives
  ExposedComm,  // network flight, blocked waits, collectives, framing overhead
  Pcie,         // PCIe bus occupancy on the path
  StallSync,    // launch overheads, issue gaps, unresolved sync stalls
  SolverSerial, // host-serial solver logic between operations
  Recovery,     // checkpoint writes and rank-failure rollback/restore/respawn
};
inline constexpr int kNumPathCats = 7;

const char* path_cat_name(PathCat cat);

struct CritSummary {
  bool valid = false; // model built, walk closed at t == 0, replay succeeded
  std::string error;
  double makespan_us = 0;          // end-to-end simulated time of the run
  double path_us = 0;              // critical-path length (== makespan when valid)
  double cat_us[kNumPathCats] = {};
  int critical_rank = -1;
  long cross_rank_jumps = 0;
  std::size_t segments = 0;
  double compute_bound_us = 0;       // per-stream kernel-time lower bound
  double replay_identity_us = 0;     // forward replay, unedited weights
  double whatif_zero_latency_us = 0; // message flight and collective trees free
  double whatif_free_pcie_us = 0;    // PCIe transfers free
  double whatif_infinite_overlap_us = 0;

  double interior_us() const { return cat_us[static_cast<int>(PathCat::Interior)]; }
  double boundary_us() const { return cat_us[static_cast<int>(PathCat::Boundary)]; }
  double exposed_comm_us() const { return cat_us[static_cast<int>(PathCat::ExposedComm)]; }
  double pcie_us() const { return cat_us[static_cast<int>(PathCat::Pcie)]; }
  double stall_us() const { return cat_us[static_cast<int>(PathCat::StallSync)]; }
  double solver_us() const { return cat_us[static_cast<int>(PathCat::SolverSerial)]; }
  double recovery_us() const { return cat_us[static_cast<int>(PathCat::Recovery)]; }
};

// full analysis of one traced run: build the program model, walk the
// critical path, attribute it, and run the standard what-if projections
CritSummary analyze_solve(const TraceReport& report, const ModelConfig& config = {});

// human-readable attribution table (README shows a sample)
std::string attribution_table(const CritSummary& summary);

} // namespace quda::trace
