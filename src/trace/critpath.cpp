#include "trace/critpath.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <vector>

namespace quda::trace {

namespace {

// ---- the program model --------------------------------------------------------
//
// Each rank's program is an ordered list of host steps (anchors) plus the
// device-op timeline of its streams and copy engines.  The host time between
// two anchors is a gap that belongs to the later step: it runs from the
// previous step's end to this step's begin.  Every fact is stored once; the
// walk and the replay derive the rest (a wait's send time is its sender's
// Isend begin, a collective's gate time is the gate rank's step begin, an
// op's gate is its device predecessor's end or its issue step's begin).

enum class StepKind : std::uint8_t {
  Isend,      // message posted (anchor only; overhead lands in the next gap)
  Irecv,      // receive posted (anchor; supplies the wait's post time)
  Wait,       // host blocks for a matched message
  Collective, // allreduce rendezvous
  SyncCopy,   // host-blocking PCIe transfer
  AsyncCopy,  // async transfer issue (DeviceOp runs on stream + engine)
  Kernel,     // kernel issue (DeviceOp runs on the stream)
  StreamSync, // host blocks on one stream
  DeviceSync, // host blocks on all streams + engines
  StreamWait, // cross-stream ordering edge (no host cost)
};

struct Step {
  double begin_us = 0; // host clock reaching the step (the gap ends here)
  double end_us = 0;   // host clock after the step
  double edge_us = 0;  // Wait: network flight time; Collective: tree cost
  int peer = -1;       // Isend: destination; Wait: sender; Collective: gate rank
  int tag = -1;        // Isend / Wait: message tag
  int match = -1;      // Wait: the sender's Isend step; Collective: generation k
  int irecv_step = -1; // Wait: this rank's matching Irecv step
  int op = -1;         // issue: its DeviceOp; StreamSync/DeviceSync: gating op (-1 none)
  int stream = -1;     // StreamSync target / StreamWait waiter
  int waitee = -1;     // StreamWait source stream
  StepKind kind = StepKind::Isend;
  PathCat gap = PathCat::SolverSerial; // category of the host gap ending at begin_us
  bool dropped = false;                // Isend: fault tombstone, never delivered
};

// one device-side operation (kernel execution or PCIe transfer)
struct DeviceOp {
  const char* name = "";
  double start_us = 0;  // execution begin (kernels: gate + launch overhead)
  double end_us = 0;    // execution end (exact recorded double)
  int pred_op = -1;     // device op whose end gated this one; -1: the host issue
  int issue_step = -1;  // index of the issuing Step in the rank program
  int stream = -1;      // -1: sync copy (engine only)
  int engine = -1;      // copies only
  bool is_kernel = false;
};

struct RankProgram {
  std::vector<Step> steps;
  std::vector<DeviceOp> ops;
  std::vector<int> collectives; // k -> step index of the k-th collective
  int num_streams = 0;
  double end_us = 0;                        // the rank's final simulated clock
  PathCat tail_gap = PathCat::SolverSerial; // category of the gap after the last step
};

struct ProgramModel {
  std::vector<RankProgram> ranks;
  int num_engines = 1;
  std::string error; // non-empty: the trace could not be modeled
  bool ok() const { return error.empty(); }
};

// element of a model vector by an int index (the model's "none" is -1)
template <typename T>
const T& at(const std::vector<T>& v, int i) {
  return v[static_cast<std::size_t>(i)];
}
template <typename T>
T& at(std::vector<T>& v, int i) {
  return v[static_cast<std::size_t>(i)];
}

// host clock before step k: the previous step's end (the gap's begin)
double gap_begin(const RankProgram& prog, std::size_t k) {
  return k > 0 ? prog.steps[k - 1].end_us : 0.0;
}

// max(issue, gating resource): where the op's launch gap begins
double gate_us(const RankProgram& prog, const DeviceOp& op) {
  return op.pred_op >= 0 ? at(prog.ops, op.pred_op).end_us : at(prog.steps, op.issue_step).begin_us;
}

bool named(const Event& e, const char* name) { return std::strcmp(e.name, name) == 0; }

// [begin, end) of a container span used for gap classification
struct Interval {
  double begin = 0;
  double end = 0;
};

// reconstructed device resource (stream or copy engine): its ready value and
// the op that last advanced it.  Invariant: value > 0 implies last_op >= 0
// and value == ops[last_op].end_us.
struct ResState {
  double value = 0;
  int last_op = -1;
};

// copy-engine index for a memcpy event, mirroring Device::pick_engine
int engine_of(const Event& e, int num_engines) {
  const bool h2d = std::strstr(e.name, "h2d") != nullptr;
  return num_engines == 2 ? (h2d ? 0 : 1) : 0;
}

// recorded cross-rank edge times, checked once every rank is extracted:
// each must equal the begin of the step it names on the other rank
struct RankEdges {
  std::vector<std::pair<int, double>> sends; // (Wait step, recorded send time)
  std::vector<double> gate_ts;               // [k]: the k-th collective's gate time
};

// per-rank extraction pass: turn the recorded event list into a RankProgram,
// re-deriving device gating by replaying the simulator's max() state
// computations on the exact recorded doubles
class RankExtractor {
public:
  RankExtractor(const std::vector<Event>& events, int rank, ProgramModel& model, RankEdges& edges)
      : events_(events), rank_(rank), model_(model), prog_(at(model.ranks, rank)), edges_(edges) {}

  void run() {
    // the rank's end anchor is its latest host-side end, so trailing host
    // time not followed by an anchor (the tail of the final container span)
    // still lands on the path
    double final_end = 0;
    collect_containers(final_end);
    for (std::size_t i = 0; i < events_.size() && model_.ok(); ++i) dispatch(i);
    if (!model_.ok() || !push_gap(std::max(final_end, cursor_))) return;
    prog_.end_us = cursor_;
    prog_.tail_gap = gap_;
    prog_.num_streams = static_cast<int>(streams_.size());
  }

private:
  void fail(const std::string& what) {
    if (model_.error.empty())
      model_.error = "rank " + std::to_string(rank_) + ": " + what;
  }

  // ---- pass 1: container spans classifying host gaps ------------------------

  void collect_containers(double& final_end) {
    for (const Event& e : events_) {
      if (e.track < 0) final_end = std::max(final_end, e.end_us);
      if (e.instant || e.track != kTrackHost) continue;
      if (e.cat == Cat::Comm && (named(e, "send_frame") || named(e, "recv_frame")))
        comm_ivs_.push_back({e.ts_us, e.end_us});
      else if (e.cat == Cat::Op && (named(e, "halo_dslash") || named(e, "gauge_exchange")))
        dev_ivs_.push_back({e.ts_us, e.end_us});
      else if (e.cat == Cat::Fault &&
               (named(e, "checkpoint") || named(e, "ckpt_commit") || named(e, "rollback") ||
                named(e, "restore") || named(e, "detect") || named(e, "respawn") ||
                named(e, "resume")))
        rec_ivs_.push_back({e.ts_us, e.end_us});
    }
    auto by_begin = [](const Interval& a, const Interval& b) { return a.begin < b.begin; };
    std::sort(comm_ivs_.begin(), comm_ivs_.end(), by_begin);
    std::sort(dev_ivs_.begin(), dev_ivs_.end(), by_begin);
    std::sort(rec_ivs_.begin(), rec_ivs_.end(), by_begin);
  }

  // classify a gap by its innermost container, probed at the gap's
  // midpoint: recovery spans win (nothing nests inside them), then comm
  // framing (send/recv_frame nest inside halo_dslash), then device issue;
  // host time outside every container is solver-serial.  Midpoints are
  // monotonically increasing, so scan pointers suffice.
  PathCat classify(double mid) {
    while (rec_idx_ < rec_ivs_.size() && rec_ivs_[rec_idx_].end <= mid) ++rec_idx_;
    if (rec_idx_ < rec_ivs_.size() && rec_ivs_[rec_idx_].begin <= mid)
      return PathCat::Recovery;
    while (comm_idx_ < comm_ivs_.size() && comm_ivs_[comm_idx_].end <= mid) ++comm_idx_;
    if (comm_idx_ < comm_ivs_.size() && comm_ivs_[comm_idx_].begin <= mid)
      return PathCat::ExposedComm;
    while (dev_idx_ < dev_ivs_.size() && dev_ivs_[dev_idx_].end <= mid) ++dev_idx_;
    if (dev_idx_ < dev_ivs_.size() && dev_ivs_[dev_idx_].begin <= mid)
      return PathCat::StallSync;
    return PathCat::SolverSerial;
  }

  // ---- pass 2 helpers -------------------------------------------------------

  // move the host cursor to the next anchor, classifying the gap it crosses
  bool push_gap(double to) {
    if (to < cursor_) {
      fail("host anchor regressed in time");
      return false;
    }
    gap_ = to > cursor_ ? classify(cursor_ + 0.5 * (to - cursor_)) : PathCat::SolverSerial;
    cursor_ = to;
    return true;
  }

  // append a step anchored at the cursor; the host clock after it is s.end_us
  void push_step(Step s) {
    s.begin_us = cursor_;
    s.gap = gap_;
    cursor_ = s.end_us;
    prog_.steps.push_back(s);
  }

  int push_op(DeviceOp op, ResState& res) {
    op.issue_step = static_cast<int>(prog_.steps.size());
    const int oi = static_cast<int>(prog_.ops.size());
    prog_.ops.push_back(op);
    res.value = op.end_us;
    res.last_op = oi;
    return oi;
  }

  ResState& stream_state(int stream) {
    if (stream >= static_cast<int>(streams_.size()))
      streams_.resize(static_cast<std::size_t>(stream) + 1);
    return streams_[static_cast<std::size_t>(stream)];
  }

  ResState& engine_state(int engine) {
    if (engine >= static_cast<int>(engines_.size()))
      engines_.resize(static_cast<std::size_t>(engine) + 1);
    return engines_[static_cast<std::size_t>(engine)];
  }

  // ---- pass 2: event dispatch ----------------------------------------------

  void dispatch(std::size_t i) {
    const Event& e = events_[i];
    if (e.track >= 0) {
      if (e.cat == Cat::Kernel && !e.instant) return on_kernel(e);
      if (e.cat == Cat::Copy && !e.instant) return on_async_copy(e);
      if (e.cat == Cat::Sync && e.instant && named(e, "stream_wait")) return on_stream_wait(e);
      return; // unknown stream activity: observational only, not modeled
    }
    if (e.track != kTrackHost) return; // comm / solver tracks are containers
    switch (e.cat) {
      case Cat::Comm:
        if (e.instant && named(e, "isend")) return on_isend(e, i);
        if (e.instant && named(e, "irecv")) return on_irecv(e);
        if (!e.instant && named(e, "mpi_wait")) return on_wait(e);
        return; // send_frame / recv_frame: containers
      case Cat::Copy:
        if (!e.instant) return on_sync_copy(e);
        return;
      case Cat::Sync:
        if (!e.instant && named(e, "stream_sync")) return on_stream_sync(e);
        if (!e.instant && named(e, "device_sync")) return on_device_sync(e);
        return;
      case Cat::Collective:
        if (!e.instant) return on_collective(e);
        return;
      case Cat::Fault:
        // a recovery epoch cleared the transport channels: receives posted
        // before the reset can never be waited on again
        if (e.instant && named(e, "recovery_reset")) irecv_fifo_.clear();
        return;
      default:
        return; // Solver / Op instants and containers
    }
  }

  void on_isend(const Event& e, std::size_t i) {
    if (!push_gap(e.ts_us)) return;
    Step s;
    s.kind = StepKind::Isend;
    s.end_us = e.ts_us;
    s.peer = e.peer;
    s.tag = e.tag;
    // a dropped attempt is tagged by the fault tombstone recorded right after
    s.dropped = i + 1 < events_.size() && events_[i + 1].cat == Cat::Fault &&
                events_[i + 1].instant && named(events_[i + 1], "drop");
    push_step(s);
  }

  void on_irecv(const Event& e) {
    if (!push_gap(e.ts_us)) return;
    irecv_fifo_[{e.peer, e.tag}].push_back(static_cast<int>(prog_.steps.size()));
    Step s;
    s.kind = StepKind::Irecv;
    s.end_us = e.ts_us;
    push_step(s);
  }

  void on_wait(const Event& e) {
    if (!push_gap(e.ts_us)) return;
    if (e.dep_rank < 0) return fail("mpi_wait without a sender edge");
    if (e.dep_rank != e.peer) return fail("mpi_wait edge names a rank other than its channel peer");
    auto& q = irecv_fifo_[{e.peer, e.tag}];
    if (q.empty()) return fail("mpi_wait without a posted irecv");
    Step s;
    s.kind = StepKind::Wait;
    s.end_us = e.end_us;
    s.peer = e.peer;
    s.tag = e.tag;
    s.edge_us = e.edge_us;
    s.irecv_step = q.front();
    q.pop_front();
    // the recorded arrival gate, recomputed bitwise: the wait cannot end
    // before it (the difference is the local MPI overhead)
    const double post = at(prog_.steps, s.irecv_step).begin_us;
    if (e.end_us < std::max(e.ts_us, std::max(e.dep_ts_us, post) + e.edge_us))
      return fail("mpi_wait ended before its recomputed arrival");
    edges_.sends.emplace_back(static_cast<int>(prog_.steps.size()), e.dep_ts_us);
    push_step(s);
  }

  void on_collective(const Event& e) {
    if (!push_gap(e.ts_us)) return;
    if (e.dep_rank < 0 || e.dep_rank >= static_cast<int>(model_.ranks.size()))
      return fail("allreduce without a rendezvous edge");
    Step s;
    s.kind = StepKind::Collective;
    s.end_us = e.end_us;
    s.peer = e.dep_rank;
    s.edge_us = e.edge_us;
    s.match = static_cast<int>(prog_.collectives.size());
    prog_.collectives.push_back(static_cast<int>(prog_.steps.size()));
    edges_.gate_ts.push_back(e.dep_ts_us);
    push_step(s);
  }

  void on_sync_copy(const Event& e) {
    const double issue = e.dep_ts_us;
    if (issue < 0) return fail("sync copy without an issue anchor");
    if (!push_gap(issue)) return;
    DeviceOp op;
    op.name = e.name;
    op.engine = engine_of(e, model_.num_engines);
    ResState& eng = engine_state(op.engine);
    const double gate = std::max(issue, eng.value);
    if (e.ts_us != gate) return fail("sync copy start does not match its engine gate");
    op.start_us = e.ts_us;
    op.end_us = e.end_us;
    op.pred_op = (eng.last_op >= 0 && eng.value == gate) ? eng.last_op : -1;
    if (op.pred_op < 0 && gate != issue) return fail("sync copy gated by an untracked engine");
    Step s;
    s.kind = StepKind::SyncCopy;
    s.end_us = e.end_us;
    s.op = push_op(op, eng);
    push_step(s);
  }

  void on_async_copy(const Event& e) {
    const double issue = e.dep_ts_us;
    if (issue < 0) return fail("async copy without an issue anchor");
    if (!push_gap(issue)) return;
    DeviceOp op;
    op.name = e.name;
    op.stream = e.track;
    op.engine = engine_of(e, model_.num_engines);
    ResState& st = stream_state(e.track);
    ResState& eng = engine_state(op.engine);
    const double gate = std::max({issue, st.value, eng.value});
    if (e.ts_us != gate) return fail("async copy start does not match its gate");
    op.start_us = e.ts_us;
    op.end_us = e.end_us;
    if (st.last_op >= 0 && st.value == gate)
      op.pred_op = st.last_op;
    else if (eng.last_op >= 0 && eng.value == gate)
      op.pred_op = eng.last_op;
    if (op.pred_op < 0 && gate != issue) return fail("async copy gated by an untracked resource");
    Step s;
    s.kind = StepKind::AsyncCopy;
    s.end_us = issue;
    s.op = push_op(op, st);
    eng = st;
    push_step(s);
  }

  void on_kernel(const Event& e) {
    const double issue = e.dep_ts_us;
    if (issue < 0) return fail("kernel without an issue anchor");
    if (!push_gap(issue)) return;
    ResState& st = stream_state(e.track);
    const double gate = std::max(issue, st.value);
    if (e.ts_us < gate) return fail("kernel started before its stream gate");
    DeviceOp op;
    op.is_kernel = true;
    op.name = e.name;
    op.stream = e.track;
    op.start_us = e.ts_us; // gate + launch overhead
    op.end_us = e.end_us;
    op.pred_op = (st.last_op >= 0 && st.value == gate) ? st.last_op : -1;
    if (op.pred_op < 0 && gate != issue) return fail("kernel gated by an untracked stream");
    Step s;
    s.kind = StepKind::Kernel;
    s.end_us = issue;
    s.op = push_op(op, st);
    push_step(s);
  }

  void on_stream_wait(const Event& e) {
    if (!push_gap(e.ts_us)) return;
    const int waiter = e.track;
    const int waitee = e.tag;
    if (waitee < 0) return fail("stream_wait without a source stream");
    const ResState src = stream_state(waitee);
    if (src.value != e.dep_ts_us) return fail("stream_wait source value mismatch");
    ResState& dst = stream_state(waiter);
    if (e.dep_ts_us > dst.value) dst = src;
    Step s;
    s.kind = StepKind::StreamWait;
    s.end_us = e.ts_us;
    s.stream = waiter;
    s.waitee = waitee;
    push_step(s);
  }

  void on_stream_sync(const Event& e) {
    if (!push_gap(e.ts_us)) return;
    Step s;
    s.kind = StepKind::StreamSync;
    s.end_us = e.end_us;
    s.stream = e.tag;
    if (s.stream < 0) return fail("stream_sync without a stream");
    const ResState& st = stream_state(s.stream); // sizes the replay's streams too
    if (e.end_us > e.ts_us) {
      if (st.value != e.end_us || st.last_op < 0)
        return fail("stream_sync end does not match the stream's last op");
      s.op = st.last_op;
    }
    push_step(s);
  }

  void on_device_sync(const Event& e) {
    if (!push_gap(e.ts_us)) return;
    Step s;
    s.kind = StepKind::DeviceSync;
    s.end_us = e.end_us;
    if (e.end_us > e.ts_us) {
      for (const ResState& st : streams_)
        if (st.value == e.end_us && st.last_op >= 0) s.op = st.last_op;
      if (s.op < 0)
        for (const ResState& eng : engines_)
          if (eng.value == e.end_us && eng.last_op >= 0) s.op = eng.last_op;
      if (s.op < 0) return fail("device_sync end does not match any device resource");
    }
    push_step(s);
  }

  const std::vector<Event>& events_;
  const int rank_;
  ProgramModel& model_;
  RankProgram& prog_;
  double cursor_ = 0;
  PathCat gap_ = PathCat::SolverSerial; // category of the gap ending at cursor_
  std::vector<Interval> comm_ivs_, dev_ivs_, rec_ivs_;
  std::size_t comm_idx_ = 0, dev_idx_ = 0, rec_idx_ = 0;
  std::vector<ResState> streams_, engines_;
  std::map<std::pair<int, int>, std::deque<int>> irecv_fifo_; // (src, tag)
  RankEdges& edges_;
};

// check every recorded cross-rank edge against the step it names.  A wait's
// send is the sender's non-dropped Isend to this rank and tag at exactly the
// recorded send time (steps are time-ordered, so a binary search finds it;
// among equal times, program order wins).  Sends a recovery epoch discarded
// are never named by any wait, so no channel state needs replaying.
void link_edges(ProgramModel& model, const std::vector<RankEdges>& edges) {
  const std::size_t n = model.ranks.size();
  const std::size_t count = model.ranks[0].collectives.size();
  for (const RankProgram& prog : model.ranks)
    if (prog.collectives.size() != count) {
      model.error = "ranks disagree on the number of collectives";
      return;
    }
  for (std::size_t r = 0; r < n; ++r) {
    RankProgram& prog = model.ranks[r];
    for (const auto& [wi, send_ts] : edges[r].sends) {
      Step& w = at(prog.steps, wi);
      if (w.peer >= static_cast<int>(n)) {
        model.error = "mpi_wait names a sender outside the cluster";
        return;
      }
      const std::vector<Step>& sender = at(model.ranks, w.peer).steps;
      auto it = std::lower_bound(sender.begin(), sender.end(), send_ts,
                                 [](const Step& s, double ts) { return s.begin_us < ts; });
      while (it != sender.end() && it->begin_us == send_ts &&
             !(it->kind == StepKind::Isend && it->peer == static_cast<int>(r) &&
               it->tag == w.tag && !it->dropped))
        ++it;
      if (it == sender.end() || it->begin_us != send_ts) {
        model.error = "mpi_wait's send edge matches no isend on its channel";
        return;
      }
      w.match = static_cast<int>(it - sender.begin());
    }
    // generation k's gate rank reached its k-th collective at exactly the
    // recorded gate time
    for (std::size_t k = 0; k < count; ++k) {
      const Step& c = at(prog.steps, prog.collectives[k]);
      const RankProgram& gate = at(model.ranks, c.peer);
      if (at(gate.steps, gate.collectives[k]).begin_us != edges[r].gate_ts[k]) {
        model.error = "collective gate time differs from the gate rank's arrival";
        return;
      }
    }
  }
}

ProgramModel build_model(const TraceReport& report, const ModelConfig& config) {
  ProgramModel model;
  model.num_engines = config.dual_copy_engine ? 2 : 1;
  if (!report.enabled || report.per_rank.empty()) {
    model.error = "trace is empty or was not enabled";
    return model;
  }
  model.ranks.resize(report.per_rank.size());
  std::vector<RankEdges> edges(report.per_rank.size());
  for (std::size_t r = 0; r < report.per_rank.size(); ++r) {
    RankExtractor(report.per_rank[r], static_cast<int>(r), model, edges[r]).run();
    if (!model.ok()) return model;
  }
  link_edges(model, edges);
  return model;
}

// ---- backward walk ------------------------------------------------------------

PathCat op_cat(const DeviceOp& op) {
  if (!op.is_kernel) return PathCat::Pcie;
  return std::strstr(op.name, "boundary") != nullptr ? PathCat::Boundary : PathCat::Interior;
}

// Walk the DAG backward from the makespan-defining rank's completion to time
// zero, hopping ranks at message and rendezvous edges and descending device
// chains at blocking syncs.  At a step, t equals its recorded end bitwise;
// crossing its gap moves t to the previous step's end.  The segments tile
// [0, makespan] and are folded into categories in walk order.  False (with
// s.error) when the walk loses alignment or stops short of time zero.
bool walk(const ProgramModel& model, CritSummary& s) {
  int r = 0;
  long budget = 64;
  for (int k = 0; k < static_cast<int>(model.ranks.size()); ++k) {
    const RankProgram& prog = at(model.ranks, k);
    if (prog.end_us > at(model.ranks, r).end_us) r = k;
    budget += 4 * static_cast<long>(prog.steps.size() + prog.ops.size());
  }
  s.critical_rank = r;
  s.makespan_us = at(model.ranks, r).end_us;

  double cat_us[kNumPathCats] = {};
  double t = s.makespan_us;
  int i = -1;
  auto fail = [&](const char* what) {
    s.error = what;
    return false;
  };
  auto emit = [&](PathCat cat, double begin, double end) {
    if (end <= begin) return;
    cat_us[static_cast<int>(cat)] += end - begin;
    ++s.segments;
  };
  // cross the host gap ending at step k (k == steps.size(): the rank's end)
  auto leave = [&](int k) {
    const RankProgram& prog = at(model.ranks, r);
    const double from = gap_begin(prog, static_cast<std::size_t>(k));
    emit(k < static_cast<int>(prog.steps.size()) ? at(prog.steps, k).gap : prog.tail_gap, from, t);
    t = from;
    i = k - 1;
  };
  // descend a device chain from op oi (t == its end) to the host anchor that
  // issued its first host-gated op
  auto descend = [&](int oi) {
    const RankProgram& prog = at(model.ranks, r);
    for (;;) {
      const DeviceOp& op = at(prog.ops, oi);
      if (t != op.end_us) return false;
      const double gate = gate_us(prog, op);
      emit(op_cat(op), op.start_us, op.end_us);
      emit(PathCat::StallSync, gate, op.start_us); // launch overhead
      t = gate;
      if (op.pred_op < 0) {
        leave(op.issue_step);
        return true;
      }
      oi = op.pred_op;
    }
  };

  leave(static_cast<int>(at(model.ranks, r).steps.size()));
  while (i >= 0) {
    if (--budget < 0) return fail("critical-path walk did not terminate");
    const RankProgram& prog = at(model.ranks, r);
    const Step& st = at(prog.steps, i);
    if (t != st.end_us) return fail("critical-path walk lost anchor alignment");
    switch (st.kind) {
      case StepKind::Isend:
      case StepKind::Irecv:
      case StepKind::Kernel:
      case StepKind::AsyncCopy:
      case StepKind::StreamWait:
        leave(i); // zero-width anchors
        break;
      case StepKind::Wait: {
        const Step& snd = at(at(model.ranks, st.peer).steps, st.match);
        const double post = at(prog.steps, st.irecv_step).begin_us;
        // the simulator's own arrival expression, on the same doubles
        const double ready = std::max(snd.begin_us, post);
        const double arrival = ready + st.edge_us;
        emit(PathCat::ExposedComm, std::max(st.begin_us, arrival), st.end_us); // MPI tail
        if (arrival <= st.begin_us) {
          t = st.begin_us;
          leave(i);
          break;
        }
        emit(PathCat::ExposedComm, ready, arrival); // message flight
        if (snd.begin_us >= post) {
          // the sender gated the arrival: hop to its isend anchor
          r = st.peer;
          i = st.match;
          t = snd.begin_us;
          ++s.cross_rank_jumps;
        } else {
          // our late irecv gated it: continue locally at the post anchor
          i = st.irecv_step;
          t = post;
        }
        break;
      }
      case StepKind::Collective: {
        // rendezvous wait + tree: from the gate rank's arrival to our end
        const RankProgram& gate = at(model.ranks, st.peer);
        const int gi = at(gate.collectives, st.match);
        const double gate_ts = at(gate.steps, gi).begin_us;
        emit(PathCat::ExposedComm, gate_ts, st.end_us);
        if (st.peer != r) ++s.cross_rank_jumps;
        r = st.peer;
        t = gate_ts;
        leave(gi);
        break;
      }
      case StepKind::SyncCopy:
        if (!descend(st.op)) return fail("device chain walk lost alignment");
        break;
      case StepKind::StreamSync:
      case StepKind::DeviceSync:
        if (st.end_us > st.begin_us && st.op >= 0) {
          if (!descend(st.op)) return fail("device chain walk lost alignment");
          break;
        }
        emit(PathCat::StallSync, st.begin_us, st.end_us); // unresolved sync stall
        t = st.begin_us;
        leave(i);
        break;
    }
  }
  s.path_us = s.makespan_us - t;
  if (t != 0.0) return fail("walk stopped short of time zero");
  std::copy(cat_us, cat_us + kNumPathCats, s.cat_us);
  return true;
}

// ---- forward replay -------------------------------------------------------------

// The identity schedule and the three what-ifs, evaluated side by side.  Their
// edits only change edge weights, never which step waits for which, so one
// pass over the blocking structure serves all four.
enum Lane : std::size_t { kIdentity, kZeroNet, kFreePcie, kInfiniteOverlap, kLanes };
using Lanes = std::array<double, kLanes>;
constexpr Lanes kNetScale{1, 0, 1, 1};  // message flight + collective tree factor
constexpr Lanes kPcieScale{1, 1, 0, 1}; // PCIe transfer duration factor
// kInfiniteOverlap: the host never blocks on comm or device completion
// (waits cost only their local tail; stream/device syncs are free).
// Collectives keep their rendezvous semantics: a reduction is a data
// dependency, not comm that overlap could hide.

// per-lane makespans; nullopt when the program deadlocks
std::optional<Lanes> replay(const ProgramModel& model) {
  const std::size_t n = model.ranks.size();
  struct RankState {
    std::size_t pc = 0;
    Lanes cursor{};
    std::vector<Lanes> streams, engines;
    std::vector<Lanes> anchor; // replayed host clock at each Isend / Irecv
    bool registered = false;   // arrival posted at the blocking collective
  };
  std::vector<RankState> st(n);
  for (std::size_t r = 0; r < n; ++r) {
    st[r].streams.assign(static_cast<std::size_t>(model.ranks[r].num_streams), Lanes{});
    st[r].engines.assign(static_cast<std::size_t>(model.num_engines), Lanes{});
    st[r].anchor.resize(model.ranks[r].steps.size());
  }
  struct CollState {
    std::size_t arrived = 0;
    bool done = false;
    Lanes maxv{}, done_t{};
  };
  std::vector<CollState> colls(model.ranks[0].collectives.size());

  for (bool all_done = false; !all_done;) {
    bool progress = false;
    all_done = true;
    for (std::size_t r = 0; r < n; ++r) {
      RankState& rs = st[r];
      const RankProgram& prog = model.ranks[r];
      for (; rs.pc < prog.steps.size(); ++rs.pc, progress = true) {
        const Step& s = prog.steps[rs.pc];
        // a wait blocks until its sender has replayed the matched isend
        if (s.kind == StepKind::Wait && at(st, s.peer).pc <= static_cast<std::size_t>(s.match))
          break;
        if (!rs.registered) {
          const double gap = s.begin_us - gap_begin(prog, rs.pc);
          for (double& c : rs.cursor) c += gap;
        }
        if (s.kind == StepKind::Collective) {
          CollState& c = at(colls, s.match);
          if (!rs.registered) {
            rs.registered = true;
            progress = true;
            for (std::size_t l = 0; l < kLanes; ++l)
              c.maxv[l] = c.arrived == 0 ? rs.cursor[l] : std::max(c.maxv[l], rs.cursor[l]);
            if (++c.arrived == n) {
              c.done = true;
              for (std::size_t l = 0; l < kLanes; ++l)
                c.done_t[l] = c.maxv[l] + s.edge_us * kNetScale[l];
            }
          }
          if (!c.done) break;
          for (std::size_t l = 0; l < kLanes; ++l)
            rs.cursor[l] = std::max(rs.cursor[l], c.done_t[l]);
          rs.registered = false;
          continue;
        }
        switch (s.kind) {
          case StepKind::Isend:
          case StepKind::Irecv:
            rs.anchor[rs.pc] = rs.cursor;
            break;
          case StepKind::Wait: {
            const Lanes& snd = at(at(st, s.peer).anchor, s.match);
            const Lanes& post = at(rs.anchor, s.irecv_step);
            // post-arrival local cost (MPI overhead), from the recorded anchors
            const double ready = std::max(at(at(model.ranks, s.peer).steps, s.match).begin_us,
                                          at(prog.steps, s.irecv_step).begin_us);
            const double tail = s.end_us - std::max(s.begin_us, ready + s.edge_us);
            for (std::size_t l = 0; l < kLanes; ++l) {
              if (l == kInfiniteOverlap) {
                rs.cursor[l] += tail;
                continue;
              }
              const double arrival = std::max(snd[l], post[l]) + s.edge_us * kNetScale[l];
              rs.cursor[l] = std::max(rs.cursor[l], arrival) + tail;
            }
            break;
          }
          case StepKind::SyncCopy: {
            const DeviceOp& op = at(prog.ops, s.op);
            Lanes& eng = at(rs.engines, op.engine);
            for (std::size_t l = 0; l < kLanes; ++l) {
              eng[l] = std::max(rs.cursor[l], eng[l]) + (op.end_us - op.start_us) * kPcieScale[l];
              if (l != kInfiniteOverlap) rs.cursor[l] = eng[l];
            }
            break;
          }
          case StepKind::AsyncCopy: {
            const DeviceOp& op = at(prog.ops, s.op);
            Lanes& eng = at(rs.engines, op.engine);
            Lanes& str = at(rs.streams, op.stream);
            for (std::size_t l = 0; l < kLanes; ++l)
              eng[l] = str[l] = std::max({rs.cursor[l], eng[l], str[l]}) +
                                (op.end_us - op.start_us) * kPcieScale[l];
            break;
          }
          case StepKind::Kernel: {
            const DeviceOp& op = at(prog.ops, s.op);
            Lanes& str = at(rs.streams, op.stream);
            const double launch = op.start_us - gate_us(prog, op);
            for (std::size_t l = 0; l < kLanes; ++l)
              str[l] = (std::max(rs.cursor[l], str[l]) + launch) + (op.end_us - op.start_us);
            break;
          }
          case StepKind::StreamSync: {
            const Lanes& str = at(rs.streams, s.stream);
            for (std::size_t l = 0; l < kInfiniteOverlap; ++l)
              rs.cursor[l] = std::max(rs.cursor[l], str[l]);
            break;
          }
          case StepKind::DeviceSync:
            for (std::size_t l = 0; l < kInfiniteOverlap; ++l) {
              for (const Lanes& v : rs.streams) rs.cursor[l] = std::max(rs.cursor[l], v[l]);
              for (const Lanes& v : rs.engines) rs.cursor[l] = std::max(rs.cursor[l], v[l]);
            }
            break;
          case StepKind::StreamWait: {
            Lanes& waiter = at(rs.streams, s.stream);
            const Lanes& waitee = at(rs.streams, s.waitee);
            for (std::size_t l = 0; l < kLanes; ++l) waiter[l] = std::max(waiter[l], waitee[l]);
            break;
          }
          case StepKind::Collective:
            break; // handled above
        }
      }
      if (rs.pc < prog.steps.size()) all_done = false;
    }
    if (!all_done && !progress) return std::nullopt;
  }

  Lanes makespan{};
  for (std::size_t r = 0; r < n; ++r) {
    const RankProgram& prog = model.ranks[r];
    const double tail = prog.end_us - gap_begin(prog, prog.steps.size());
    for (std::size_t l = 0; l < kLanes; ++l) {
      double end = st[r].cursor[l] + tail;
      for (const Lanes& v : st[r].streams) end = std::max(end, v[l]);
      for (const Lanes& v : st[r].engines) end = std::max(end, v[l]);
      makespan[l] = std::max(makespan[l], end);
    }
  }
  return makespan;
}

// max over ranks of (max over streams of total kernel execution time): a
// lower bound on any replay that keeps kernel durations (stream ready values
// grow by at least each kernel's duration)
double compute_bound_us(const ProgramModel& model) {
  double bound = 0;
  for (const RankProgram& prog : model.ranks) {
    std::vector<double> per_stream(static_cast<std::size_t>(prog.num_streams), 0.0);
    for (const DeviceOp& op : prog.ops)
      if (op.is_kernel) at(per_stream, op.stream) += op.end_us - op.start_us;
    for (double v : per_stream) bound = std::max(bound, v);
  }
  return bound;
}

} // namespace

const char* path_cat_name(PathCat cat) {
  switch (cat) {
    case PathCat::Interior: return "interior_compute";
    case PathCat::Boundary: return "boundary_compute";
    case PathCat::ExposedComm: return "exposed_comm";
    case PathCat::Pcie: return "pcie_transfer";
    case PathCat::StallSync: return "stall_sync";
    case PathCat::SolverSerial: return "solver_serial";
    case PathCat::Recovery: return "recovery";
  }
  return "unknown";
}

CritSummary analyze_solve(const TraceReport& report, const ModelConfig& config) {
  CritSummary s;
  const ProgramModel model = build_model(report, config);
  if (!model.ok()) {
    s.error = model.error;
    return s;
  }
  if (!walk(model, s)) return s;
  s.compute_bound_us = compute_bound_us(model);
  const std::optional<Lanes> end = replay(model);
  if (!end) {
    s.error = "replay deadlocked";
    return s;
  }
  s.replay_identity_us = (*end)[kIdentity];
  // a reduced-weight projection is <= the measurement in exact arithmetic;
  // clamp away the forward replay's accumulated rounding so the reported
  // numbers keep that invariant
  s.whatif_zero_latency_us = std::min((*end)[kZeroNet], s.makespan_us);
  s.whatif_free_pcie_us = std::min((*end)[kFreePcie], s.makespan_us);
  s.whatif_infinite_overlap_us = std::min((*end)[kInfiniteOverlap], s.makespan_us);
  s.valid = true;
  return s;
}

std::string attribution_table(const CritSummary& s) {
  char line[160];
  std::string out;
  if (!s.valid) {
    out = "critical-path analysis unavailable";
    if (!s.error.empty()) out += ": " + s.error;
    out += "\n";
    return out;
  }
  std::snprintf(line, sizeof line, "critical path: %.1f us over %zu segments (rank %d, %ld rank hops)\n",
                s.path_us, s.segments, s.critical_rank, s.cross_rank_jumps);
  out += line;
  out += "  category            time_us     share\n";
  for (int c = 0; c < kNumPathCats; ++c) {
    const double share = s.path_us > 0 ? 100.0 * s.cat_us[c] / s.path_us : 0.0;
    std::snprintf(line, sizeof line, "  %-18s %10.1f   %6.2f%%\n",
                  path_cat_name(static_cast<PathCat>(c)), s.cat_us[c], share);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "  what-if: zero-latency net %.1f us | free PCIe %.1f us | infinite overlap %.1f us\n",
                s.whatif_zero_latency_us, s.whatif_free_pcie_us, s.whatif_infinite_overlap_us);
  out += line;
  std::snprintf(line, sizeof line, "  compute lower bound %.1f us | replay identity %.1f us\n",
                s.compute_bound_us, s.replay_identity_us);
  out += line;
  return out;
}

} // namespace quda::trace
