// perfbench: one workload of the host-time benchmark, run in this process as
// a closed loop (one caller issuing its ops back to back).  Every line on
// stdout is one JSON record; perfbench/run.py builds this binary, checks the
// records against perfbench/reference.json and aggregates them into the
// benchmark's metrics.  NOTES.md beside this directory explains the
// workloads and the metric -> layer -> workload map.
//
//   perfbench --workload <fig5_sweep|fattree_1024|propagator> --seed <n>
//             --seconds <s> --trace <0|1> --threads <n> [--probe-threads <n>]
//             [--spawn-mono <t>] [--setup-only]
//   perfbench --reference      (simulated outputs of every modeled op)
//
// Host time is measured around calls into the library's public functions
// only; nothing inside the library is instrumented.  Simulated outputs are
// printed with 17 significant digits so they round-trip bit-exactly.

#include "blas/blas.h"
#include "core/provenance.h"
#include "core/quda_api.h"
#include "dirac/clover_term.h"
#include "dirac/dslash.h"
#include "dirac/gauge_init.h"
#include "dirac/transfer.h"
#include "exec/host_engine.h"
#include "parallel/modeled_solver.h"
#include "sim/event_sim.h"
#include "trace/trace_export.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace quda;

// steady_clock is CLOCK_MONOTONIC on Linux, the clock Python's
// time.monotonic() reads, so --spawn-mono stamps compare directly
double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// one JSON object per stdout line

class Record {
public:
  explicit Record(const char* type) : s_("{\"type\": \"") { s_ += type; s_ += '"'; }

  Record& num(const char* key, double v) {
    char buf[40];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return raw(key, buf);
  }
  Record& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Record& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof esc, "\\u%04x", c);
        q += esc;
        continue;
      }
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(key, q + "\"");
  }
  Record& raw(const char* key, const std::string& json) {
    s_ += ", \"";
    s_ += key;
    s_ += "\": ";
    s_ += json;
    return *this;
  }
  void emit() {
    s_ += "}\n";
    std::fputs(s_.c_str(), stdout);
  }

private:
  std::string s_;
};

// ---------------------------------------------------------------------------
// per-layer accumulators of the traced run

struct Layers {
  double sim_s = 0;       // op time with trace and telemetry off
  double record_s = 0;    // trace-on minus trace-off, analyses subtracted
  double metrics_s = 0;   // trace::compute_metrics
  double critpath_s = 0;  // trace::analyze_solve
  double telemetry_s = 0; // telemetry-on minus telemetry-off
  double events = 0, messages = 0, halo_bytes = 0;
  double comm_us = 0, overlapped_us = 0;
  double ledger_rows = 0, anomalies = 0, reliable_updates = 0;
};

// simulated outputs that must not depend on trace/telemetry settings
bool same_timing(double a_us, double a_gf, double b_us, double b_gf) {
  return a_us == b_us && a_gf == b_gf;
}

bool same_metrics(const trace::Metrics& a, const trace::Metrics& b) {
  return a.events == b.events && a.messages == b.messages && a.halo_bytes == b.halo_bytes &&
         a.retries == b.retries && a.comm_us == b.comm_us &&
         a.overlapped_us == b.overlapped_us && a.kernel_us == b.kernel_us &&
         a.kernels.size() == b.kernels.size();
}

bool same_critpath(const trace::CritSummary& a, const trace::CritSummary& b) {
  if (a.valid != b.valid || a.path_us != b.path_us || a.makespan_us != b.makespan_us ||
      a.cross_rank_jumps != b.cross_rank_jumps || a.segments != b.segments ||
      a.whatif_zero_latency_us != b.whatif_zero_latency_us ||
      a.whatif_free_pcie_us != b.whatif_free_pcie_us ||
      a.whatif_infinite_overlap_us != b.whatif_infinite_overlap_us)
    return false;
  for (int c = 0; c < trace::kNumPathCats; ++c)
    if (a.cat_us[c] != b.cat_us[c]) return false;
  return true;
}

long count_named(const trace::TraceReport& report, const char* name) {
  if (report.per_rank.empty()) return 0;
  long n = 0;
  for (const auto& e : report.per_rank[0])
    if (std::strcmp(e.name, name) == 0) ++n;
  return n;
}

void add_counts(Layers& acc, const trace::Metrics& m) {
  acc.events += static_cast<double>(m.events);
  acc.messages += static_cast<double>(m.messages);
  acc.halo_bytes += static_cast<double>(m.halo_bytes);
  acc.comm_us += m.comm_us;
  acc.overlapped_us += m.overlapped_us;
}

// ---------------------------------------------------------------------------
// modeled ops: one sweep point each

struct Series {
  const char* label;
  std::optional<Precision> sloppy;
  CommPolicy policy;
};

const Series kSeries[] = {
    {"single,no-overlap", std::nullopt, CommPolicy::NoOverlap},
    {"single-half,no-overlap", Precision::Half, CommPolicy::NoOverlap},
    {"single,overlap", std::nullopt, CommPolicy::Overlap},
    {"single-half,overlap", Precision::Half, CommPolicy::Overlap},
};

struct ModeledOp {
  std::string id; // key of the op in perfbench/reference.json
  sim::ClusterSpec spec;
  parallel::ModeledSolverConfig cfg;
};

std::string grid_label(const comm::GridTopology& topo) {
  return std::to_string(topo.dims[0]) + "x" + std::to_string(topo.dims[1]) + "x" +
         std::to_string(topo.dims[2]) + "x" + std::to_string(topo.dims[3]);
}

// Fig. 5 (a)/(b) point: time-sliced over `ranks` GPUs of the 9g cluster
ModeledOp jlab_op(const char* table, LatticeDims global, int ranks, const Series& s) {
  ModeledOp op;
  op.id = std::string(table) + "/" + s.label + "/" + std::to_string(ranks);
  op.spec = sim::ClusterSpec::jlab_9g(ranks);
  op.spec.scheduler = sim::SchedulerKind::Seq;
  op.cfg.local = global;
  op.cfg.local.t = global.t / ranks;
  op.cfg.outer = Precision::Single;
  op.cfg.sloppy = s.sloppy;
  op.cfg.policy = s.policy;
  op.cfg.iterations = 100;
  return op;
}

// Fig. 5 (c) point: single-half overlap on a 4-D grid of a fat-tree cluster
ModeledOp fat_tree_op(const char* table, comm::GridTopology topo) {
  const LatticeDims global{32, 32, 32, 256};
  ModeledOp op;
  op.id = std::string(table) + "/" + grid_label(topo);
  op.spec = sim::ClusterSpec::fat_tree(topo.num_ranks());
  op.spec.scheduler = sim::SchedulerKind::Seq;
  op.cfg.local = {global.x / topo.dims[0], global.y / topo.dims[1], global.z / topo.dims[2],
                  global.t / topo.dims[3]};
  op.cfg.topology = topo;
  op.cfg.outer = Precision::Single;
  op.cfg.sloppy = Precision::Half;
  op.cfg.policy = CommPolicy::Overlap;
  op.cfg.iterations = 10;
  return op;
}

std::vector<ModeledOp> fig5_ops() {
  std::vector<ModeledOp> ops;
  for (const Series& s : kSeries)
    for (int n : {4, 8, 16, 32}) ops.push_back(jlab_op("fig5a", {32, 32, 32, 256}, n, s));
  for (const Series& s : kSeries)
    for (int n : {1, 2, 4, 8, 16, 32}) ops.push_back(jlab_op("fig5b", {24, 24, 24, 128}, n, s));
  ops.push_back(fat_tree_op("fig5c", {{1, 2, 2, 64}}));
  return ops;
}

// the nine 256-1024 rank grids of Fig. 5 (c)
std::vector<ModeledOp> fattree_ops() {
  std::vector<ModeledOp> ops;
  for (const comm::GridTopology& topo :
       {comm::GridTopology{{1, 1, 2, 128}}, comm::GridTopology{{1, 2, 2, 64}},
        comm::GridTopology{{2, 2, 2, 32}}, comm::GridTopology{{1, 2, 2, 128}},
        comm::GridTopology{{1, 2, 4, 64}}, comm::GridTopology{{2, 2, 4, 32}},
        comm::GridTopology{{2, 2, 2, 128}}, comm::GridTopology{{2, 2, 4, 64}},
        comm::GridTopology{{1, 4, 4, 64}}})
    ops.push_back(fat_tree_op("fattree", topo));
  return ops;
}

struct ModeledRun {
  double host_s = 0;
  parallel::ModeledSolverResult r;
};

// construct the cluster, solve, tear the cluster down: what one sweep point
// costs a bench binary
ModeledRun run_modeled(const ModeledOp& op, bool trace, bool telemetry) {
  sim::ClusterSpec spec = op.spec;
  spec.trace.enabled = trace;
  spec.telemetry.enabled = telemetry;
  ModeledRun out;
  const double t0 = now_s();
  {
    sim::VirtualCluster cluster(spec);
    out.r = parallel::run_modeled_solver(cluster, op.cfg);
  }
  out.host_s = now_s() - t0;
  return out;
}

Record modeled_record(const ModeledOp& op, int pass, double host_s,
                      const parallel::ModeledSolverResult& r) {
  Record rec("op");
  rec.str("id", op.id).num("pass", pass).num("host_s", host_s).flag("fits", r.fits);
  rec.num("time_us", r.time_us).num("gflops", r.effective_gflops).num("iters", r.iterations);
  if (r.traced) {
    rec.num("events", static_cast<double>(r.metrics.events));
    rec.num("messages", static_cast<double>(r.metrics.messages));
    if (r.critpath.valid) rec.num("path_us", r.critpath.path_us);
  }
  return rec;
}

// Event/message counts of an untraced op, from two traced runs of the same
// op at 1 and 2 iterations: the modeled schedule is a fixed prologue plus
// identical iterations, so every count is affine in the iteration count.
// This keeps a 1024-rank point's trace in memory for 2 iterations, not 10.
struct Counts {
  double events = 0, messages = 0, halo_bytes = 0, comm_us = 0, overlapped_us = 0;
  double reliable_updates = 0;
};

Counts extrapolated_counts(const ModeledOp& op) {
  Counts c[2];
  for (int k = 0; k < 2; ++k) {
    sim::ClusterSpec spec = op.spec;
    spec.trace.enabled = true;
    parallel::ModeledSolverConfig cfg = op.cfg;
    cfg.iterations = k + 1;
    sim::VirtualCluster cluster(spec);
    const auto r = parallel::run_modeled_solver(cluster, cfg);
    c[k] = {static_cast<double>(r.metrics.events), static_cast<double>(r.metrics.messages),
            static_cast<double>(r.metrics.halo_bytes), r.metrics.comm_us,
            r.metrics.overlapped_us,
            static_cast<double>(count_named(cluster.trace(), "reliable_update"))};
  }
  const double n = op.cfg.iterations - 1;
  auto at = [&](double Counts::* f) { return c[0].*f + n * (c[1].*f - c[0].*f); };
  return {at(&Counts::events),  at(&Counts::messages),      at(&Counts::halo_bytes),
          at(&Counts::comm_us), at(&Counts::overlapped_us), at(&Counts::reliable_updates)};
}

// ---------------------------------------------------------------------------
// workloads

class Workload {
public:
  virtual ~Workload() = default;
  virtual std::size_t size() const = 0;
  // inputs plus one untimed warm-up op: everything before the first timed op
  virtual void setup() = 0;
  // op i in the workload's own configuration; returns its host seconds and
  // prints its record (output checks run after the clock stops)
  virtual double run(std::size_t i, int pass) = 0;
  // op i under trace/telemetry off and on, split into layer self-times
  virtual void attribute(std::size_t i, int pass, Layers& acc) = 0;
  // one op at the current thread budget (exec.solve_speedup)
  virtual double probe_op_s() = 0;
};

class ModeledWorkload final : public Workload {
public:
  ModeledWorkload(std::vector<ModeledOp> (*make_ops)(), bool observe, std::string warm_id)
      : make_ops_(make_ops), observe_(observe), warm_id_(std::move(warm_id)) {}

  std::size_t size() const override { return ops_.size(); }

  void setup() override {
    ops_ = make_ops_();
    run_modeled(warm_op(), observe_, observe_);
  }

  double run(std::size_t i, int pass) override {
    const ModeledOp& op = ops_[i];
    const ModeledRun m = run_modeled(op, observe_, observe_);
    modeled_record(op, pass, m.host_s, m.r).emit();
    return m.host_s;
  }

  void attribute(std::size_t i, int pass, Layers& acc) override {
    const ModeledOp& op = ops_[i];
    const ModeledRun off = run_modeled(op, false, false);
    acc.sim_s += off.host_s;
    bool pure = true;
    if (!observe_) {
      const Counts c = extrapolated_counts(op);
      acc.events += c.events;
      acc.messages += c.messages;
      acc.halo_bytes += c.halo_bytes;
      acc.comm_us += c.comm_us;
      acc.overlapped_us += c.overlapped_us;
      acc.reliable_updates += c.reliable_updates;
      // the extrapolated counts are checked against the reference table
      Record rec = modeled_record(op, pass, off.host_s, off.r);
      if (off.r.fits) rec.num("events", c.events).num("messages", c.messages);
      rec.emit();
      return;
    }
    // trace on, telemetry off; the analyses run_modeled_solver performed
    // internally are re-invoked on the kept cluster to time them
    sim::ClusterSpec spec = op.spec;
    spec.trace.enabled = true;
    const double t0 = now_s();
    auto cluster = std::make_unique<sim::VirtualCluster>(spec);
    const auto tr = parallel::run_modeled_solver(*cluster, op.cfg);
    const double t1 = now_s();
    const trace::Metrics m = trace::compute_metrics(cluster->trace());
    const double t2 = now_s();
    const trace::CritSummary c =
        trace::analyze_solve(cluster->trace(), trace::ModelConfig{spec.device.dual_copy_engine});
    const double t3 = now_s();
    const long reliable = count_named(cluster->trace(), "reliable_update");
    cluster.reset();
    const double trace_s = (t1 - t0) + (now_s() - t3);
    acc.metrics_s += t2 - t1;
    acc.critpath_s += t3 - t2;
    acc.record_s += trace_s - off.host_s - (t2 - t1) - (t3 - t2);
    if (tr.fits) {
      pure = same_metrics(m, tr.metrics) && same_critpath(c, tr.critpath);
      add_counts(acc, tr.metrics);
      acc.reliable_updates += static_cast<double>(reliable);
    }
    pure = pure &&
           same_timing(off.r.time_us, off.r.effective_gflops, tr.time_us, tr.effective_gflops);

    const ModeledRun full = run_modeled(op, true, true);
    acc.telemetry_s += full.host_s - trace_s;
    acc.ledger_rows += static_cast<double>(full.r.telemetry.ledger.size());
    acc.anomalies += static_cast<double>(full.r.telemetry.anomaly_count());
    pure = pure && same_timing(off.r.time_us, off.r.effective_gflops, full.r.time_us,
                               full.r.effective_gflops);
    modeled_record(op, pass, full.host_s, full.r).emit();
    Record("check").str("id", op.id).str("check", "purity").flag("ok", pure).emit();
  }

  double probe_op_s() override { return run_modeled(warm_op(), observe_, observe_).host_s; }

private:
  const ModeledOp& warm_op() const {
    for (const auto& op : ops_)
      if (op.id == warm_id_) return op;
    throw std::logic_error("no op " + warm_id_);
  }

  std::vector<ModeledOp> (*make_ops_)();
  bool observe_;
  std::string warm_id_;
  std::vector<ModeledOp> ops_;
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t field_digest(const HostSpinorField& f) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t i = 0; i < f.geom().volume(); ++i) {
    unsigned char bytes[sizeof(Spinor<double>)];
    std::memcpy(bytes, &f[i], sizeof bytes);
    for (unsigned char b : bytes) h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

// The propagator procedure of the paper (Section VII-A): point sources on
// the 3 colors x upper 2 spins, mixed single-half Wilson-clover BiCGstab on
// 2 ranks.  The seed picks the gauge configuration and the source site.
class PropagatorWorkload final : public Workload {
public:
  static constexpr LatticeDims kDims{8, 8, 8, 24};
  static constexpr int kRanks = 2;

  explicit PropagatorWorkload(std::uint64_t seed) : seed_(seed) {}

  std::size_t size() const override { return 6; }

  static InvertParams params() {
    InvertParams p;
    p.mass = 0.08;
    p.csw = 1.2;
    p.precision = Precision::Single;
    p.sloppy = Precision::Half;
    p.tol = 3e-7;
    p.delta = 1e-1;
    p.max_iter = 4000;
    return p;
  }

  static sim::ClusterSpec spec(bool observe) {
    sim::ClusterSpec s = sim::ClusterSpec::jlab_9g(kRanks);
    s.scheduler = sim::SchedulerKind::Seq;
    s.trace.enabled = observe;
    s.telemetry.enabled = observe;
    return s;
  }

  void setup() override {
    std::uint64_t state = seed_;
    geom_ = Geometry(kDims);
    gauge_ = HostGaugeField(geom_);
    make_weak_field_gauge(gauge_, 0.2, splitmix64(state));
    const Coords site{static_cast<int>(splitmix64(state) % kDims.x),
                      static_cast<int>(splitmix64(state) % kDims.y),
                      static_cast<int>(splitmix64(state) % kDims.z),
                      static_cast<int>(splitmix64(state) % kDims.t)};
    sources_.clear();
    for (int spin = 0; spin < 2; ++spin)
      for (int color = 0; color < 3; ++color) {
        HostSpinorField b(geom_);
        make_point_source(b, site, spin, color);
        sources_.push_back(std::move(b));
      }
    HostSpinorField out(geom_);
    apply_matrix_multi_gpu(spec(false), gauge_, sources_[0], out, params());
  }

  double run(std::size_t i, int pass) override {
    HostSpinorField x(geom_);
    const double t0 = now_s();
    const InvertResult r = invert_multi_gpu(spec(true), gauge_, sources_[i], x, params());
    const double host_s = now_s() - t0;
    Record rec = record(i, pass, host_s, r, field_digest(x));
    // the mixed solver reports convergence once its outer-precision true
    // residual is within 2 tol (true_r2 <= 4 stop in
    // solvers/mixed_precision.h); the double-precision check holds it to that
    if (pass == 0)
      rec.num("residual", true_residual(sources_[i], x)).num("residual_bound", 2 * params().tol);
    rec.emit();
    return host_s;
  }

  void attribute(std::size_t i, int pass, Layers& acc) override {
    struct Solve {
      double host_s;
      InvertResult r;
      std::uint64_t digest;
    };
    auto solve = [&](bool trace, bool telemetry) {
      sim::ClusterSpec s = spec(false);
      s.trace.enabled = trace;
      s.telemetry.enabled = telemetry;
      HostSpinorField x(geom_);
      const double t0 = now_s();
      InvertResult r = invert_multi_gpu(s, gauge_, sources_[i], x, params());
      return Solve{now_s() - t0, std::move(r), field_digest(x)};
    };
    const Solve off = solve(false, false);
    const Solve tr = solve(true, false);
    const Solve full = solve(true, true);
    // invert_multi_gpu keeps its trace internal, so its metrics and critpath
    // analyses cannot be re-invoked here: they stay inside record_s
    acc.sim_s += off.host_s;
    acc.record_s += tr.host_s - off.host_s;
    acc.telemetry_s += full.host_s - tr.host_s;
    add_counts(acc, full.r.trace_metrics);
    acc.ledger_rows += static_cast<double>(full.r.telemetry.ledger.size());
    acc.anomalies += static_cast<double>(full.r.telemetry.anomaly_count());
    acc.reliable_updates += full.r.stats.reliable_updates;
    auto same = [&](const Solve& a) {
      return same_timing(a.r.simulated_time_us, a.r.effective_gflops,
                         full.r.simulated_time_us, full.r.effective_gflops) &&
             a.r.stats.iterations == full.r.stats.iterations && a.digest == full.digest;
    };
    const bool pure = same(off) && same(tr);
    record(i, pass, full.host_s, full.r, full.digest).emit();
    Record("check").str("id", id(i)).str("check", "purity").flag("ok", pure).emit();
  }

  double probe_op_s() override {
    HostSpinorField x(geom_);
    const double t0 = now_s();
    invert_multi_gpu(spec(true), gauge_, sources_[0], x, params());
    return now_s() - t0;
  }

  static std::string id(std::size_t i) {
    return "prop/spin" + std::to_string(i / 3) + "-color" + std::to_string(i % 3);
  }

private:
  Record record(std::size_t i, int pass, double host_s, const InvertResult& r,
                std::uint64_t x_digest) const {
    char digest[20];
    std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(x_digest));
    Record rec("op");
    rec.str("id", id(i)).num("pass", pass).num("host_s", host_s).flag("fits", true);
    rec.flag("converged", r.stats.converged).num("iters", r.stats.iterations);
    rec.num("reliable_updates", r.stats.reliable_updates);
    rec.num("time_us", r.simulated_time_us).num("gflops", r.effective_gflops);
    rec.num("events", static_cast<double>(r.trace_metrics.events));
    rec.num("messages", static_cast<double>(r.trace_metrics.messages));
    if (r.critpath.valid) rec.num("path_us", r.critpath.path_us);
    rec.str("x_digest", digest);
    return rec;
  }

  // |b - M x| / |b| with M applied in double precision
  double true_residual(const HostSpinorField& b, const HostSpinorField& x) const {
    InvertParams p = params();
    p.precision = Precision::Double;
    p.sloppy.reset();
    HostSpinorField mx(geom_);
    apply_matrix_multi_gpu(spec(false), gauge_, x, mx, p);
    double num = 0;
    for (std::int64_t s = 0; s < geom_.volume(); ++s) {
      Spinor<double> d = b[s];
      d -= mx[s];
      num += norm2(d);
    }
    return std::sqrt(num / norm2(b));
  }

  std::uint64_t seed_;
  Geometry geom_;
  HostGaugeField gauge_;
  std::vector<HostSpinorField> sources_;
};

// ---------------------------------------------------------------------------
// probes of the traced run (same in every workload)

// host kernel throughput at the propagator's local volume; the flop and
// byte counts are computed from the kernels' definitions, not measured
template <typename Fn> double msites_per_s(std::int64_t sites, Fn&& fn) {
  fn(); // first touch
  std::vector<double> rates;
  for (int batch = 0; batch < 5; ++batch) {
    int calls = 0;
    const double t0 = now_s();
    double t = t0;
    while (calls < 2 || t - t0 < 0.03) {
      fn();
      ++calls;
      t = now_s();
    }
    rates.push_back(static_cast<double>(sites) * calls / (t - t0) / 1e6);
  }
  std::nth_element(rates.begin(), rates.begin() + 2, rates.end());
  return rates[2];
}

void kernel_probe(Record& out) {
  LatticeDims local = PropagatorWorkload::kDims;
  local.t /= PropagatorWorkload::kRanks;
  const Geometry g(local);
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.2, 99);
  HostSpinorField in(g);
  make_random_spinor(in, 100);
  HostCloverField t = make_clover_term(u, 1.0);
  add_diag(t, 4.1);
  const std::int64_t sites = g.half_volume();

  auto dslash_rate = [&](auto prec) {
    using P = decltype(prec);
    const GaugeField<P> gauge = upload_gauge<P>(u, Reconstruct::Twelve);
    const SpinorField<P> x = upload_spinor<P>(in, Parity::Odd);
    SpinorField<P> y(g);
    DslashOptions opt;
    return msites_per_s(sites, [&] {
      dslash<P>(y, gauge, x, g, opt, 0, sites, 1, Accumulate::No);
    });
  };
  auto clover_rate = [&](auto prec) {
    using P = decltype(prec);
    const CloverField<P> clover = upload_clover<P>(t);
    const SpinorField<P> x = upload_spinor<P>(in, Parity::Even);
    SpinorField<P> y(g);
    return msites_per_s(sites, [&] {
      apply_clover_xpay<P>(y, clover, Parity::Even, x, g, 0, sites, 0);
    });
  };
  auto axpy_norm_rate = [&](auto prec) {
    using P = decltype(prec);
    const SpinorField<P> x = upload_spinor<P>(in, Parity::Even);
    SpinorField<P> y = upload_spinor<P>(in, Parity::Odd);
    volatile double sink = 0;
    return msites_per_s(sites, [&] { sink = blas::axpy_norm(1e-3, x, y); });
  };
  const SpinorField<PrecSingle> single = upload_spinor<PrecSingle>(in, Parity::Even);
  const SpinorField<PrecHalf> half = upload_spinor<PrecHalf>(in, Parity::Even);
  SpinorField<PrecHalf> to_half(g);
  SpinorField<PrecSingle> to_single(g);

  const double dslash_half = dslash_rate(PrecHalf{});
  out.num("dirac.dslash_single_msites_s", dslash_rate(PrecSingle{}));
  out.num("dirac.dslash_half_msites_s", dslash_half);
  out.num("dirac.clover_single_msites_s", clover_rate(PrecSingle{}));
  out.num("dirac.clover_half_msites_s", clover_rate(PrecHalf{}));
  out.num("blas.axpy_norm_single_msites_s", axpy_norm_rate(PrecSingle{}));
  out.num("blas.axpy_norm_half_msites_s", axpy_norm_rate(PrecHalf{}));
  out.num("lattice.convert_s2h_msites_s",
          msites_per_s(sites, [&] { convert_field(single, to_half); }));
  out.num("lattice.convert_h2s_msites_s",
          msites_per_s(sites, [&] { convert_field(half, to_single); }));

  // computed per output site, 12-real links: dslash reads 8 links and 8
  // neighbour spinors and writes one spinor; clover reads 72 reals of
  // blocks and one spinor and writes one; axpy_norm reads x, y and writes
  // y; conversion reads one spinor and writes one.  Half precision adds a
  // 4-byte norm per spinor access.
  const double dslash_half_bytes = (8 * 12 + 9 * 24) * 2.0 + 9 * 4.0;
  out.num("dirac.dslash_flops_per_site", 1320);
  out.num("dirac.dslash_single_bytes_per_site_computed", (8 * 12 + 9 * 24) * 4.0);
  out.num("dirac.dslash_half_bytes_per_site_computed", dslash_half_bytes);
  out.num("dirac.dslash_half_gbs_computed", dslash_half * 1e6 * dslash_half_bytes / 1e9);
  out.num("dirac.clover_flops_per_site", 504);
  out.num("dirac.clover_single_bytes_per_site_computed", (72 + 48) * 4.0);
  out.num("dirac.clover_half_bytes_per_site_computed", (72 + 48) * 2.0 + 2 * 4.0);
  out.num("blas.axpy_norm_flops_per_site", 96);
  out.num("blas.axpy_norm_single_bytes_per_site_computed", 3 * 24 * 4.0);
  out.num("blas.axpy_norm_half_bytes_per_site_computed", 3 * 24 * 2.0 + 3 * 4.0);
  out.num("lattice.convert_bytes_per_site_computed", 24 * 4.0 + 24 * 2.0 + 4.0);
}

// host ns per simulated event at 256, 512 and 1024 ranks, observability off
void ladder_probe(Record& out) {
  const std::pair<const char*, comm::GridTopology> ladder[] = {
      {"sim.ns_per_event.r256", {{1, 2, 2, 64}}},
      {"sim.ns_per_event.r512", {{1, 2, 4, 64}}},
      {"sim.ns_per_event.r1024", {{2, 2, 4, 64}}},
  };
  for (const auto& [name, topo] : ladder) {
    const ModeledOp op = fat_tree_op("ladder", topo);
    const double host_s = run_modeled(op, false, false).host_s;
    out.num(name, host_s * 1e9 / extrapolated_counts(op).events);
  }
}

// apply_matrix_multi_gpu on the propagator lattice: reorder, split,
// upload, clover build and one matrix application per call
void api_probe(Record& out, std::uint64_t seed) {
  const Geometry g(PropagatorWorkload::kDims);
  HostGaugeField u(g);
  make_weak_field_gauge(u, 0.2, seed);
  HostSpinorField in(g), mx(g);
  make_random_spinor(in, seed + 1);
  std::vector<double> t;
  for (int k = 0; k < 3; ++k) {
    const double t0 = now_s();
    apply_matrix_multi_gpu(PropagatorWorkload::spec(false), u, in, mx,
                           PropagatorWorkload::params());
    t.push_back(now_s() - t0);
  }
  std::sort(t.begin(), t.end());
  out.num("api.apply_matrix_s", t[1]);
}

// Chrome JSON export of one mid-size traced point (Fig. 5 (b), 8 ranks)
void export_probe(Record& out) {
  const ModeledOp op = jlab_op("fig5b", {24, 24, 24, 128}, 8, kSeries[3]);
  sim::ClusterSpec spec = op.spec;
  spec.trace.enabled = true;
  sim::VirtualCluster cluster(spec);
  parallel::run_modeled_solver(cluster, op.cfg);
  const double t0 = now_s();
  const std::string json = trace::chrome_trace_json(cluster.trace());
  out.num("trace.export_s", now_s() - t0);
  out.num("trace.export_mb", static_cast<double>(json.size()) / (1024.0 * 1024.0));
}

// ---------------------------------------------------------------------------

std::string vmhwm_line() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return line;
  return "";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  int threads = 1;
  int probe_threads = 0; // budget of the exec.solve_speedup probe; 0 = threads
  double spawn_mono = -1;
  bool setup_only = false;
  bool reference = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else if (k == "--threads") a.threads = std::stoi(value());
    else if (k == "--probe-threads") a.probe_threads = std::stoi(value());
    else if (k == "--spawn-mono") a.spawn_mono = std::stod(value());
    else if (k == "--setup-only") a.setup_only = true;
    else if (k == "--reference") a.reference = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.threads < 1) throw std::invalid_argument("--threads must be >= 1");
  if (a.probe_threads == 0) a.probe_threads = a.threads;
  if (a.probe_threads < 1) throw std::invalid_argument("--probe-threads must be >= 1");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "fig5_sweep")
    return std::make_unique<ModeledWorkload>(fig5_ops, true, "fig5b/single-half,overlap/8");
  if (a.workload == "fattree_1024")
    return std::make_unique<ModeledWorkload>(fattree_ops, false, "fattree/1x2x2x64");
  if (a.workload == "propagator") return std::make_unique<PropagatorWorkload>(a.seed);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

// the seed fixes the op order of every pass
std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t& state) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[splitmix64(state) % i]);
  return order;
}

int reference_main() {
  std::vector<ModeledOp> ops = fig5_ops();
  for (auto& op : fattree_ops()) ops.push_back(std::move(op));
  for (const ModeledOp& op : ops) {
    const ModeledRun m = run_modeled(op, true, false);
    modeled_record(op, 0, m.host_s, m.r).emit();
    std::fflush(stdout);
  }
  return 0;
}

int bench_main(const Args& a) {
  const double start = a.spawn_mono >= 0 ? a.spawn_mono : now_s();
  exec::set_thread_budget(a.threads);
  std::unique_ptr<Workload> w = make_workload(a);
  w->setup();
  const double first_op = now_s();
  Record("setup").num("setup_s", first_op - start).emit();
  if (a.setup_only) return 0;

  Record("provenance")
      .str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .num("threads", exec::thread_budget())
      .num("probe_threads", a.probe_threads)
      .str("scheduler", sim::scheduler_name(sim::SchedulerKind::Seq))
      .flag("trace", a.trace)
      .raw("library", core::provenance_json(sim::scheduler_name(sim::SchedulerKind::Seq)))
      .emit();

  std::uint64_t state = a.seed;
  if (!a.trace) {
    // one whole pass, then further ops while the next one is expected to
    // end by the deadline (its time in the previous pass), so the run fills
    // its window whether or not the last pass is whole
    const double deadline = first_op + a.seconds;
    std::vector<double> last_s(w->size(), 0.0);
    bool more = true;
    for (int pass = 0; more; ++pass) {
      const double t0 = now_s();
      double ops_s = 0;
      int ops = 0;
      for (std::size_t i : pass_order(w->size(), state)) {
        if (pass > 0 && now_s() + last_s[i] > deadline) {
          more = false;
          break;
        }
        last_s[i] = w->run(i, pass);
        ops_s += last_s[i];
        ++ops;
      }
      if (ops > 0)
        Record("pass").num("pass", pass).num("ops", ops).num("ops_s", ops_s)
            .num("wall_s", now_s() - t0).emit();
    }
  } else {
    // pass 0 in the workload's own configuration, pass 1 the same ops in
    // the same order split by layer
    const std::vector<std::size_t> order = pass_order(w->size(), state);
    double untraced_s = 0;
    for (std::size_t i : order) untraced_s += w->run(i, 0);
    Layers acc;
    const double t0 = now_s();
    for (std::size_t i : order) w->attribute(i, 1, acc);
    const double traced_s = now_s() - t0;

    Record layers("layers");
    layers.num("run_s", untraced_s).num("traced_pass_s", traced_s);
    layers.num("sim.run_s", acc.sim_s).num("sim.events", acc.events);
    layers.num("sim.messages", acc.messages);
    layers.num("trace.record_s", acc.record_s).num("trace.metrics_s", acc.metrics_s);
    layers.num("trace.critpath_s", acc.critpath_s).num("telemetry.s", acc.telemetry_s);
    layers.num("trace.events_mb", acc.events * sizeof(trace::Event) / (1024.0 * 1024.0));
    layers.num("telemetry.ledger_rows", acc.ledger_rows);
    layers.num("telemetry.anomalies", acc.anomalies);
    layers.num("solvers.reliable_updates", acc.reliable_updates);
    layers.num("parallel.halo_mb", acc.halo_bytes / (1024.0 * 1024.0));
    layers.num("parallel.overlap_efficiency",
               acc.comm_us > 0 ? acc.overlapped_us / acc.comm_us : 0.0);

    // medians of 3 probe ops per budget, the budgets alternating so that
    // both see the same host
    std::vector<double> at_budget, serial;
    for (int k = 0; k < 3; ++k) {
      exec::set_thread_budget(a.probe_threads);
      at_budget.push_back(w->probe_op_s());
      exec::set_thread_budget(1);
      serial.push_back(w->probe_op_s());
    }
    exec::set_thread_budget(a.threads);
    std::sort(at_budget.begin(), at_budget.end());
    std::sort(serial.begin(), serial.end());
    layers.num("exec.threads", a.probe_threads);
    layers.num("exec.solve_speedup", serial[1] / at_budget[1]);

    kernel_probe(layers);
    ladder_probe(layers);
    api_probe(layers, a.seed);
    export_probe(layers);
    layers.emit();
  }
  Record("summary").str("vmhwm", vmhwm_line()).emit();
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  // the benchmark sets trace/telemetry per run; exports requested through
  // the environment would change what is measured
  for (const char* var : {"QUDA_SIM_TRACE", "QUDA_SIM_TELEMETRY", "QUDA_SIM_SCHED"})
    unsetenv(var);
  try {
    const Args a = parse_args(argc, argv);
    const int rc = a.reference ? reference_main() : bench_main(a);
    std::fflush(stdout);
    return rc;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
