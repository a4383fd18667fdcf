// Scheduler determinism suite (DESIGN.md §12).  The seq fiber event loop is
// the only rank scheduler, and a run must be a pure function of its
// configuration.  Every scenario below runs at QUDA_SIM_THREADS budgets
// {1, 2, 8}, twice per budget, and every run must match pinned goldens
// bitwise.  The goldens were captured from the retired thread-per-rank
// scheduler on these same scenarios, so the equivalence the two schedulers
// once showed differentially stays pinned now that only one remains.  The
// thread budget throttles host-side parallel_for work and must not perturb
// the timeline either.
//
// Observables: solver iterations, makespan and Gflops (exact), per-rank
// FNV-1a trace sequence digests, and for the Real-mode solves the true
// residual plus FNV-1a digests of the solution vector, of the solver and
// fault/recovery report (checkpoint digest included), and of the exported
// Chrome trace text (timestamps included, provenance line stripped).
//
// The targeted-wakeup edge cases (a send landing on a rank parked in an
// allreduce, wake() on a running or finished rank, a rank marked terminal
// twice) pin everything each rank observed, plus its final clock.

#include "core/quda_api.h"
#include "dirac/gauge_init.h"
#include "exec/host_engine.h"
#include "parallel/modeled_solver.h"
#include "sim/event_sim.h"
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace quda {
namespace {

using parallel::ModeledSolverConfig;
using parallel::ModeledSolverResult;

// the suite drives the trace knobs itself; scrub any ambient values so
// every run starts from the documented defaults
const bool g_env_cleared = [] {
  ::unsetenv("QUDA_SIM_TRACE");
  ::unsetenv("QUDA_SIM_TELEMETRY");
  return true;
}();

// FNV-1a over the object representation: doubles hash by bit pattern, so
// a digest match is a bitwise match
class Fnv1a {
public:
  template <typename T> Fnv1a& add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Fnv1a& add(const std::string& s) {
    for (const char c : s) add(c);
    return *this;
  }
  std::uint64_t value() const { return h_; }

private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// run `observe` at every thread budget, twice per budget, handing each
// observation and its label to `check`
template <typename Observe, typename Check>
void sweep_budgets(const Observe& observe, const Check& check) {
  for (const int budget : {1, 2, 8}) {
    exec::set_thread_budget(budget);
    for (int repeat = 0; repeat < 2; ++repeat)
      check(observe(), "budget " + std::to_string(budget) + " run " + std::to_string(repeat));
  }
  exec::set_thread_budget(0); // back to the environment default
}

// --- modeled-solver scenarios ------------------------------------------------

ModeledSolverConfig modeled_config(CommPolicy policy) {
  ModeledSolverConfig cfg;
  cfg.local = LatticeDims{8, 8, 8, 16};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.policy = policy;
  cfg.iterations = 25;
  cfg.reliable_interval = 10;
  return cfg;
}

ModeledSolverConfig multidim_config() {
  ModeledSolverConfig cfg = modeled_config(CommPolicy::Overlap);
  cfg.topology = comm::GridTopology{{1, 2, 2, 2}};
  return cfg;
}

sim::FaultConfig message_faults() {
  sim::FaultConfig faults;
  faults.seed = 20260808;
  faults.drop_rate = 0.02;
  faults.delay_rate = 0.05;
  faults.stall_rate = 0.01;
  return faults;
}

// everything observable about one modeled run
struct ModeledObs {
  bool fits = false;
  int iterations = 0;
  double time_us = 0;
  double gflops = 0;
  double makespan = 0;
  std::vector<std::uint64_t> digests; // per-rank trace sequence digests
};

ModeledObs run_modeled(int ranks, const ModeledSolverConfig& cfg,
                       const sim::FaultConfig& faults = {}) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(ranks);
  spec.trace.enabled = true;
  spec.faults = faults;
  sim::VirtualCluster cluster(spec);
  const ModeledSolverResult r = parallel::run_modeled_solver(cluster, cfg);
  ModeledObs o{r.fits, r.iterations, r.time_us, r.effective_gflops, cluster.makespan_us(), {}};
  for (const auto& events : cluster.trace().per_rank)
    o.digests.push_back(trace::sequence_digest(events));
  return o;
}

void sweep_modeled(int ranks, const ModeledSolverConfig& cfg, const sim::FaultConfig& faults,
                   const ModeledObs& golden) {
  sweep_budgets([&] { return run_modeled(ranks, cfg, faults); },
                [&](const ModeledObs& o, const std::string& label) {
                  EXPECT_TRUE(o.fits) << label;
                  EXPECT_EQ(o.iterations, golden.iterations) << label;
                  // EXPECT_EQ on doubles is exact comparison on purpose:
                  // runs must agree bitwise, not to a tolerance
                  EXPECT_EQ(o.time_us, golden.time_us) << label;
                  EXPECT_EQ(o.gflops, golden.gflops) << label;
                  EXPECT_EQ(o.makespan, golden.makespan) << label;
                  EXPECT_EQ(o.digests, golden.digests) << label << " per-rank trace digests";
                });
}

TEST(SchedulerEquivalence, ModeledSolveOverlap) {
  sweep_modeled(4, modeled_config(CommPolicy::Overlap), {},
                {true, 25, 95291.303721284916, 37.303221817564491, 95291.303721284916,
                 {16387289460897189555ull, 4591811276020006425ull, 1897515651312551611ull,
                  16257106862551732533ull}});
}

TEST(SchedulerEquivalence, ModeledSolveNoOverlap) {
  sweep_modeled(4, modeled_config(CommPolicy::NoOverlap), {},
                {true, 25, 30691.19589167694, 115.82059729917471, 30691.19589167694,
                 {5203937352096528067ull, 459689634302695941ull, 5816646806524039247ull,
                  5131246084706148725ull}});
}

// a 1x2x2x2 grid exercises the multi-dimensional halo exchange paths (six
// neighbors per rank instead of two)
TEST(SchedulerEquivalence, ModeledSolveMultiDimGrid) {
  sweep_modeled(8, multidim_config(), {},
                {true, 25, 282397.41725887341, 25.174965653042324, 282397.41725887341,
                 {2908500701066277879ull, 11971554090620295081ull, 1468856570875909691ull,
                  13595963620901131153ull, 8057335294842349991ull, 7306473367901037793ull,
                  6800373183598288083ull, 12074719003807703737ull}});
}

// message faults (drops, degraded links, transient stalls) perturb the
// timeline through the retry machinery; the injected schedule is a pure
// function of the seed, so every run must replay it exactly
TEST(SchedulerEquivalence, ModeledSolveWithMessageFaults) {
  sweep_modeled(4, modeled_config(CommPolicy::Overlap), message_faults(),
                {true, 25, 97999.318706947946, 36.272421960704719, 97999.318706947946,
                 {13428717635546872825ull, 5110824455852257599ull, 8273731774373102256ull,
                  8029795207203650195ull}});
}

// --- real-mode solves (invert_multi_gpu) -------------------------------------

struct RealFixture {
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u;
  HostSpinorField b;
  InvertParams params;

  RealFixture() : u(g), b(g) {
    make_weak_field_gauge(u, 0.2, 9000);
    make_random_spinor(b, 9001);
    params.mass = 0.1;
    params.csw = 1.0;
    params.precision = Precision::Single;
    params.sloppy = Precision::Half;
    params.tol = 1e-6;
    params.delta = 1e-1;
    params.max_iter = 2000;
    params.checkpoint_interval = 1;
  }
};

// CG on the normal equations with a seeded message-fault environment
RealFixture cg_fixture() {
  RealFixture f;
  // uniform-precision CG: the mixed-precision path is BiCGstab-only
  f.params.solver = SolverType::CG;
  f.params.sloppy.reset();
  f.params.retry.checksums = true;
  return f;
}

sim::ClusterSpec cg_fault_spec() {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 31337;
  spec.faults.drop_rate = 0.02;
  spec.faults.delay_rate = 0.05;
  spec.faults.corrupt_rate = 0.01;
  return spec;
}

// seeded rank crashes in the first half of the clean solve's timeline
sim::ClusterSpec crash_spec(const RealFixture& f) {
  HostSpinorField x_clean(f.g);
  const InvertResult clean = invert_multi_gpu(sim::ClusterSpec::jlab_9g(4), f.u, f.b,
                                              x_clean, f.params);
  EXPECT_TRUE(clean.stats.converged) << clean.stats.summary();
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 4242;
  spec.faults.crash_rate = 0.35;
  spec.faults.crash_window_us = 0.5 * clean.simulated_time_us;
  return spec;
}

// everything observable about one Real-mode solve
struct RealObs {
  bool converged = false;
  int iterations = 0;
  double true_residual = 0;
  double time_us = 0;
  double gflops = 0;
  std::uint64_t report_digest = 0;   // solver stats + FaultReport/RecoveryReport
  std::uint64_t solution_digest = 0; // every component of x
  std::uint64_t trace_digest = 0;    // exported trace text minus provenance
};

// Exports carry a one-line provenance stamp naming the thread budget --
// exactly what these tests vary -- so strip that line before digesting.
// Everything else must match to the last bit.
std::string strip_provenance(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.find("\"provenance\"") == std::string::npos) {
      out += line;
      if (eol < text.size()) out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

// trace exports append .N suffixes when the base name exists; each run here
// uses a distinct base, so exactly one variant exists: read it, delete it
std::string slurp_export(const std::string& base) {
  for (int n = 0; n < 64; ++n) {
    const std::string path = n == 0 ? base : base + "." + std::to_string(n);
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return strip_provenance(ss.str());
  }
  return "";
}

std::uint64_t report_digest(const InvertResult& r) {
  const SolverStats& s = r.stats;
  const FaultReport& f = r.faults;
  const RecoveryReport& rec = f.recovery;
  Fnv1a h;
  h.add(s.iterations).add(s.reliable_updates).add(s.restarts).add(s.true_residual);
  h.add(s.converged);
  h.add(f.drops).add(f.delays).add(f.corruptions).add(f.device_flips).add(f.stalls);
  h.add(f.checksum_errors).add(f.sdc_detected).add(f.retries).add(f.recovered);
  h.add(f.rollbacks).add(f.breakdown_restarts).add(f.escalated).add(f.recovery_time_us);
  h.add(rec.failures).add(rec.crashes).add(rec.hangs).add(rec.respawns);
  h.add(rec.checkpoints).add(rec.restores).add(rec.detection_us).add(rec.checkpoint_us);
  h.add(rec.restore_us).add(rec.checkpoint_digest);
  return h.value();
}

std::uint64_t solution_digest(const HostSpinorField& x) {
  Fnv1a h;
  for (std::int64_t i = 0; i < x.geom().volume(); ++i)
    for (std::size_t spin = 0; spin < 4; ++spin)
      for (std::size_t c = 0; c < 3; ++c) h.add(x[i].at(spin, c).re).add(x[i].at(spin, c).im);
  return h.value();
}

RealObs run_real(const RealFixture& f, sim::ClusterSpec spec, const std::string& trace_path) {
  spec.trace.enabled = true;
  spec.trace.path = trace_path;
  HostSpinorField x(f.g);
  const InvertResult r = invert_multi_gpu(spec, f.u, f.b, x, f.params);
  const std::string trace_text = slurp_export(trace_path);
  EXPECT_FALSE(trace_text.empty()) << trace_path;
  return RealObs{r.stats.converged,   r.stats.iterations, r.stats.true_residual,
                 r.simulated_time_us, r.effective_gflops, report_digest(r),
                 solution_digest(x),  Fnv1a().add(trace_text).value()};
}

void sweep_real(const RealFixture& f, const sim::ClusterSpec& spec, const std::string& name,
                const RealObs& golden) {
  int run_index = 0;
  sweep_budgets(
      [&] { return run_real(f, spec, name + "_" + std::to_string(run_index++) + ".trace.json"); },
      [&](const RealObs& o, const std::string& label) {
        EXPECT_TRUE(o.converged) << label;
        EXPECT_EQ(o.iterations, golden.iterations) << label;
        EXPECT_EQ(o.true_residual, golden.true_residual) << label;
        EXPECT_EQ(o.time_us, golden.time_us) << label;
        EXPECT_EQ(o.gflops, golden.gflops) << label;
        EXPECT_EQ(o.report_digest, golden.report_digest) << label << " solver/fault report";
        EXPECT_EQ(o.solution_digest, golden.solution_digest) << label << " solution vector";
        EXPECT_EQ(o.trace_digest, golden.trace_digest)
            << label << ": exported trace (timestamps included) must be bit-identical";
      });
}

// the full reliable-messaging story (retries, checksums, degraded links,
// rollbacks) must replay identically
TEST(SchedulerEquivalence, RealCGWithMessageFaults) {
  sweep_real(cg_fixture(), cg_fault_spec(), "sched_equiv_cg",
             {true, 36, 3.6474461583079097e-07, 114830.75593877178, 0.67972535199209494,
              3504111627316909541ull, 13386840871117981068ull, 15977016385785735705ull});
}

// rank crashes, heartbeat detection, and coordinated checkpoint/restart:
// the hardest scenario for the deterministic deadlock protocol (survivors
// park on a dead peer, and the recovery rendezvous must reconverge)
TEST(SchedulerEquivalence, RealCrashRecoveryCheckpointRestart) {
  const RealFixture f;
  exec::set_thread_budget(8);
  const sim::ClusterSpec spec = crash_spec(f);
  sweep_real(f, spec, "sched_equiv_crash",
             {true, 15, 2.4746275938650555e-07, 106859.44514638213, 0.53304622648911903,
              2399606613590173034ull, 7491704160572643007ull, 17944853957508116845ull});
}

// --- targeted-wakeup edge cases ---------------------------------------------
// A send wakes only its receiver (SeqScheduler::wake); allreduce completion,
// death, recovery and poison wake everyone.  Each case records, per rank,
// everything the body observed plus its final clock.

using WakeCase = std::function<void(sim::VirtualCluster&, sim::RankContext&,
                                    std::vector<double>&)>;
using WakeRecord = std::vector<std::vector<double>>;

WakeRecord run_wake_case(int ranks, const sim::FaultConfig& faults, const WakeCase& body) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(ranks);
  spec.faults = faults;
  sim::VirtualCluster cluster(spec);
  WakeRecord seen(static_cast<std::size_t>(ranks));
  cluster.run([&](sim::RankContext& ctx) {
    auto& row = seen[static_cast<std::size_t>(ctx.rank())];
    body(cluster, ctx, row);
    row.push_back(ctx.clock().now_us);
  });
  return seen;
}

void sweep_wake_case(int ranks, const sim::FaultConfig& faults, const WakeCase& body,
                     const WakeRecord& golden) {
  sweep_budgets([&] { return run_wake_case(ranks, faults, body); },
                [&](const WakeRecord& seen, const std::string& label) {
                  ASSERT_EQ(seen.size(), golden.size()) << label;
                  for (std::size_t r = 0; r < seen.size(); ++r)
                    EXPECT_EQ(seen[r], golden[r]) << label << " rank " << r;
                });
}

std::vector<std::byte> bytes_of(int first, int count) {
  std::vector<std::byte> b(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) b[static_cast<std::size_t>(i)] = std::byte(first + i);
  return b;
}

double byte_sum(std::vector<std::byte> b) {
  double sum = 0;
  for (std::byte x : b) sum += static_cast<double>(std::to_integer<int>(x));
  return sum;
}

// rank 0 parks in an allreduce; rank 1 sends it a message before joining,
// which wakes rank 0 inside the allreduce for nothing (it re-parks); rank 0
// receives the message only after the allreduce completes
void message_to_parked_rank(sim::VirtualCluster&, sim::RankContext& ctx,
                            std::vector<double>& seen) {
  const int r = ctx.rank();
  if (r == 1) {
    ctx.clock().advance(40);
    (void)ctx.isend(0, 7, bytes_of(3, 64), 4096);
    ctx.clock().advance(10);
  } else if (r > 1) {
    ctx.clock().advance(100.0 * r);
  }
  seen.push_back(ctx.allreduce_sum(1.0 + r));
  if (r == 0) {
    sim::RecvHandle h = ctx.recv(1, 7);
    seen.push_back(h.arrival_us());
    seen.push_back(h.send_time_us());
    seen.push_back(byte_sum(h.take_payload()));
  }
}

// wake(r) on a running rank (a self-send) and on a finished rank (a send
// nobody will receive, posted after the receiver returned) is a no-op
void wake_running_or_finished(sim::VirtualCluster&, sim::RankContext& ctx,
                              std::vector<double>& seen) {
  if (ctx.rank() == 1) {
    (void)ctx.isend(1, 3, bytes_of(1, 8), 512); // wakes itself while running
    sim::RecvHandle self = ctx.recv(1, 3);
    seen.push_back(self.arrival_us());
    seen.push_back(byte_sum(self.take_payload()));
    (void)ctx.isend(0, 5, bytes_of(9, 16), 1024);
    return; // finished: rank 0's later send must not resume this rank
  }
  sim::RecvHandle h = ctx.recv(1, 5);
  seen.push_back(h.arrival_us());
  seen.push_back(byte_sum(h.take_payload()));
  ctx.clock().advance(25);
  (void)ctx.isend(1, 11, bytes_of(0, 8), 512); // wakes a finished rank
}

// rank 1 dies (register_death marks it terminal) and then enters recovery
// (marking it again): it counts once, survivors see the same count when the
// failure detector fires, and the recovery rendezvous resets it to zero so
// the next allreduce completes normally
sim::FaultConfig one_crash() {
  sim::FaultConfig faults;
  faults.seed = 17;
  faults.crash_rate = 1.0; // only rank 1 arms its draw below
  faults.crash_window_us = 10.0;
  return faults;
}

void terminal_marked_twice(sim::VirtualCluster& cluster, sim::RankContext& ctx,
                           std::vector<double>& row) {
  if (ctx.rank() == 1) {
    ctx.faults().arm_deaths(ctx.clock().now_us);
    ctx.clock().advance(20); // past the window: the draw is due
  }
  try {
    row.push_back(ctx.allreduce_sum(1.0)); // unreachable: rank 1 dies first
  } catch (const sim::RankDeath&) {
    ctx.enter_recovery();
  } catch (const sim::RankFailure& f) {
    EXPECT_EQ(f.failed_rank, 1);
  }
  row.push_back(cluster.terminal_count());
  const sim::RecoveryEpoch ep = ctx.recovery_rendezvous();
  row.push_back(ep.resume_us);
  row.push_back(cluster.terminal_count());
  row.push_back(ctx.allreduce_sum(1.0));
}

TEST(SchedulerEquivalence, MessageToRankParkedInAllreduce) {
  // rank 0: allreduce sum, arrival and send time of rank 1's message, its
  // byte sum, final clock; ranks 1-3: allreduce sum, final clock
  sweep_wake_case(4, {}, message_to_parked_rank,
                  {{10, 313.51022222222218, 40, 2208, 314.21022222222217},
                   {10, 311.39999999999998},
                   {10, 311.39999999999998},
                   {10, 311.39999999999998}});
}

TEST(SchedulerEquivalence, WakeOnRunningOrFinishedRankIsNoOp) {
  // per rank: arrival time and byte sum of the message received, final clock
  sweep_wake_case(2, {}, wake_running_or_finished,
                  {{4.1413333333333329, 264, 30.541333333333331},
                   {2.0137777777777774, 36, 3.4137777777777778}});
}

TEST(SchedulerEquivalence, TerminalCountCountsEachRankOnce) {
  // per rank: terminal count at detection (1: counted once), resume time,
  // count after the rendezvous (0: reset), the post-recovery allreduce (3),
  // final clock
  sweep_wake_case(3, one_crash(), terminal_marked_twice,
                  {{1, 270, 0, 3, 281.39999999999998},
                   {1, 270, 0, 3, 281.39999999999998},
                   {1, 270, 0, 3, 281.39999999999998}});
}

} // namespace
} // namespace quda
