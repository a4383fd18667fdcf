// Critical-path analyzer tests (src/trace/critpath), through its public
// surface: analyze_solve(), CritSummary and attribution_table().
//
// The analyzer's contract is exactness, so the tests assert bitwise and
// near-machine-precision identities, not tolerances-of-convenience:
//   * the backward walk's path length equals the end-to-end simulated time
//     EXACTLY (the walk uses only recorded doubles and recomputes every
//     cross-rank arrival with the same expression the simulator used);
//   * the segments tile [0, makespan], so the attribution categories sum
//     to the path length;
//   * the identity lane of the forward replay reproduces the makespan, and
//     every monotone what-if lane is bracketed by the compute bound below
//     and the measured time above;
//   * the paper's qualitative structure shows up in the attribution:
//     NoOverlap exposes far more communication than Overlap at fig5 sizes;
//   * golden pins hold every CritSummary field bitwise for five runs
//     (fig5 Overlap/NoOverlap, drop+corrupt faults, crash with
//     checkpoint/restart, Real-mode invert), so a change to the model's
//     storage, the walk or the replay cannot move a last bit unnoticed;
//   * hand-built traces that break the model's invariants (a send edge
//     naming no isend, unequal collective counts, a sync ending at no
//     device op) come back invalid with a reason.

#include "core/quda_api.h"
#include "dirac/gauge_init.h"
#include "parallel/modeled_solver.h"
#include "trace/critpath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace quda {
namespace {

using parallel::ModeledSolverConfig;
using parallel::ModeledSolverResult;

struct AnalyzedRun {
  ModeledSolverResult result;
  trace::CritSummary crit; // re-derived from the raw report (independent of
                           // the copy run_modeled_solver attaches)
  double makespan_us = 0;
};

AnalyzedRun run_analyzed(int ranks, const ModeledSolverConfig& cfg,
                         const sim::FaultConfig& faults = {}) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(ranks);
  spec.trace.enabled = true;
  spec.faults = faults;
  sim::VirtualCluster cluster(spec);
  AnalyzedRun a;
  a.result = parallel::run_modeled_solver(cluster, cfg);
  a.crit = trace::analyze_solve(cluster.trace(),
                                trace::ModelConfig{spec.device.dual_copy_engine});
  a.makespan_us = cluster.makespan_us();
  return a;
}

// fig5(b)-sized local problem: global 24^3 x 32 over 2 GPUs
ModeledSolverConfig fig5_config(CommPolicy policy, int iterations = 30) {
  ModeledSolverConfig cfg;
  cfg.local = LatticeDims{24, 24, 24, 16};
  cfg.outer = Precision::Single;
  cfg.sloppy = Precision::Half;
  cfg.policy = policy;
  cfg.iterations = iterations;
  cfg.reliable_interval = 10;
  return cfg;
}

double cat_sum(const trace::CritSummary& c) {
  double s = 0;
  for (int i = 0; i < trace::kNumPathCats; ++i) s += c.cat_us[i];
  return s;
}

// --- exactness invariants on real solves -------------------------------------

class CritPathPolicies : public ::testing::TestWithParam<CommPolicy> {};

TEST_P(CritPathPolicies, PathLengthEqualsEndToEndTimeExactly) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(GetParam()));
  ASSERT_TRUE(a.result.fits);
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  // bitwise: the walk closed at t == 0 and every segment endpoint is a
  // recorded double, so no epsilon is needed or tolerated
  EXPECT_EQ(a.crit.path_us, a.result.time_us);
  EXPECT_EQ(a.crit.makespan_us, a.makespan_us);
  EXPECT_GE(a.crit.critical_rank, 0);
  EXPECT_LT(a.crit.critical_rank, 2);
  EXPECT_GT(a.crit.segments, 0u);
}

TEST_P(CritPathPolicies, CategoriesTileTheCriticalPath) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(GetParam()));
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  // the sum re-associates many recorded doubles, so allow rounding only
  EXPECT_NEAR(cat_sum(a.crit), a.crit.path_us, 1e-9 * a.crit.path_us);
  for (int i = 0; i < trace::kNumPathCats; ++i)
    EXPECT_GE(a.crit.cat_us[i], 0.0) << trace::path_cat_name(static_cast<trace::PathCat>(i));
}

TEST_P(CritPathPolicies, WhatIfProjectionsAreBracketed) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(GetParam()));
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  // monotone max-plus: removing edge weight can only shrink the makespan,
  // and kernel time per stream survives every projection
  EXPECT_GT(a.crit.compute_bound_us, 0.0);
  EXPECT_LE(a.crit.compute_bound_us, a.crit.whatif_zero_latency_us);
  EXPECT_LE(a.crit.whatif_zero_latency_us, a.crit.makespan_us);
  EXPECT_LE(a.crit.whatif_free_pcie_us, a.crit.makespan_us);
  EXPECT_LE(a.crit.whatif_infinite_overlap_us, a.crit.makespan_us);
  // identity replay re-derives the recorded schedule
  EXPECT_NEAR(a.crit.replay_identity_us, a.crit.makespan_us, 1e-6 * a.crit.makespan_us);
}

TEST_P(CritPathPolicies, AnalysisIsDeterministicAcrossRuns) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(GetParam(), /*iterations=*/10));
  const AnalyzedRun b = run_analyzed(2, fig5_config(GetParam(), /*iterations=*/10));
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  ASSERT_TRUE(b.crit.valid) << b.crit.error;
  EXPECT_EQ(a.crit.path_us, b.crit.path_us);
  EXPECT_EQ(a.crit.critical_rank, b.crit.critical_rank);
  EXPECT_EQ(a.crit.segments, b.crit.segments);
  EXPECT_EQ(a.crit.cross_rank_jumps, b.crit.cross_rank_jumps);
  for (int i = 0; i < trace::kNumPathCats; ++i) EXPECT_EQ(a.crit.cat_us[i], b.crit.cat_us[i]);
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, CritPathPolicies,
                         ::testing::Values(CommPolicy::Overlap, CommPolicy::NoOverlap),
                         [](const ::testing::TestParamInfo<CommPolicy>& info) {
                           return info.param == CommPolicy::Overlap ? "Overlap" : "NoOverlap";
                         });

// --- the paper's structure in the attribution --------------------------------

TEST(CritPathAttribution, NoOverlapExposesMoreCommThanOverlap) {
  const AnalyzedRun no = run_analyzed(2, fig5_config(CommPolicy::NoOverlap));
  const AnalyzedRun ov = run_analyzed(2, fig5_config(CommPolicy::Overlap));
  ASSERT_TRUE(no.crit.valid) << no.crit.error;
  ASSERT_TRUE(ov.crit.valid) << ov.crit.error;
  // the whole point of the overlapped pipeline: communication leaves the
  // critical path.  At fig5(b) sizes the gap is large, not marginal.
  EXPECT_GT(no.crit.exposed_comm_us(), 2.0 * ov.crit.exposed_comm_us());
  // both runs are compute-dominated at this local volume
  EXPECT_GT(no.crit.interior_us() + no.crit.boundary_us(), no.crit.exposed_comm_us());
}

TEST(CritPathAttribution, SoloRankHasNoExposedCommAndNoRankHops) {
  ModeledSolverConfig cfg = fig5_config(CommPolicy::Overlap);
  cfg.local = LatticeDims{24, 24, 24, 32};
  const AnalyzedRun a = run_analyzed(1, cfg);
  ASSERT_TRUE(a.result.fits);
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  EXPECT_EQ(a.crit.path_us, a.result.time_us);
  EXPECT_EQ(a.crit.cross_rank_jumps, 0);
  EXPECT_EQ(a.crit.critical_rank, 0);
  // a 1-rank solve has no halo messages to expose (the boundary kernels
  // still run: periodic wrap within the rank)
  EXPECT_DOUBLE_EQ(a.crit.exposed_comm_us(), 0.0);
}

TEST(CritPathAttribution, WalkStaysExactUnderFaultInjection) {
  // retransmissions, checksum failures and stalls reshape the DAG but every
  // edge is still recorded, so the walk must still close at time zero
  sim::FaultConfig faults;
  faults.seed = 7;
  faults.drop_rate = 2e-3;
  faults.corrupt_rate = 2e-3;
  ModeledSolverConfig cfg = fig5_config(CommPolicy::Overlap);
  cfg.local = LatticeDims{8, 8, 8, 16};
  cfg.iterations = 60;
  cfg.retry.checksums = true;
  cfg.retry.max_retries = 6;
  const AnalyzedRun a = run_analyzed(4, cfg, faults);
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  EXPECT_GT(a.result.faults.retries, 0) << "faults must actually fire";
  EXPECT_EQ(a.crit.path_us, a.result.time_us);
  EXPECT_NEAR(cat_sum(a.crit), a.crit.path_us, 1e-9 * a.crit.path_us);
}

TEST(CritPathAttribution, SolverResultCarriesTheSameSummary) {
  // run_modeled_solver attaches the analysis; it must match a re-derivation
  // from the same report
  const AnalyzedRun a = run_analyzed(2, fig5_config(CommPolicy::Overlap, /*iterations=*/10));
  ASSERT_TRUE(a.result.traced);
  ASSERT_TRUE(a.result.critpath.valid) << a.result.critpath.error;
  EXPECT_EQ(a.result.critpath.path_us, a.crit.path_us);
  for (int i = 0; i < trace::kNumPathCats; ++i)
    EXPECT_EQ(a.result.critpath.cat_us[i], a.crit.cat_us[i]);
}

// --- degenerate inputs and rendering -----------------------------------------

TEST(CritPathDegenerate, EmptyReportIsInvalidWithError) {
  trace::TraceReport empty;
  const trace::CritSummary c = trace::analyze_solve(empty);
  EXPECT_FALSE(c.valid);
  EXPECT_FALSE(c.error.empty());
  EXPECT_EQ(c.path_us, 0.0);
  // the renderer must degrade gracefully, not crash or print a table of zeros
  const std::string table = trace::attribution_table(c);
  EXPECT_NE(table.find("unavailable"), std::string::npos);
}

TEST(CritPathDegenerate, UntracedRunYieldsInvalidSummary) {
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  sim::VirtualCluster cluster(spec);
  const ModeledSolverResult r =
      parallel::run_modeled_solver(cluster, fig5_config(CommPolicy::Overlap, 5));
  ASSERT_TRUE(r.fits);
  EXPECT_FALSE(r.traced);
  EXPECT_FALSE(r.critpath.valid);
}

// hand-built traces that violate the model's invariants: each must come
// back invalid with a reason, never crash or index out of range
trace::Event host_event(const char* name, trace::Cat cat, bool instant, double ts, double end,
                        int peer = -1, int tag = -1) {
  trace::Event e;
  e.name = name;
  e.cat = cat;
  e.instant = instant;
  e.track = trace::kTrackHost;
  e.ts_us = ts;
  e.end_us = end;
  e.peer = peer;
  e.tag = tag;
  return e;
}

trace::TraceReport report_of(std::vector<std::vector<trace::Event>> per_rank) {
  trace::TraceReport report;
  report.enabled = true;
  report.per_rank = std::move(per_rank);
  return report;
}

void expect_model_error(const trace::TraceReport& report) {
  const trace::CritSummary c = trace::analyze_solve(report);
  EXPECT_FALSE(c.valid);
  EXPECT_FALSE(c.error.empty());
}

TEST(CritPathDegenerate, WaitWhoseSendEdgeMatchesNoIsend) {
  using trace::Cat;
  // rank 0 sends at t = 1, but rank 1's wait records a send at t = 3
  trace::Event wait = host_event("mpi_wait", Cat::Comm, false, 2, 6, 0, 5);
  wait.dep_rank = 0;
  wait.dep_ts_us = 3;
  wait.edge_us = 1;
  std::vector<trace::Event> r0{host_event("isend", Cat::Comm, true, 1, 1, 1, 5)};
  std::vector<trace::Event> r1{host_event("irecv", Cat::Comm, true, 0, 0, 0, 5), wait};
  expect_model_error(report_of({r0, r1}));

  // the same wait naming a sender outside the cluster
  wait.peer = wait.dep_rank = 7;
  r1.back() = wait;
  r1.front().peer = 7;
  expect_model_error(report_of({r0, r1}));
}

TEST(CritPathDegenerate, RanksDisagreeOnCollectiveCount) {
  trace::Event coll = host_event("allreduce", trace::Cat::Collective, false, 1, 2);
  coll.dep_rank = 0;
  coll.dep_ts_us = 1;
  coll.edge_us = 1;
  expect_model_error(report_of({{coll}, {}}));
}

TEST(CritPathDegenerate, StreamSyncEndMatchingNoDeviceOp) {
  // the host blocks on stream 0 until t = 4, but nothing ever ran there
  trace::Event sync = host_event("stream_sync", trace::Cat::Sync, false, 1, 4, -1, 0);
  expect_model_error(report_of({{sync}}));
  // a sync that names no stream at all
  sync.tag = -1;
  expect_model_error(report_of({{sync}}));
}

TEST(CritPathDegenerate, ZeroWidthSyncOnAnIdleStreamIsValid) {
  // a sync on a stream that never ran anything returns at once; the replay
  // must still have a clock for that stream
  trace::Event sync = host_event("stream_sync", trace::Cat::Sync, false, 2, 2, -1, 3);
  const trace::CritSummary c = trace::analyze_solve(report_of({{sync}}));
  ASSERT_TRUE(c.valid) << c.error;
  EXPECT_EQ(c.path_us, 2.0);
  EXPECT_EQ(c.solver_us(), 2.0);
  EXPECT_EQ(c.replay_identity_us, 2.0);
}

TEST(CritPathDegenerate, AttributionTableNamesEveryCategory) {
  const AnalyzedRun a = run_analyzed(2, fig5_config(CommPolicy::Overlap, /*iterations=*/10));
  ASSERT_TRUE(a.crit.valid) << a.crit.error;
  const std::string table = trace::attribution_table(a.crit);
  ASSERT_FALSE(table.empty());
  for (int i = 0; i < trace::kNumPathCats; ++i)
    EXPECT_NE(table.find(trace::path_cat_name(static_cast<trace::PathCat>(i))),
              std::string::npos)
        << table;
  EXPECT_NE(table.find("what-if"), std::string::npos) << table;
}

// --- full public-API run (Real execution mode) -------------------------------

TEST(CritPathApi, InvertAttributesItsFullTimeline) {
  // the analyzer must close over a complete invertQuda-style run -- setup,
  // reordering, mixed-precision solve, reliable updates -- not just the
  // modeled inner loop
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u(g);
  HostSpinorField b(g), x(g);
  make_weak_field_gauge(u, 0.2, 9000);
  make_random_spinor(b, 9001);
  InvertParams params;
  params.mass = 0.1;
  params.tol = 1e-6;
  params.precision = Precision::Single;
  params.max_iter = 500;

  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.trace.enabled = true;
  const InvertResult r = invert_multi_gpu(spec, u, b, x, params);
  EXPECT_TRUE(r.stats.converged) << r.stats.summary();
  ASSERT_TRUE(r.traced);
  ASSERT_TRUE(r.critpath.valid) << r.critpath.error;
  // the attribution covers the whole timeline; simulated_time_us is the
  // solve window only (setup excluded), so the path strictly contains it
  EXPECT_EQ(r.critpath.path_us, r.critpath.makespan_us);
  EXPECT_GE(r.critpath.path_us, r.simulated_time_us);
  EXPECT_NEAR(cat_sum(r.critpath), r.critpath.path_us, 1e-9 * r.critpath.path_us);
  EXPECT_GT(r.critpath.compute_bound_us, 0.0);
  EXPECT_LE(r.critpath.whatif_zero_latency_us, r.critpath.makespan_us);
}

// --- golden pins ---------------------------------------------------------------
//
// Every CritSummary field, bitwise, for five scenarios that together reach
// every step kind, every category, both hop kinds, fault tombstones and a
// recovery epoch.  Captured as hexfloats so no decimal rounding hides a
// last-bit change in the walk's summation order or the replay arithmetic.

struct Golden {
  double path_us, makespan_us;
  double cat_us[trace::kNumPathCats];
  int critical_rank;
  long cross_rank_jumps;
  std::size_t segments;
  double compute_bound_us, replay_identity_us;
  double whatif_zero_latency_us, whatif_free_pcie_us, whatif_infinite_overlap_us;
};

void expect_pinned(const trace::CritSummary& c, const Golden& g) {
  ASSERT_TRUE(c.valid) << c.error;
  EXPECT_EQ(c.path_us, g.path_us);
  EXPECT_EQ(c.makespan_us, g.makespan_us);
  for (int i = 0; i < trace::kNumPathCats; ++i)
    EXPECT_EQ(c.cat_us[i], g.cat_us[i]) << trace::path_cat_name(static_cast<trace::PathCat>(i));
  EXPECT_EQ(c.critical_rank, g.critical_rank);
  EXPECT_EQ(c.cross_rank_jumps, g.cross_rank_jumps);
  EXPECT_EQ(c.segments, g.segments);
  EXPECT_EQ(c.compute_bound_us, g.compute_bound_us);
  EXPECT_EQ(c.replay_identity_us, g.replay_identity_us);
  EXPECT_EQ(c.whatif_zero_latency_us, g.whatif_zero_latency_us);
  EXPECT_EQ(c.whatif_free_pcie_us, g.whatif_free_pcie_us);
  EXPECT_EQ(c.whatif_infinite_overlap_us, g.whatif_infinite_overlap_us);
}

TEST(CritPathGolden, Fig5Overlap) {
  expect_pinned(run_analyzed(2, fig5_config(CommPolicy::Overlap)).crit,
                {0x1.93f5a94b50cabp+17, 0x1.93f5a94b50cabp+17,
                 {0x1.63dfb87ac0c7cp+17, 0x1.533f756c6de86p+14, 0x1.4f8c3b2a19b4bp+9,
                  0x1.11056949f02e4p+8, 0x1.eaf999999a647p+10, 0x0p+0, 0x0p+0},
                 0, 1, 1251, 0x1.8e47a7284e842p+17, 0x1.93f5a94b50cabp+17,
                 0x1.92a6d04359e43p+17, 0x1.936d2696abd2ap+17, 0x1.91c567284e842p+17});
}

TEST(CritPathGolden, Fig5NoOverlap) {
  expect_pinned(run_analyzed(2, fig5_config(CommPolicy::NoOverlap)).crit,
                {0x1.0168ca3e5d134p+18, 0x1.0168ca3e5d134p+18,
                 {0x1.8e47a7284e84ep+17, 0x0p+0, 0x1.abcbc131d62bfp+12, 0x1.9156705ea6eaep+15,
                  0x1.6af999999aeafp+10, 0x0p+0, 0x0p+0},
                 0, 129, 3779, 0x1.8e47a7284e847p+17, 0x1.0168ca3e5d134p+18,
                 0x1.f6271cd991e0dp+17, 0x1.9e7bf865106b7p+17, 0x1.90c6cd8eb4eadp+17});
}

TEST(CritPathGolden, DropAndCorruptFaults) {
  // the WalkStaysExactUnderFaultInjection run: dropped attempts leave
  // tombstoned isends that no wait may match
  sim::FaultConfig faults;
  faults.seed = 7;
  faults.drop_rate = 2e-3;
  faults.corrupt_rate = 2e-3;
  ModeledSolverConfig cfg = fig5_config(CommPolicy::Overlap);
  cfg.local = LatticeDims{8, 8, 8, 16};
  cfg.iterations = 60;
  cfg.retry.checksums = true;
  cfg.retry.max_retries = 6;
  const AnalyzedRun a = run_analyzed(4, cfg, faults);
  ASSERT_GT(a.result.faults.retries, 0);
  expect_pinned(a.crit,
                {0x1.bf3ccc0a099a4p+17, 0x1.bf3ccc0a099a4p+17,
                 {0x1.16c3af65fb2d8p+11, 0x1.8df0e063227p+10, 0x1.948b43f2b7b85p+11,
                  0x1.ab1108157a29fp+17, 0x1.98a999999aa0ep+11, 0x0p+0, 0x0p+0},
                 0, 9, 7769, 0x1.d3a1cc3ca161cp+13, 0x1.bf3ccc0a099a4p+17,
                 0x1.bae07e6a10e4p+17, 0x1.50a6eadb5b508p+14, 0x1.ab3a91ca9a29fp+17});
}

TEST(CritPathGolden, CrashCheckpointRestart) {
  // a mid-solve crash recovered by checkpoint/restart: the recovery epoch
  // resets every channel (recovery_reset), so sends posted before it are
  // never waited on
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u(g);
  HostSpinorField b(g), x(g);
  make_weak_field_gauge(u, 0.2, 9000);
  make_random_spinor(b, 9001);
  InvertParams params;
  params.mass = 0.1;
  params.csw = 1.0;
  params.precision = Precision::Single;
  params.sloppy = Precision::Half;
  params.tol = 1e-6;
  params.delta = 1e-1;
  params.max_iter = 2000;
  params.checkpoint_interval = 1;
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(4);
  spec.faults.seed = 4242;
  spec.faults.crash_rate = 0.35;
  spec.faults.crash_window_us = 0x1.217eb22418fd6p+15; // half the clean solve
  spec.trace.enabled = true;
  const InvertResult r = invert_multi_gpu(spec, u, b, x, params);
  ASSERT_GT(r.faults.recovery.crashes, 0);
  ASSERT_GT(r.faults.recovery.failures, 0) << "a recovery epoch must complete";
  ASSERT_TRUE(r.stats.converged) << r.stats.summary();
  expect_pinned(r.critpath,
                {0x1.a45aac9dab894p+16, 0x1.a45aac9dab894p+16,
                 {0x1.eb759a4fecap+3, 0x1.6d887b7517488p+6, 0x1.a4a3e02467f87p+10,
                  0x1.6ba1a245c088dp+16, 0x1.388ccccccc5dp+10, 0x0p+0, 0x1.66cc4ec3b3556p+13},
                 0, 3, 3082, 0x1.aaf72ebf14dc8p+6, 0x1.a45aac9dab894p+16,
                 0x1.9e67b6b6b3813p+16, 0x1.18b950467f007p+14, 0x1.6ba75dd56cda4p+16});
}

TEST(CritPathGolden, RealModeInvert) {
  // the CritPathApi run
  Geometry g{LatticeDims{4, 4, 4, 8}};
  HostGaugeField u(g);
  HostSpinorField b(g), x(g);
  make_weak_field_gauge(u, 0.2, 9000);
  make_random_spinor(b, 9001);
  InvertParams params;
  params.mass = 0.1;
  params.tol = 1e-6;
  params.precision = Precision::Single;
  params.max_iter = 500;
  sim::ClusterSpec spec = sim::ClusterSpec::jlab_9g(2);
  spec.trace.enabled = true;
  const InvertResult r = invert_multi_gpu(spec, u, b, x, params);
  ASSERT_TRUE(r.traced);
  expect_pinned(r.critpath,
                {0x1.5162108dd334p+15, 0x1.5162108dd334p+15,
                 {0x1.d2f8a59145ap+4, 0x1.001995560acc8p+6, 0x1.0576ba23f40bdp+9,
                  0x1.4670c9c5e636ep+15, 0x1.883fffffffee6p+9, 0x0p+0, 0x0p+0},
                 0, 1, 1561, 0x1.3a78aa08337f4p+7, 0x1.5162108dd334p+15,
                 0x1.4dfc9c0ba9c9fp+15, 0x1.5dcd7bbdd84dbp+11, 0x1.467c40e53eda6p+15});
}

} // namespace
} // namespace quda
