// Property tests on the performance model: the paper's memory gates, face
// traffic arithmetic, and qualitative scaling shapes of the modeled solver
// (weak scaling flatness, mixed > single > double ordering, NUMA penalty).

#include "parallel/modeled_solver.h"
#include "perfmodel/costs.h"
#include "perfmodel/footprint.h"

#include <gtest/gtest.h>

namespace quda {
namespace {

using parallel::ModeledSolverConfig;
using parallel::ModeledSolverResult;
using parallel::run_modeled_solver;
using sim::ClusterSpec;
using sim::VirtualCluster;

ModeledSolverResult run_case(int ranks, const LatticeDims& local, Precision outer,
                             std::optional<Precision> sloppy, CommPolicy policy,
                             bool good_numa = true, int iters = 50) {
  ClusterSpec spec = ClusterSpec::jlab_9g(ranks);
  spec.good_numa_binding = good_numa;
  VirtualCluster cluster(spec);
  ModeledSolverConfig cfg;
  cfg.local = local;
  cfg.outer = outer;
  cfg.sloppy = sloppy;
  cfg.policy = policy;
  cfg.iterations = iters;
  return run_modeled_solver(cluster, cfg);
}

TEST(Costs, PaperAnchorNumbers) {
  EXPECT_DOUBLE_EQ(perf::kMatrixFlopsPerSite, 3696.0);
  EXPECT_DOUBLE_EQ(perf::matrix_bytes_per_site(Precision::Single), 2976.0);
  EXPECT_DOUBLE_EQ(perf::matrix_bytes_per_site(Precision::Double), 5952.0);
  EXPECT_LT(perf::matrix_bytes_per_site(Precision::Half),
            0.55 * perf::matrix_bytes_per_site(Precision::Single));
}

TEST(Costs, ReconAwareTrafficShrinks) {
  // Twelve is the anchor: the recon-aware overload must reproduce the
  // two-argument totals bit-for-bit
  for (Precision p : {Precision::Double, Precision::Single, Precision::Half}) {
    EXPECT_EQ(perf::matrix_bytes_per_site(p, Reconstruct::Twelve), perf::matrix_bytes_per_site(p));
    const auto anchor = perf::dslash_kernel_cost(p, 1000);
    const auto twelve = perf::dslash_kernel_cost(p, 1000, Reconstruct::Twelve);
    EXPECT_EQ(anchor.bytes, twelve.bytes);
    EXPECT_EQ(anchor.flops, twelve.flops);
  }

  // gauge-only traffic: 16 link loads x stored reals; the acceptance floors
  // of the reconstruction work -- 8-real cuts >= 30% of the gauge traffic
  // vs 18-real and >= 25% vs 12-real
  for (Precision p : {Precision::Double, Precision::Single, Precision::Half}) {
    const double g8 = perf::gauge_bytes_per_site(p, Reconstruct::Eight);
    const double g12 = perf::gauge_bytes_per_site(p, Reconstruct::Twelve);
    const double g18 = perf::gauge_bytes_per_site(p, Reconstruct::Eighteen);
    EXPECT_DOUBLE_EQ(g12, 16.0 * 12 * bytes_per_real(p));
    EXPECT_GE((g18 - g8) / g18, 0.30);
    EXPECT_GE((g12 - g8) / g12, 0.25);
  }

  // the full matrix traffic moves by exactly the gauge delta, so effective
  // Gflops scale with it in the bandwidth-bound model
  const double m8 = perf::matrix_bytes_per_site(Precision::Single, Reconstruct::Eight);
  const double m12 = perf::matrix_bytes_per_site(Precision::Single, Reconstruct::Twelve);
  const double m18 = perf::matrix_bytes_per_site(Precision::Single, Reconstruct::Eighteen);
  EXPECT_DOUBLE_EQ(m12 - m8, 16.0 * 4 * 4.0);
  EXPECT_DOUBLE_EQ(m18 - m12, 16.0 * 6 * 4.0);
  EXPECT_LT(m8, m12);
  EXPECT_LT(m12, m18);
}

TEST(Footprint, ReconAwareGaugeBytes) {
  const LatticeDims local{8, 8, 8, 16};
  // the nullopt passthrough keeps the legacy per-precision convention
  EXPECT_EQ(perf::gauge_field_bytes(Precision::Single, local),
            perf::gauge_field_bytes(Precision::Single, local, Reconstruct::Twelve));
  EXPECT_EQ(perf::gauge_field_bytes(Precision::Double, local),
            perf::gauge_field_bytes(Precision::Double, local, Reconstruct::Eighteen));
  // stored bytes scale with the link width
  const auto b8 = perf::gauge_field_bytes(Precision::Single, local, Reconstruct::Eight);
  const auto b12 = perf::gauge_field_bytes(Precision::Single, local, Reconstruct::Twelve);
  const auto b18 = perf::gauge_field_bytes(Precision::Single, local, Reconstruct::Eighteen);
  EXPECT_EQ(b8 * 12, b12 * 8);
  EXPECT_EQ(b8 * 18, b18 * 8);

  // the solver footprint honors per-level reconstruction: sloppy inherits
  // the outer knob unless overridden
  const auto base = perf::solver_footprint(local, Precision::Single, Precision::Half);
  const auto r8 = perf::solver_footprint(local, Precision::Single, Precision::Half,
                                         Reconstruct::Eight);
  const auto mixed = perf::solver_footprint(local, Precision::Single, Precision::Half,
                                            Reconstruct::Twelve, Reconstruct::Eight);
  EXPECT_LT(r8.gauge_bytes, base.gauge_bytes);
  EXPECT_LT(mixed.gauge_bytes, base.gauge_bytes);
  EXPECT_LT(r8.gauge_bytes, mixed.gauge_bytes);
  EXPECT_EQ(r8.spinor_bytes, base.spinor_bytes);
  EXPECT_EQ(r8.clover_bytes, base.clover_bytes);
}

TEST(ModeledSolver, Recon8RaisesModeledPerformance) {
  // less gauge traffic -> faster bandwidth-bound dslash -> higher effective
  // Gflops, with the gauge footprint shrinking accordingly
  const LatticeDims local{24, 24, 24, 32};
  ClusterSpec spec = ClusterSpec::jlab_9g(4);
  auto run_recon = [&](std::optional<Reconstruct> r) {
    VirtualCluster cluster(spec);
    ModeledSolverConfig cfg;
    cfg.local = local;
    cfg.outer = Precision::Single;
    cfg.policy = CommPolicy::Overlap;
    cfg.iterations = 50;
    cfg.reconstruct = r;
    return run_modeled_solver(cluster, cfg);
  };
  const auto legacy = run_recon(std::nullopt);
  const auto r12 = run_recon(Reconstruct::Twelve);
  const auto r8 = run_recon(Reconstruct::Eight);
  const auto r18 = run_recon(Reconstruct::Eighteen);
  ASSERT_TRUE(legacy.fits && r12.fits && r8.fits && r18.fits);
  // unset knob == explicit Twelve (the pre-knob behavior) for the kernels
  EXPECT_EQ(legacy.effective_gflops, r12.effective_gflops);
  EXPECT_GT(r8.effective_gflops, r12.effective_gflops);
  EXPECT_GT(r12.effective_gflops, r18.effective_gflops);
  EXPECT_LT(r8.gauge_footprint_bytes, r12.gauge_footprint_bytes);
  EXPECT_LT(r12.gauge_footprint_bytes, r18.gauge_footprint_bytes);
}

TEST(Costs, FaceBytesArithmetic) {
  // 12 reals per face site (the projected half spinor)
  EXPECT_EQ(perf::face_bytes(Precision::Single, 1000), 1000 * 12 * 4);
  EXPECT_EQ(perf::face_bytes(Precision::Double, 1000), 1000 * 12 * 8);
  // half adds one float norm per site
  EXPECT_EQ(perf::face_bytes(Precision::Half, 1000), 1000 * (12 * 2 + 4));
  // no-overlap moves 24/Nvec blocks per face, +1 for half norms
  EXPECT_EQ(perf::face_copy_blocks(Precision::Single), 6);
  EXPECT_EQ(perf::face_copy_blocks(Precision::Double), 12);
  EXPECT_EQ(perf::face_copy_blocks(Precision::Half), 7);
}

// --- the paper's device-memory gates (Sections VII-B and VII-C) ---------------

TEST(Footprint, Strong323x256MixedNeedsAtLeastEightGpus) {
  const gpusim::Device probe(gpusim::geforce_gtx285(), gpusim::BusModel{});
  // N = 4: local 32^3 x 64, mixed single-half does NOT fit
  const auto f4 = perf::solver_footprint({32, 32, 32, 64}, Precision::Single, Precision::Half);
  EXPECT_GT(f4.total(), probe.bytes_capacity());
  // N = 8: local 32^3 x 32 fits
  const auto f8 = perf::solver_footprint({32, 32, 32, 32}, Precision::Single, Precision::Half);
  EXPECT_LE(f8.total(), probe.bytes_capacity());
}

TEST(Footprint, Strong323x256UniformSingleFitsOnFourGpus) {
  const gpusim::Device probe(gpusim::geforce_gtx285(), gpusim::BusModel{});
  const auto f4 = perf::solver_footprint({32, 32, 32, 64}, Precision::Single);
  EXPECT_LE(f4.total(), probe.bytes_capacity());
}

TEST(Footprint, Weak32p4DoubleDoesNotFit) {
  // Fig. 4(a): "we were unable to fit the double precision ... problems
  // into device memory" at 32^4 sites per GPU
  const gpusim::Device probe(gpusim::geforce_gtx285(), gpusim::BusModel{});
  const auto fd = perf::solver_footprint({32, 32, 32, 32}, Precision::Double);
  EXPECT_GT(fd.total(), probe.bytes_capacity());
  const auto fdh = perf::solver_footprint({32, 32, 32, 32}, Precision::Double, Precision::Half);
  EXPECT_GT(fdh.total(), probe.bytes_capacity());
  // but single fits
  const auto fs = perf::solver_footprint({32, 32, 32, 32}, Precision::Single);
  EXPECT_LE(fs.total(), probe.bytes_capacity());
}

TEST(Footprint, Weak243x32DoubleAndDoubleHalfFit) {
  // Fig. 4(b) shows double and double-half curves at 24^3 x 32 per GPU
  const gpusim::Device probe(gpusim::geforce_gtx285(), gpusim::BusModel{});
  EXPECT_LE(perf::solver_footprint({24, 24, 24, 32}, Precision::Double).total(),
            probe.bytes_capacity());
  EXPECT_LE(perf::solver_footprint({24, 24, 24, 32}, Precision::Double, Precision::Half).total(),
            probe.bytes_capacity());
}

TEST(ModeledSolver, OomIsReportedNotCrashed) {
  const auto r = run_case(4, {32, 32, 32, 64}, Precision::Single, Precision::Half,
                          CommPolicy::Overlap);
  EXPECT_FALSE(r.fits);
  EXPECT_EQ(r.effective_gflops, 0.0);
}

TEST(ModeledGrid, MismatchedTopologyThrows) {
  // the grid resolves exactly as in invert_multi_gpu: all ones is the time
  // ring, anything else must multiply to the rank count
  VirtualCluster cluster(ClusterSpec::jlab_9g(4));
  ModeledSolverConfig cfg;
  cfg.local = {8, 8, 8, 8};
  cfg.topology = comm::GridTopology{{1, 1, 2, 4}}; // 8 ranks on a 4-rank cluster
  EXPECT_THROW((void)run_modeled_solver(cluster, cfg), std::invalid_argument);
}

// --- qualitative scaling shapes ------------------------------------------------

TEST(ModeledSolver, WeakScalingIsNearLinear) {
  // constant local volume: aggregate Gflops at 16 GPUs should be close to
  // 8x the 2-GPU value (Fig. 4's shape)
  const LatticeDims local{24, 24, 24, 32};
  const auto r2 = run_case(2, local, Precision::Single, std::nullopt, CommPolicy::Overlap);
  const auto r16 = run_case(16, local, Precision::Single, std::nullopt, CommPolicy::Overlap);
  ASSERT_TRUE(r2.fits);
  ASSERT_TRUE(r16.fits);
  const double parallel_efficiency = r16.effective_gflops / (8.0 * r2.effective_gflops);
  EXPECT_GT(parallel_efficiency, 0.9);
  EXPECT_LT(parallel_efficiency, 1.05);
}

TEST(ModeledSolver, PrecisionOrderingMatchesPaper) {
  // per-GPU performance: half-sloppy mixed > single > double (Figs. 4, 6)
  const LatticeDims local{24, 24, 24, 32};
  const auto mixed =
      run_case(8, local, Precision::Single, Precision::Half, CommPolicy::Overlap);
  const auto single = run_case(8, local, Precision::Single, std::nullopt, CommPolicy::Overlap);
  const auto dbl = run_case(8, local, Precision::Double, std::nullopt, CommPolicy::Overlap);
  ASSERT_TRUE(mixed.fits && single.fits && dbl.fits);
  EXPECT_GT(mixed.effective_gflops, single.effective_gflops);
  EXPECT_GT(single.effective_gflops, 2.0 * dbl.effective_gflops);
}

TEST(ModeledSolver, DoubleHalfTracksSingleHalf) {
  // Fig. 4(b): "the mixed double-half precision performance ... is nearly
  // identical to that of the single-half precision case"
  const LatticeDims local{24, 24, 24, 32};
  const auto sh = run_case(8, local, Precision::Single, Precision::Half, CommPolicy::Overlap);
  const auto dh = run_case(8, local, Precision::Double, Precision::Half, CommPolicy::Overlap);
  ASSERT_TRUE(sh.fits && dh.fits);
  EXPECT_NEAR(dh.effective_gflops / sh.effective_gflops, 1.0, 0.15);
}

TEST(ModeledSolver, StrongScalingRollsOff) {
  // fixed global volume 24^3 x 128: efficiency per GPU decreases with N
  const auto r4 = run_case(4, {24, 24, 24, 32}, Precision::Single, std::nullopt,
                           CommPolicy::NoOverlap);
  const auto r32 = run_case(32, {24, 24, 24, 4}, Precision::Single, std::nullopt,
                            CommPolicy::NoOverlap);
  ASSERT_TRUE(r4.fits && r32.fits);
  const double per_gpu_4 = r4.effective_gflops / 4.0;
  const double per_gpu_32 = r32.effective_gflops / 32.0;
  EXPECT_LT(per_gpu_32, 0.85 * per_gpu_4);
}

TEST(ModeledSolver, AsyncLatencyHurtsOverlapAtSmallLocalVolume) {
  // Fig. 5(b): on the small lattice at high GPU counts, the no-overlap
  // solver with its cheap synchronous copies wins in mixed precision
  const LatticeDims tiny{24, 24, 24, 4}; // 24^3 x 128 on 32 GPUs
  const auto over =
      run_case(32, tiny, Precision::Single, Precision::Half, CommPolicy::Overlap);
  const auto noover =
      run_case(32, tiny, Precision::Single, Precision::Half, CommPolicy::NoOverlap);
  ASSERT_TRUE(over.fits && noover.fits);
  EXPECT_GT(noover.effective_gflops, over.effective_gflops);
}

TEST(ModeledSolver, OverlapWinsAtLargeLocalVolume) {
  // Fig. 5(a): on the big lattice the overlapped solver is faster
  const LatticeDims big{32, 32, 32, 16}; // 32^3 x 256 on 16 GPUs
  const auto over = run_case(16, big, Precision::Single, std::nullopt, CommPolicy::Overlap);
  const auto noover = run_case(16, big, Precision::Single, std::nullopt, CommPolicy::NoOverlap);
  ASSERT_TRUE(over.fits && noover.fits);
  EXPECT_GT(over.effective_gflops, noover.effective_gflops);
}

TEST(ModeledSolver, BadNumaPlacementCostsPerformance) {
  // the maroon series of Fig. 5(a): at 32 GPUs the local volume is small
  // enough that the (NUMA-degraded) transfers are no longer fully hidden
  const LatticeDims local{32, 32, 32, 8};
  const auto good = run_case(32, local, Precision::Single, Precision::Half, CommPolicy::Overlap,
                             /*good_numa=*/true);
  const auto bad = run_case(32, local, Precision::Single, Precision::Half, CommPolicy::Overlap,
                            /*good_numa=*/false);
  ASSERT_TRUE(good.fits && bad.fits);
  EXPECT_LT(bad.effective_gflops, 0.97 * good.effective_gflops);
}

TEST(ModeledSolver, SingleGpuLandsInPaperRegime) {
  // per-GPU single precision solver performance on the GTX 285 should land
  // near the ~100 effective Gflops regime the paper reports
  const auto r = run_case(1, {24, 24, 24, 32}, Precision::Single, std::nullopt,
                          CommPolicy::Overlap);
  ASSERT_TRUE(r.fits);
  EXPECT_GT(r.effective_gflops, 70.0);
  EXPECT_LT(r.effective_gflops, 140.0);
}

TEST(ModeledSolver, DeterministicAcrossRuns) {
  const auto a = run_case(8, {24, 24, 24, 8}, Precision::Single, Precision::Half,
                          CommPolicy::Overlap);
  const auto b = run_case(8, {24, 24, 24, 8}, Precision::Single, Precision::Half,
                          CommPolicy::Overlap);
  EXPECT_DOUBLE_EQ(a.time_us, b.time_us);
  EXPECT_DOUBLE_EQ(a.effective_gflops, b.effective_gflops);
}

} // namespace
} // namespace quda
