// Unit tests: the discrete-event cluster simulator -- message timing
// semantics, FIFO channels, collectives, determinism across runs, and
// failure isolation.

#include "comm/qmp.h"
#include "sim/event_sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

namespace quda::sim {
namespace {

ClusterSpec two_ranks_one_node() {
  ClusterSpec s;
  s.nodes = 1;
  s.gpus_per_node = 2;
  return s;
}

TEST(ClusterSpec, Jlab9gShape) {
  const ClusterSpec s = ClusterSpec::jlab_9g(32);
  EXPECT_EQ(s.nodes, 16);
  EXPECT_EQ(s.gpus_per_node, 2);
  EXPECT_EQ(s.num_ranks(), 32);
  EXPECT_TRUE(s.same_node(0, 1));
  EXPECT_FALSE(s.same_node(1, 2));
  EXPECT_EQ(ClusterSpec::jlab_9g(1).num_ranks(), 1);
}

TEST(EventSim, MessageCarriesPayload) {
  VirtualCluster cluster(two_ranks_one_node());
  cluster.run([](RankContext& ctx) {
    if (ctx.rank() == 0) {
      const double value = 42.5;
      std::vector<std::byte> payload(sizeof(double));
      std::memcpy(payload.data(), &value, sizeof(double));
      ctx.isend(1, 0, std::move(payload), 1024);
    } else {
      RecvHandle h = ctx.recv(0, 0);
      const std::vector<std::byte> payload = h.take_payload();
      ASSERT_EQ(payload.size(), sizeof(double));
      double value = 0;
      std::memcpy(&value, payload.data(), sizeof(double));
      EXPECT_DOUBLE_EQ(value, 42.5);
    }
  });
}

TEST(EventSim, RecvCompletionUsesMaxOfSendAndRecvTime) {
  // late receiver: completion = recv time + path; early receiver waits for
  // the sender's post time
  ClusterSpec spec = two_ranks_one_node();
  VirtualCluster cluster(spec);
  std::atomic<double> late_recv_time{0}, early_recv_time{0};

  cluster.run([&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.isend(1, 0, {}, 1000);       // posted at t=0
      ctx.clock().advance(10000.0);
      ctx.isend(1, 1, {}, 1000);       // posted at t~10000
    } else {
      ctx.clock().advance(500.0);      // receiver is late for msg 0
      RecvHandle a = ctx.recv(0, 0);
      late_recv_time = ctx.clock().now_us;
      RecvHandle b = ctx.recv(0, 1);   // receiver is early for msg 1
      early_recv_time = ctx.clock().now_us;
    }
  });

  const double path = spec.net.transfer_time_us(1000, true);
  EXPECT_NEAR(late_recv_time.load(), 500.0 + path + spec.net.mpi_overhead_us, 1.0);
  EXPECT_GT(early_recv_time.load(), 10000.0) << "early receiver must wait for the send";
}

TEST(EventSim, OffNodeIsSlowerThanOnNode) {
  ClusterSpec spec;
  spec.nodes = 2;
  spec.gpus_per_node = 2; // ranks 0,1 on node 0; 2,3 on node 1
  const std::int64_t bytes = 1 << 20;
  EXPECT_GT(spec.net.transfer_time_us(bytes, false), spec.net.transfer_time_us(bytes, true));
}

TEST(EventSim, ChannelsAreFifoPerTag) {
  VirtualCluster cluster(two_ranks_one_node());
  cluster.run([](RankContext& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        std::vector<std::byte> payload(1);
        payload[0] = static_cast<std::byte>(i);
        ctx.isend(1, 0, std::move(payload), 16);
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        RecvHandle h = ctx.recv(0, 0);
        EXPECT_EQ(static_cast<int>(h.take_payload()[0]), i);
      }
    }
  });
}

TEST(EventSim, AllreduceSumsAcrossRanks) {
  ClusterSpec spec = ClusterSpec::jlab_9g(8);
  VirtualCluster cluster(spec);
  std::vector<double> results(8, 0.0);
  cluster.run([&](RankContext& ctx) {
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.allreduce_sum(static_cast<double>(ctx.rank() + 1));
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 36.0); // 1+2+...+8
}

TEST(EventSim, AllreduceVectorIsOneRendezvous) {
  ClusterSpec spec = ClusterSpec::jlab_9g(4);
  VirtualCluster cluster(spec);
  std::vector<double> t_scalar(4), t_vector(4);
  cluster.run([&](RankContext& ctx) {
    double v[2] = {1.0, 2.0};
    ctx.allreduce_sum(v, 2);
    EXPECT_DOUBLE_EQ(v[0], 4.0);
    EXPECT_DOUBLE_EQ(v[1], 8.0);
    t_vector[static_cast<std::size_t>(ctx.rank())] = ctx.clock().now_us;
  });
  const double vec_time = t_vector[0];
  cluster.run([&](RankContext& ctx) {
    (void)ctx.allreduce_sum(1.0);
    (void)ctx.allreduce_sum(2.0);
    t_scalar[static_cast<std::size_t>(ctx.rank())] = ctx.clock().now_us;
  });
  EXPECT_GT(t_scalar[0], vec_time) << "two scalar reductions must cost more than one fused";
}

TEST(EventSim, AllreduceSynchronizesClocks) {
  VirtualCluster cluster(ClusterSpec::jlab_9g(4));
  std::vector<double> times(4);
  cluster.run([&](RankContext& ctx) {
    ctx.clock().advance(100.0 * (ctx.rank() + 1)); // skewed clocks
    (void)ctx.allreduce_sum(0.0);
    times[static_cast<std::size_t>(ctx.rank())] = ctx.clock().now_us;
  });
  for (int r = 1; r < 4; ++r) EXPECT_DOUBLE_EQ(times[0], times[static_cast<std::size_t>(r)]);
  EXPECT_GT(times[0], 400.0) << "completion is bounded by the slowest rank";
}

TEST(EventSim, TimingIsDeterministicAcrossRuns) {
  // ring exchange with skewed work; the makespan must be bit-identical on
  // every run regardless of OS thread scheduling
  const auto workload = [](RankContext& ctx) {
    const int n = ctx.size();
    ctx.clock().advance(37.0 * ((ctx.rank() * 13) % 5));
    for (int round = 0; round < 20; ++round) {
      ctx.isend((ctx.rank() + 1) % n, round, {}, 4096);
      (void)ctx.recv((ctx.rank() + n - 1) % n, round);
      if (round % 3 == 0) (void)ctx.allreduce_sum(1.0);
    }
  };
  ClusterSpec spec = ClusterSpec::jlab_9g(8);
  double first = 0;
  for (int trial = 0; trial < 5; ++trial) {
    VirtualCluster cluster(spec);
    cluster.run(workload);
    if (trial == 0)
      first = cluster.makespan_us();
    else
      EXPECT_DOUBLE_EQ(cluster.makespan_us(), first) << "trial " << trial;
  }
  EXPECT_GT(first, 0.0);
}

TEST(EventSim, RankFailurePropagatesWithoutDeadlock) {
  VirtualCluster cluster(two_ranks_one_node());
  EXPECT_THROW(cluster.run([](RankContext& ctx) {
                 if (ctx.rank() == 0) throw std::runtime_error("injected fault");
                 (void)ctx.recv(0, 0); // would deadlock without abort handling
               }),
               std::runtime_error);
}

// The deadlock guard: once every rank is parked no wakeup can ever come,
// and the scheduler unparks one fiber deterministically instead of hanging.
// Rank 1 below never sends, so rank 0's guarded wait must raise CommTimeout.
TEST(EventSim, GuardedWaitThatCanNeverCompleteRaisesCommTimeout) {
  VirtualCluster cluster(two_ranks_one_node());
  EXPECT_THROW(cluster.run([](RankContext& ctx) {
                 if (ctx.rank() == 0) {
                   RankContext::PendingRecv p = ctx.irecv(1, 0);
                   (void)ctx.wait(p, /*timeout_on_deadlock=*/true);
                 }
               }),
               CommTimeout);
}

// with no guard armed the same situation is a true deadlock: a plain
// runtime_error naming it, not a CommTimeout
TEST(EventSim, UnguardedRecvThatCanNeverArriveIsSimulatedDeadlock) {
  VirtualCluster cluster(two_ranks_one_node());
  try {
    cluster.run([](RankContext& ctx) {
      if (ctx.rank() == 0) (void)ctx.recv(1, 0);
    });
    FAIL() << "a receive that can never complete must not return";
  } catch (const CommTimeout& e) {
    FAIL() << "an unguarded wait must not time out: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("simulated deadlock"), std::string::npos) << e.what();
  }
}

// several ranks parked at once, two of them guarded: the lowest-ranked
// guarded waiter (rank 1, not rank 0 or rank 2) is the one unparked.  It
// raises CommTimeout and poisons the cluster, and every other rank then
// fails as a peer of that timeout.
TEST(EventSim, AllParkedUnparksLowestRankedGuardedWaiter) {
  ClusterSpec spec = ClusterSpec::jlab_9g(4);
  VirtualCluster cluster(spec);
  std::vector<std::string> outcome(4);
  EXPECT_THROW(cluster.run([&](RankContext& ctx) {
                 const int r = ctx.rank();
                 try {
                   // rank r waits on rank r+1, which never sends; ranks 1
                   // and 2 arm the guard, ranks 0 and 3 do not
                   RankContext::PendingRecv p = ctx.irecv((r + 1) % 4, 0);
                   (void)ctx.wait(p, /*timeout_on_deadlock=*/r == 1 || r == 2);
                 } catch (const std::exception& e) {
                   outcome[static_cast<std::size_t>(r)] = e.what();
                   throw;
                 }
               }),
               CommTimeout);
  EXPECT_NE(outcome[1].find("deadlock guard: no message from rank 2"), std::string::npos)
      << outcome[1];
  for (const int r : {0, 2, 3})
    EXPECT_EQ(outcome[static_cast<std::size_t>(r)], "peer rank raised CommTimeout during recv")
        << "rank " << r;
}

TEST(EventSim, RecvHandleExposesArrivalAndSendTime) {
  // late sender: the receiver posted first, so arrival = send time + path
  ClusterSpec spec = two_ranks_one_node();
  VirtualCluster cluster(spec);
  cluster.run([&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.clock().advance(250.0);
      ctx.isend(1, 0, {}, 2048);
    } else {
      RecvHandle h = ctx.recv(0, 0); // posted at t=0
      EXPECT_DOUBLE_EQ(h.send_time_us(), 250.0);
      const double path = spec.net.transfer_time_us(2048, true);
      EXPECT_DOUBLE_EQ(h.arrival_us(), 250.0 + path);
      // the receive completes at arrival + the MPI call overhead
      EXPECT_DOUBLE_EQ(ctx.clock().now_us, h.arrival_us() + spec.net.mpi_overhead_us);
    }
  });
}

TEST(EventSim, RecvHandleArrivalUsesLatePostTime) {
  // late receiver: arrival = max(send time, post time) + path
  ClusterSpec spec = two_ranks_one_node();
  VirtualCluster cluster(spec);
  cluster.run([&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.isend(1, 0, {}, 2048); // posted at t=0
    } else {
      ctx.clock().advance(500.0);
      RankContext::PendingRecv pending = ctx.irecv(0, 0); // posted at t=500
      RecvHandle h = ctx.wait(pending);
      EXPECT_DOUBLE_EQ(h.send_time_us(), 0.0);
      EXPECT_DOUBLE_EQ(h.arrival_us(), 500.0 + spec.net.transfer_time_us(2048, true));
      EXPECT_GE(ctx.clock().now_us, h.arrival_us());
    }
  });
}

TEST(EventSim, DoubleTakePayloadIsHardError) {
  VirtualCluster cluster(two_ranks_one_node());
  cluster.run([](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.isend(1, 0, std::vector<std::byte>(8), 64);
    } else {
      RecvHandle h = ctx.recv(0, 0);
      (void)h.take_payload();
      EXPECT_THROW((void)h.take_payload(), std::logic_error);
    }
  });
}

TEST(EventSim, DoubleWaitOnPendingRecvIsHardError) {
  VirtualCluster cluster(two_ranks_one_node());
  cluster.run([](RankContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.isend(1, 0, std::vector<std::byte>(8), 64);
    } else {
      RankContext::PendingRecv pending = ctx.irecv(0, 0);
      (void)ctx.wait(pending);
      EXPECT_THROW((void)ctx.wait(pending), std::logic_error);
    }
  });
}

TEST(GridTopology, CoordsRankRoundTrip2x2x2x4) {
  const comm::GridTopology topo{{2, 2, 2, 4}};
  ASSERT_EQ(topo.num_ranks(), 32);
  for (int r = 0; r < topo.num_ranks(); ++r) {
    const auto c = topo.coords(r);
    for (int mu = 0; mu < 4; ++mu) {
      EXPECT_GE(c[static_cast<std::size_t>(mu)], 0);
      EXPECT_LT(c[static_cast<std::size_t>(mu)], topo.dims[static_cast<std::size_t>(mu)]);
    }
    EXPECT_EQ(topo.rank_of(c), r);
  }
  // coordinates run x fastest (QMP_declare_logical_topology order)
  EXPECT_EQ(topo.rank_of({1, 0, 0, 0}), 1);
  EXPECT_EQ(topo.rank_of({0, 1, 0, 0}), 2);
  EXPECT_EQ(topo.rank_of({0, 0, 1, 0}), 4);
  EXPECT_EQ(topo.rank_of({0, 0, 0, 1}), 8);
}

TEST(GridTopology, PartitionMaskMatchesPartitioned) {
  for (const comm::GridTopology topo :
       {comm::GridTopology{{2, 2, 2, 4}}, comm::GridTopology{{1, 2, 1, 8}},
        comm::GridTopology::time_only(4), comm::GridTopology{{1, 1, 1, 1}}}) {
    const PartitionMask mask = topo.partition_mask();
    for (int mu = 0; mu < 4; ++mu) {
      EXPECT_EQ(mask[static_cast<std::size_t>(mu)], topo.partitioned(mu))
          << "dims " << topo.dims[0] << "x" << topo.dims[1] << "x" << topo.dims[2] << "x"
          << topo.dims[3] << " mu=" << mu;
      EXPECT_EQ(topo.partitioned(mu), topo.dims[static_cast<std::size_t>(mu)] > 1);
    }
  }
}

TEST(QmpGrid, RingTopology) {
  VirtualCluster cluster(ClusterSpec::jlab_9g(4));
  cluster.run([](RankContext& ctx) {
    comm::QmpGrid grid(ctx, comm::GridTopology::time_only(4));
    EXPECT_EQ(grid.neighbor(3, +1), (ctx.rank() + 1) % 4);
    EXPECT_EQ(grid.neighbor(3, -1), (ctx.rank() + 3) % 4);
    EXPECT_EQ(grid.owns_global_edge(3, -1), ctx.rank() == 0);
    EXPECT_EQ(grid.owns_global_edge(3, +1), ctx.rank() == 3);
  });
}

} // namespace
} // namespace quda::sim
