#pragma once
// The rank scheduler of the discrete-event cluster simulator (DESIGN.md
// §12).  VirtualCluster::run hands every rank body to SeqScheduler: one
// cooperative event loop on the calling thread, running each rank as a
// stackful fiber (ucontext) with a lazily committed guard-paged stack.
//
// The loop always resumes the ready fiber with the smallest (simulated
// clock, rank) pair, popped from a min-heap keyed at wake time (a parked or
// ready fiber's clock cannot move until it runs again), so execution order
// is a pure function of the simulation state -- there is no OS interleaving
// left to be nondeterministic about -- and a resume costs O(log N).  Rank
// count is a parameter: 4096 ranks are 4096 fibers on one OS thread.
//
// Targeted wake(rank) does not disturb that order: a rank woken without
// cause re-checks its predicate and re-parks without touching simulated
// state, so waking only the rank whose predicate changed drops nothing but
// no-op resumes.
//
// Deadlock is detected, not timed: when every live fiber is parked no
// wakeup can ever come, so the loop unparks the lowest-ranked fiber whose
// wait armed the deadlock guard (its wait_transport returns true and the
// caller raises CommTimeout), or, with no guard armed anywhere, the
// lowest-ranked parked fiber, whose wait_transport throws.  No wall-clock
// time is read anywhere in the simulator.

#include "sim/cluster_spec.h"

#include <ucontext.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

namespace quda::sim {

class RankContext;

// canonical name of a scheduler kind ("seq")
const char* scheduler_name(SchedulerKind kind);

// Execution engine behind VirtualCluster::run, with four duties.  run()
// drives every rank body to completion; bodies must not throw
// (VirtualCluster wraps them).  wait_transport/wake/wake_all are the
// park/notify protocol the transport blocks on.
class SeqScheduler {
public:
  // run body(*ranks[r]) once per rank, where ranks[r] is rank r; returns
  // when every rank finished.  trace_on binds each rank's tracer as the
  // thread-local trace::current() for the duration of each resume.
  void run(const std::vector<RankContext*>& ranks, bool trace_on,
           const std::function<void(RankContext&)>& body);

  // Park the calling rank until wake() or wake_all().  Returns true when
  // the caller armed the deadlock guard and was unparked because every rank
  // is parked, i.e. no wakeup can ever come.  A deadlock with no guard
  // armed anywhere throws std::runtime_error from the lowest-ranked parked
  // fiber.
  bool wait_transport(bool deadlock_guard);

  // wake one rank so it re-checks its predicate: the caller changed state
  // that only that rank's predicate reads (a message landed on its
  // channel).  A rank that is running, ready or finished is left alone.
  void wake(int rank);

  // wake every parked rank so it re-checks its predicate
  void wake_all();

private:
  struct Fiber {
    enum class State { Ready, Running, Parked, Done };
    enum class Wake { Notified, TimedOut, Deadlock };

    RankContext* ctx = nullptr;
    ucontext_t uc{};
    void* map = nullptr; // guard page + stack, unmapped on teardown
    std::size_t map_bytes = 0;
    void* stack = nullptr;       // lowest usable stack address (above the guard)
    void* fake_stack = nullptr;  // ASan's saved fake stack while switched out
    void* tsan_fiber = nullptr;  // TSan's context for this fiber
    State state = State::Ready;
    Wake wake = Wake::Notified;
    bool guarded = false; // the parked wait armed the deadlock guard
  };

  // ready-heap entry: the fiber's clock when it became ready, then its
  // rank.  Neither a parked nor a ready fiber's clock can move until that
  // fiber runs again, so the key equals the (clock, rank) pair a full scan
  // at dispatch time would find.
  using ReadyKey = std::pair<double, int>;

  static void trampoline(unsigned hi, unsigned lo);
  void resume(Fiber& f, bool trace_on);
  void make_ready(int rank, Fiber::Wake why);
  void unpark_deterministically();

  std::vector<std::unique_ptr<Fiber>> fibers_; // indexed by rank
  std::priority_queue<ReadyKey, std::vector<ReadyKey>, std::greater<>> ready_;
  int live_ = 0; // fibers not yet Done
  const std::function<void(RankContext&)>* body_ = nullptr;
  ucontext_t loop_uc_{};
  Fiber* current_ = nullptr;
  // the event loop's stack as ASan reports it when a fiber first starts,
  // and the loop thread's TSan context
  void* loop_fake_stack_ = nullptr;
  const void* loop_stack_bottom_ = nullptr;
  std::size_t loop_stack_size_ = 0;
  void* loop_tsan_fiber_ = nullptr;
};

} // namespace quda::sim
