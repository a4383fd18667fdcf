#include "sim/scheduler.h"

#include "core/wallclock.h"
#include "sim/event_sim.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <thread>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define QUDA_SEQ_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QUDA_SEQ_ASAN_FIBERS 1
#endif
#endif
#ifdef QUDA_SEQ_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace quda::sim {

namespace {

// AddressSanitizer must be told about every swapcontext between the event
// loop's stack and a fiber stack.  Unannotated, an exception thrown on a
// fiber stack makes ASan unpoison the wrong stack, and stale poison left on
// the fiber stack raises false stack-use-after-scope reports.  Both calls
// compile away in uninstrumented builds.
void asan_start_switch(void** fake_stack_save, const void* bottom, std::size_t size) {
#ifdef QUDA_SEQ_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

void asan_finish_switch(void* fake_stack_save, const void** bottom_old, std::size_t* size_old) {
#ifdef QUDA_SEQ_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save;
  (void)bottom_old;
  (void)size_old;
#endif
}

// ---------------------------------------------------------------------------
// threads: one OS thread per rank, parked on the cluster condvar

class ThreadsScheduler final : public RankScheduler {
public:
  ThreadsScheduler(core::Mutex& mutex, core::CondVar& cv) : mutex_(mutex), cv_(cv) {}

  void run(const std::vector<RankContext*>& ranks, bool trace_on,
           const std::function<void(RankContext&)>& body) override {
    std::vector<std::thread> threads;
    threads.reserve(ranks.size());
    for (RankContext* ctx : ranks) {
      threads.emplace_back([ctx, trace_on, &body] {
        // bind the thread-local tracer so layers without RankContext access
        // (the device model, the solvers) can emit; null keeps them silent.
        // The recorder binds unconditionally: a disabled recorder's hooks
        // are no-ops, so the cost matches the tracer's null check.
        trace::ScopedTracer bind_tracer(trace_on ? &ctx->tracer() : nullptr);
        telemetry::ScopedRecorder bind_recorder(&ctx->recorder());
        body(*ctx);
      });
    }
    for (auto& t : threads) t.join();
  }

  bool wait_transport(core::MutexLock& lock, double wall_timeout_ms) override {
    if (wall_timeout_ms <= 0) {
      cv_.wait(lock);
      return false;
    }
    // the watchdog is the one place real time enters the simulator, and it
    // routes through the allowlisted (and test-injectable) shim
    const auto deadline =
        core::now_for_watchdog() +
        std::chrono::microseconds(static_cast<std::int64_t>(wall_timeout_ms * 1e3));
    return cv_.wait_until(lock, deadline) == std::cv_status::timeout;
  }

  // one condvar serves every rank, so a targeted wake is a broadcast
  void wake(int) override { cv_.notify_all(); }
  void wake_all() override { cv_.notify_all(); }

private:
  core::Mutex& mutex_;
  core::CondVar& cv_;
};

// ---------------------------------------------------------------------------
// seq: a single event loop resuming stackful (ucontext) fibers in
// deterministic (clock, rank) order from a ready heap

class SeqScheduler final : public RankScheduler {
public:
  void run(const std::vector<RankContext*>& ranks, bool trace_on,
           const std::function<void(RankContext&)>& body) override;
  bool wait_transport(core::MutexLock& lock, double wall_timeout_ms) override;
  void wake(int rank) override;
  void wake_all() override;

private:
  struct Fiber {
    enum class State { Ready, Running, Parked, Done };
    enum class Wake { Notified, TimedOut, Deadlock };

    RankContext* ctx = nullptr;
    ucontext_t uc{};
    void* map = nullptr; // guard page + stack, unmapped on teardown
    std::size_t map_bytes = 0;
    void* stack = nullptr;      // lowest usable stack address (above the guard)
    void* fake_stack = nullptr; // ASan's saved fake stack while switched out
    State state = State::Ready;
    Wake wake = Wake::Notified;
    bool watchdog = false; // parked caller armed a wall-timeout fallback
  };

  // 1 MiB of lazily committed stack per fiber (plus one guard page): the
  // rank bodies keep bulk data on the heap, and virtual address space is
  // the only per-rank cost until a page is touched
  static constexpr std::size_t kStackBytes = std::size_t{1} << 20;

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
  // the event loop's stack as ASan reports it when a fiber first starts
  void* loop_fake_stack_ = nullptr;
  const void* loop_stack_bottom_ = nullptr;
  std::size_t loop_stack_size_ = 0;
};

void SeqScheduler::trampoline(unsigned hi, unsigned lo) {
  // makecontext only passes ints; the scheduler pointer rides in two halves
  auto* self = reinterpret_cast<SeqScheduler*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  asan_finish_switch(nullptr, &self->loop_stack_bottom_, &self->loop_stack_size_);
  Fiber& f = *self->current_;
  (*self->body_)(*f.ctx); // the body wrapper catches everything
  f.state = Fiber::State::Done;
  --self->live_;
  // returning setcontext()s uc_link, i.e. the event loop's saved context;
  // a null save slot lets ASan free this fiber's fake stack
  asan_start_switch(nullptr, self->loop_stack_bottom_, self->loop_stack_size_);
}

void SeqScheduler::resume(Fiber& f, bool trace_on) {
  current_ = &f;
  f.state = Fiber::State::Running;
  // rebind the thread-local tracer and recorder per resume: every fiber
  // shares this OS thread, so the binding must follow the fiber
  trace::ScopedTracer bind_tracer(trace_on ? &f.ctx->tracer() : nullptr);
  telemetry::ScopedRecorder bind_recorder(&f.ctx->recorder());
  asan_start_switch(&loop_fake_stack_, f.stack, kStackBytes);
  swapcontext(&loop_uc_, &f.uc);
  asan_finish_switch(loop_fake_stack_, nullptr, nullptr);
  current_ = nullptr;
}

void SeqScheduler::make_ready(int rank, Fiber::Wake why) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  f.state = Fiber::State::Ready;
  f.wake = why;
  ready_.emplace(f.ctx->clock().now_us, rank);
}

void SeqScheduler::unpark_deterministically() {
  // Every live fiber is parked, so no wakeup can ever arrive.  Fire the
  // lowest-ranked watchdogged fiber as TimedOut (it re-checks its channel
  // and raises the same CommTimeout the threads watchdog would); with no
  // watchdog armed anywhere this is a true deadlock -- unpark the
  // lowest-ranked fiber with Deadlock status, which throws on resume.
  // The O(N) scan runs once per all-parked event, never per resume.
  int victim = -1;
  for (std::size_t r = 0; r < fibers_.size(); ++r) {
    const Fiber& f = *fibers_[r];
    if (f.state != Fiber::State::Parked) continue;
    if (victim < 0) victim = static_cast<int>(r);
    if (f.watchdog) {
      victim = static_cast<int>(r);
      break;
    }
  }
  make_ready(victim, fibers_[static_cast<std::size_t>(victim)]->watchdog
                         ? Fiber::Wake::TimedOut
                         : Fiber::Wake::Deadlock);
}

void SeqScheduler::run(const std::vector<RankContext*>& ranks, bool trace_on,
                       const std::function<void(RankContext&)>& body) {
  body_ = &body;
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t guard = page > 0 ? static_cast<std::size_t>(page) : 4096;

  // fibers_ and the ready heap are indexed by rank
  for (std::size_t r = 0; r < ranks.size(); ++r)
    if (ranks[r]->rank() != static_cast<int>(r))
      throw std::logic_error("seq scheduler: ranks must be passed in rank order");
  fibers_.clear();
  fibers_.reserve(ranks.size());
  ready_ = {};
  for (RankContext* ctx : ranks) {
    auto f = std::make_unique<Fiber>();
    f->ctx = ctx;
    f->map_bytes = guard + kStackBytes;
    f->map = ::mmap(nullptr, f->map_bytes, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (f->map == MAP_FAILED)
      throw std::runtime_error("seq scheduler: mmap of a fiber stack failed");
    // stacks grow downward: the guard page sits at the low end of the map
    if (::mprotect(static_cast<char*>(f->map) + guard, kStackBytes,
                   PROT_READ | PROT_WRITE) != 0) {
      ::munmap(f->map, f->map_bytes);
      throw std::runtime_error("seq scheduler: mprotect of a fiber stack failed");
    }
    if (::getcontext(&f->uc) != 0)
      throw std::runtime_error("seq scheduler: getcontext failed");
    f->stack = static_cast<char*>(f->map) + guard;
    f->uc.uc_stack.ss_sp = f->stack;
    f->uc.uc_stack.ss_size = kStackBytes;
    f->uc.uc_link = &loop_uc_;
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&f->uc, reinterpret_cast<void (*)()>(&SeqScheduler::trampoline), 2,
                  static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
    fibers_.push_back(std::move(f));
    ready_.emplace(ctx->clock().now_us, ctx->rank());
  }
  live_ = static_cast<int>(fibers_.size());

  while (live_ > 0) {
    if (ready_.empty()) {
      unpark_deterministically();
      continue;
    }
    const int next = ready_.top().second;
    ready_.pop();
    resume(*fibers_[static_cast<std::size_t>(next)], trace_on);
  }

  for (auto& f : fibers_)
    if (f->map != nullptr) ::munmap(f->map, f->map_bytes);
  fibers_.clear();
  body_ = nullptr;
}

bool SeqScheduler::wait_transport(core::MutexLock& lock, double wall_timeout_ms) {
  Fiber& f = *current_;
  f.state = Fiber::State::Parked;
  f.watchdog = wall_timeout_ms > 0;
  f.wake = Fiber::Wake::Notified;
  // the transport lock is uncontended on this single thread, but the
  // unlock/relock pair keeps the lock discipline identical to threads mode
  lock.unlock();
  asan_start_switch(&f.fake_stack, loop_stack_bottom_, loop_stack_size_);
  swapcontext(&f.uc, &loop_uc_);
  asan_finish_switch(f.fake_stack, nullptr, nullptr);
  lock.lock();
  f.watchdog = false;
  if (f.wake == Fiber::Wake::Deadlock)
    throw std::runtime_error(
        "simulated deadlock: every rank is parked with no wakeup pending (seq scheduler)");
  return f.wake == Fiber::Wake::TimedOut;
}

void SeqScheduler::wake(int rank) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= fibers_.size()) return;
  if (fibers_[static_cast<std::size_t>(rank)]->state == Fiber::State::Parked)
    make_ready(rank, Fiber::Wake::Notified);
}

void SeqScheduler::wake_all() {
  for (std::size_t r = 0; r < fibers_.size(); ++r)
    if (fibers_[r]->state == Fiber::State::Parked)
      make_ready(static_cast<int>(r), Fiber::Wake::Notified);
}

} // namespace

const char* scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Threads: return "threads";
    case SchedulerKind::Seq: return "seq";
    case SchedulerKind::Auto: break;
  }
  return "auto";
}

SchedulerKind resolve_scheduler(SchedulerKind requested) {
  if (requested != SchedulerKind::Auto) return requested;
  const char* env = std::getenv("QUDA_SIM_SCHED");
  if (env == nullptr || env[0] == '\0') return SchedulerKind::Threads;
  if (std::strcmp(env, "threads") == 0) return SchedulerKind::Threads;
  if (std::strcmp(env, "seq") == 0) return SchedulerKind::Seq;
  throw std::invalid_argument(std::string("QUDA_SIM_SCHED=") + env +
                              " is not a rank scheduler (expected threads|seq)");
}

int threads_scheduler_capacity() {
  // 512 threads is comfortably inside Linux defaults; past that the seq
  // scheduler is both safer and faster.  The override exists mainly so
  // tests can shrink the limit without spawning hundreds of threads.
  if (const char* env = std::getenv("QUDA_SIM_MAX_RANK_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 512;
}

std::unique_ptr<RankScheduler> make_scheduler(SchedulerKind kind, core::Mutex& mutex,
                                              core::CondVar& cv) {
  switch (kind) {
    case SchedulerKind::Seq: return std::make_unique<SeqScheduler>();
    case SchedulerKind::Threads:
    case SchedulerKind::Auto: break;
  }
  return std::make_unique<ThreadsScheduler>(mutex, cv);
}

} // namespace quda::sim
