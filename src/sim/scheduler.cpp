#include "sim/scheduler.h"

#include "sim/event_sim.h"
#include "trace/telemetry.h"
#include "trace/trace.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#define QUDA_SEQ_ASAN_FIBERS 1
#elif defined(__SANITIZE_THREAD__)
#define QUDA_SEQ_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QUDA_SEQ_ASAN_FIBERS 1
#elif __has_feature(thread_sanitizer)
#define QUDA_SEQ_TSAN_FIBERS 1
#endif
#endif
#ifdef QUDA_SEQ_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef QUDA_SEQ_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
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

// ThreadSanitizer likewise models each fiber as its own context: every
// swapcontext is preceded by a switch to the target's context, which also
// orders the fibers (a switch synchronizes), so TSan checks the exec pool
// workers against whichever fiber is running rather than against one
// thread whose stack jumps around.  The calls compile away elsewhere.
// tsan_switch_to must be inlined into the function that swaps: TSan keeps
// a shadow call stack per context, and a helper frame entered in one
// context and left in the other would unbalance both.
void* tsan_current_fiber() {
#ifdef QUDA_SEQ_TSAN_FIBERS
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

void* tsan_create_fiber() {
#ifdef QUDA_SEQ_TSAN_FIBERS
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

[[gnu::always_inline]] inline void tsan_switch_to(void* fiber) {
#ifdef QUDA_SEQ_TSAN_FIBERS
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

void tsan_destroy_fiber(void* fiber) {
#ifdef QUDA_SEQ_TSAN_FIBERS
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

// 1 MiB of lazily committed stack per fiber (plus one guard page): the
// rank bodies keep bulk data on the heap, and virtual address space is
// the only per-rank cost until a page is touched
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

} // namespace

void SeqScheduler::trampoline(unsigned hi, unsigned lo) {
  // makecontext only passes ints; the scheduler pointer rides in two halves
  auto* self = reinterpret_cast<SeqScheduler*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  asan_finish_switch(nullptr, &self->loop_stack_bottom_, &self->loop_stack_size_);
  Fiber& f = *self->current_;
  (*self->body_)(*f.ctx); // the body wrapper catches everything
  f.state = Fiber::State::Done;
  --self->live_;
  // back to the event loop's saved context; a null save slot lets ASan
  // free this fiber's fake stack.  Jump rather than return (the context has
  // no uc_link): returning would leave this frame in the loop's TSan
  // context.
  asan_start_switch(nullptr, self->loop_stack_bottom_, self->loop_stack_size_);
  tsan_switch_to(self->loop_tsan_fiber_);
  setcontext(&self->loop_uc_);
}

void SeqScheduler::resume(Fiber& f, bool trace_on) {
  current_ = &f;
  f.state = Fiber::State::Running;
  // rebind the thread-local tracer and recorder per resume: every fiber
  // shares this OS thread, so the binding must follow the fiber
  trace::ScopedTracer bind_tracer(trace_on ? &f.ctx->tracer() : nullptr);
  telemetry::ScopedRecorder bind_recorder(&f.ctx->recorder());
  asan_start_switch(&loop_fake_stack_, f.stack, kStackBytes);
  tsan_switch_to(f.tsan_fiber);
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
  // Every live fiber is parked, so no wakeup can ever arrive.  Unpark the
  // lowest-ranked guarded fiber as TimedOut (it re-checks its channel and
  // raises CommTimeout); with no guard armed anywhere this is a true
  // deadlock -- unpark the lowest-ranked fiber with Deadlock status, which
  // throws on resume.  The O(N) scan runs once per all-parked event, never
  // per resume.
  int victim = -1;
  for (std::size_t r = 0; r < fibers_.size(); ++r) {
    const Fiber& f = *fibers_[r];
    if (f.state != Fiber::State::Parked) continue;
    if (victim < 0) victim = static_cast<int>(r);
    if (f.guarded) {
      victim = static_cast<int>(r);
      break;
    }
  }
  make_ready(victim, fibers_[static_cast<std::size_t>(victim)]->guarded
                         ? Fiber::Wake::TimedOut
                         : Fiber::Wake::Deadlock);
}

void SeqScheduler::run(const std::vector<RankContext*>& ranks, bool trace_on,
                       const std::function<void(RankContext&)>& body) {
  body_ = &body;
  loop_tsan_fiber_ = tsan_current_fiber();
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
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&f->uc, reinterpret_cast<void (*)()>(&SeqScheduler::trampoline), 2,
                  static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
    f->tsan_fiber = tsan_create_fiber();
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

  for (auto& f : fibers_) {
    tsan_destroy_fiber(f->tsan_fiber);
    if (f->map != nullptr) ::munmap(f->map, f->map_bytes);
  }
  fibers_.clear();
  body_ = nullptr;
}

bool SeqScheduler::wait_transport(bool deadlock_guard) {
  Fiber& f = *current_;
  f.state = Fiber::State::Parked;
  f.guarded = deadlock_guard;
  f.wake = Fiber::Wake::Notified;
  asan_start_switch(&f.fake_stack, loop_stack_bottom_, loop_stack_size_);
  tsan_switch_to(loop_tsan_fiber_);
  swapcontext(&f.uc, &loop_uc_);
  asan_finish_switch(f.fake_stack, nullptr, nullptr);
  f.guarded = false;
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

const char* scheduler_name(SchedulerKind) { return "seq"; }

} // namespace quda::sim
