#pragma once
// Annotated concurrency primitives: thin wrappers over std::mutex and
// std::condition_variable_any that carry the clang thread-safety
// attributes from core/annotations.h.  Under gcc (or clang without
// QUDA_SIM_ANALYZE) the attributes vanish and these compile down to the
// plain standard-library primitives; under clang with QUDA_SIM_ANALYZE=ON
// every access to a QUDA_GUARDED_BY member is checked at compile time.
//
// Why wrappers instead of annotating std::mutex members directly: clang's
// analysis only tracks acquisition through attribute-annotated types, and
// libstdc++ ships std::mutex / std::lock_guard without attributes -- a
// GUARDED_BY(std_mutex_member) would either be ignored or flag every
// correctly-locked access.  The wrapper set is the minimal surface the
// simulator needs: Mutex, a scoped MutexLock, and a CondVar that waits
// through the annotated guard (condition_variable_any accepts any
// BasicLockable, which MutexLock satisfies).

#include "core/annotations.h"

#include <condition_variable>
#include <mutex>

namespace quda::core {

class QUDA_CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QUDA_ACQUIRE() { m_.lock(); }
  void unlock() QUDA_RELEASE() { m_.unlock(); }
  bool try_lock() QUDA_TRY_ACQUIRE(true) { return m_.try_lock(); }

private:
  std::mutex m_;
};

// RAII guard over Mutex.  Also satisfies BasicLockable (lock/unlock) so
// CondVar can release and reacquire it around a wait.
class QUDA_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex& m) QUDA_ACQUIRE(m) : mu_(m), owns_(true) { mu_.lock(); }
  ~MutexLock() QUDA_RELEASE() {
    if (owns_) mu_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() QUDA_ACQUIRE() {
    mu_.lock();
    owns_ = true;
  }
  void unlock() QUDA_RELEASE() {
    mu_.unlock();
    owns_ = false;
  }

private:
  Mutex& mu_;
  bool owns_;
};

// Condition variable paired with a Mutex.  Declare members with
// QUDA_CV_WAITS_WITH(<mutex>) so the pairing is recorded for the
// structural check; waits go through the annotated MutexLock, which the
// underlying condition_variable_any unlocks/relocks internally (net-zero
// for the static analysis, exactly like std::condition_variable).
class CondVar {
public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  template <typename Pred> void wait(MutexLock& lock, Pred pred) {
    cv_.wait(lock, pred);
  }

private:
  std::condition_variable_any cv_;
};

} // namespace quda::core
