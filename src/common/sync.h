#ifndef OPDELTA_COMMON_SYNC_H_
#define OPDELTA_COMMON_SYNC_H_

#include <mutex>
#include <shared_mutex>

/// Ranked mutexes: the checked, documented form of the tree's lock
/// hierarchy (DESIGN.md §14). Every mutex in src/ carries a static rank via
/// OPDELTA_LOCK_RANK; a thread may only acquire a lock whose rank is >= the
/// highest rank it already holds (strictly greater across *classes*; equal
/// ranks are reserved for instances of the same class, where a process-wide
/// acquisition-graph cycle detector catches ABBA orders the static rank
/// cannot). Rank inversions and cycles abort with both acquisition stacks.
///
/// Checking is compiled in when NDEBUG is off (any debug build) or when
/// OPDELTA_LOCK_CHECK is defined (the CI lock-check job, and sync_test).
/// Release builds compile OrderedMutex down to a bare std::mutex — same
/// size, same code — so the checker costs nothing where it is off.
///
/// The OPDELTA_LOCK_RANK annotation is also what opdelta-lint rule R9
/// demands and rules R7/R8 parse, so the static and runtime layers enforce
/// the same declared hierarchy.

#if !defined(NDEBUG) || defined(OPDELTA_LOCK_CHECK)
#define OPDELTA_LOCK_CHECK_ENABLED 1
#else
#define OPDELTA_LOCK_CHECK_ENABLED 0
#endif

namespace opdelta::common {

/// A lock's position in the global hierarchy. `name` identifies the lock
/// class in diagnostics and in the linter's graph; `rank` orders it.
struct LockRankSpec {
  const char* name;
  int rank;
};

/// Declares a lock's rank. The name must be a bare identifier (it is
/// stringified): `OPDELTA_LOCK_RANK(catalog, lockrank::kCatalog)`.
#define OPDELTA_LOCK_RANK(name, rank) \
  (::opdelta::common::LockRankSpec{#name, (rank)})

/// The global rank table: one constant per lock class, ordered outermost
/// (lowest) to leaf (highest). A thread acquires down this table, never up.
/// To add a lock: pick the table position from the calls made while it is
/// held (everything it calls into must rank higher), add the constant here,
/// and annotate the member with OPDELTA_LOCK_RANK. DESIGN.md §14 documents
/// why each existing edge exists.
namespace lockrank {
// Hub orchestration (outermost: everything below runs under hub calls).
inline constexpr int kHubDriver = 10;     // driver start/stop + retained errors
inline constexpr int kHubStats = 16;      // aggregate counters
inline constexpr int kHubErrors = 18;     // per-round error collection
// Engine.
inline constexpr int kEngineTables = 24;       // name -> Table map
inline constexpr int kEngineSchemaCache = 26;  // cached SchemaMap snapshot
inline constexpr int kTableLatch = 28;         // per-table structure latch
inline constexpr int kFreedSlots = 30;         // uncommitted-free quarantine
                                               // (taken under a table latch)
// Transactions.
inline constexpr int kTxnLockManager = 32;  // table/row lock tables + cv
inline constexpr int kCatalog = 36;         // schema catalog (under latch)
inline constexpr int kWal = 40;             // redo-log append serialization
// Storage.
inline constexpr int kBufferPool = 44;  // frame table + LRU (page I/O held)
inline constexpr int kFileAlloc = 46;   // page allocation in FileManager
// Transport.
inline constexpr int kTransportQueue = 48;  // persistent queue log
inline constexpr int kNetSim = 50;          // network fault dice
// Common leaves.
inline constexpr int kThreadPool = 60;       // task queue
inline constexpr int kCountDownLatch = 62;   // one-shot join points
inline constexpr int kStatementCache = 64;   // prepared-statement LRU (leaf:
                                             // safe under any engine lock)
inline constexpr int kFaultEnv = 70;         // fault-injection dice + scope
inline constexpr int kLogging = 80;          // stderr serialization (leaf)
}  // namespace lockrank

namespace lockcheck {

/// Out-of-line checker hooks, always compiled into sync.cc so that TUs
/// built with OPDELTA_LOCK_CHECK can link against a release library.
/// `PreAcquire` runs the rank check and the acquisition-graph cycle check
/// *before* blocking (so a would-be deadlock aborts instead of hanging);
/// `PostAcquire` pushes the lock onto the thread's held stack with a
/// captured backtrace. try_lock acquisitions cannot deadlock and skip the
/// pre-checks, but still join the held stack.
void PreAcquire(const void* mtx, const LockRankSpec& spec);
void PostAcquire(const void* mtx, const LockRankSpec& spec);
void OnTryAcquired(const void* mtx, const LockRankSpec& spec);
void OnRelease(const void* mtx);
void OnDestroy(const void* mtx);

/// Test hook: number of locks the calling thread currently holds.
int HeldCountForTesting();

}  // namespace lockcheck

namespace detail {

/// Checked variant: wraps std::mutex with rank + graph enforcement.
class CheckedOrderedMutex {
 public:
  explicit CheckedOrderedMutex(LockRankSpec spec) : spec_(spec) {}
  ~CheckedOrderedMutex() { lockcheck::OnDestroy(this); }

  CheckedOrderedMutex(const CheckedOrderedMutex&) = delete;
  CheckedOrderedMutex& operator=(const CheckedOrderedMutex&) = delete;

  void lock() {
    lockcheck::PreAcquire(this, spec_);
    mu_.lock();
    lockcheck::PostAcquire(this, spec_);
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    lockcheck::OnTryAcquired(this, spec_);
    return true;
  }
  void unlock() {
    lockcheck::OnRelease(this);
    mu_.unlock();
  }

  const LockRankSpec& rank_spec() const { return spec_; }

 private:
  std::mutex mu_;
  LockRankSpec spec_;
};

/// Checked shared variant. Shared (reader) acquisitions follow the same
/// rank discipline as exclusive ones: a blocked reader deadlocks exactly
/// like a blocked writer, so the hierarchy must hold for both.
class CheckedOrderedSharedMutex {
 public:
  explicit CheckedOrderedSharedMutex(LockRankSpec spec) : spec_(spec) {}
  ~CheckedOrderedSharedMutex() { lockcheck::OnDestroy(this); }

  CheckedOrderedSharedMutex(const CheckedOrderedSharedMutex&) = delete;
  CheckedOrderedSharedMutex& operator=(const CheckedOrderedSharedMutex&) =
      delete;

  void lock() {
    lockcheck::PreAcquire(this, spec_);
    mu_.lock();
    lockcheck::PostAcquire(this, spec_);
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    lockcheck::OnTryAcquired(this, spec_);
    return true;
  }
  void unlock() {
    lockcheck::OnRelease(this);
    mu_.unlock();
  }

  void lock_shared() {
    lockcheck::PreAcquire(this, spec_);
    mu_.lock_shared();
    lockcheck::PostAcquire(this, spec_);
  }
  bool try_lock_shared() {
    if (!mu_.try_lock_shared()) return false;
    lockcheck::OnTryAcquired(this, spec_);
    return true;
  }
  void unlock_shared() {
    lockcheck::OnRelease(this);
    mu_.unlock_shared();
  }

  const LockRankSpec& rank_spec() const { return spec_; }

 private:
  std::shared_mutex mu_;
  LockRankSpec spec_;
};

/// Release variant: a bare std::mutex. The spec is accepted (same
/// declaration syntax) and dropped; no extra state, no extra code.
class PassthroughOrderedMutex {
 public:
  explicit PassthroughOrderedMutex(LockRankSpec) {}

  PassthroughOrderedMutex(const PassthroughOrderedMutex&) = delete;
  PassthroughOrderedMutex& operator=(const PassthroughOrderedMutex&) = delete;

  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

class PassthroughOrderedSharedMutex {
 public:
  explicit PassthroughOrderedSharedMutex(LockRankSpec) {}

  PassthroughOrderedSharedMutex(const PassthroughOrderedSharedMutex&) = delete;
  PassthroughOrderedSharedMutex& operator=(
      const PassthroughOrderedSharedMutex&) = delete;

  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }
  void lock_shared() { mu_.lock_shared(); }
  bool try_lock_shared() { return mu_.try_lock_shared(); }
  void unlock_shared() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

static_assert(sizeof(PassthroughOrderedMutex) == sizeof(std::mutex),
              "release OrderedMutex must be layout-identical to std::mutex");
static_assert(sizeof(PassthroughOrderedSharedMutex) ==
                  sizeof(std::shared_mutex),
              "release OrderedSharedMutex must be layout-identical to "
              "std::shared_mutex");

}  // namespace detail

#if OPDELTA_LOCK_CHECK_ENABLED
using OrderedMutex = detail::CheckedOrderedMutex;
using OrderedSharedMutex = detail::CheckedOrderedSharedMutex;
#else
using OrderedMutex = detail::PassthroughOrderedMutex;
using OrderedSharedMutex = detail::PassthroughOrderedSharedMutex;
#endif

}  // namespace opdelta::common

#endif  // OPDELTA_COMMON_SYNC_H_
