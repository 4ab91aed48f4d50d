//===- containers/Policy.h - Synchronization policies ----------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transactional containers are templates over a *synchronization
/// policy* so the same structural code runs under every configuration the
/// paper's evaluation compares:
///
///   - SeqPolicy          — no synchronization (the 1-thread baseline);
///   - CoarseLockPolicy   — one global mutex around each operation;
///   - WordStmPolicy      — TL2-style word-based STM (baseline STM);
///   - ObjStmNaivePolicy  — object STM with *naive* barrier placement: an
///     open accompanies every single field access, modelling unoptimized
///     compiler output;
///   - ObjStmOptPolicy    — object STM with *optimized* placement: the
///     container calls openRead/openWrite once per object per region,
///     exactly where the compiler passes (src/passes) leave the opens;
///   - BoostedPolicy      — transactional boosting (DESIGN.md §3.10):
///     conflicts are detected on abstract (container, key) locks instead of
///     structure, operations apply via the sequential path under a short
///     base lock, and aborts undo by semantic inverse (insert<->erase).
///
/// A policy provides: node base class, field cell type, an execution
/// context, `run` (the atomic block), region-level opens, per-access
/// load/store, allocation hooks, and a checkpoint hook used to bound
/// zombie execution in unbounded traversals. A boosted policy additionally
/// sets `Boosted = true`, which routes the containers' public operations
/// through their boosted wrappers (abstract lock, base lock, core, inverse).
///
//===----------------------------------------------------------------------===//

#ifndef OTM_CONTAINERS_POLICY_H
#define OTM_CONTAINERS_POLICY_H

#include "stm/Field.h"
#include "stm/Stm.h"
#include "wstm/WordStm.h"

#include <mutex>
#include <type_traits>
#include <utility>

namespace otm {
namespace containers {

//===----------------------------------------------------------------------===
// Sequential (unsynchronized) policy
//===----------------------------------------------------------------------===

struct SeqPolicy {
  static constexpr const char *Name = "seq";
  struct ObjBase {};
  template <typename T> using Cell = stm::Field<T>;
  struct Ctx {};

  template <typename FnType> static void run(FnType &&Fn) {
    Ctx C;
    Fn(C);
  }

  static void openRead(Ctx &, ObjBase *) {}
  static void openWrite(Ctx &, ObjBase *) {}

  template <typename ObjType, typename T>
  static T load(Ctx &, ObjType *, Cell<T> &C) {
    return C.load();
  }

  template <typename ObjType, typename T>
  static void store(Ctx &, ObjType *, Cell<T> &C, T Value) {
    C.store(Value);
  }

  template <typename T, typename... ArgTypes>
  static T *create(Ctx &, ArgTypes &&...Args) {
    return new T(std::forward<ArgTypes>(Args)...);
  }

  template <typename T> static void destroy(Ctx &, T *Obj) { delete Obj; }

  
  /// Store into a freshly created, not-yet-published object (alloc-elided).
  template <typename ObjType, typename T>
  static void initStore(Ctx &, ObjType *, Cell<T> &C, T Value) {
    C.store(Value);
  }

  static void checkpoint(Ctx &) {}
};

//===----------------------------------------------------------------------===
// Coarse-grained lock policy (one process-wide mutex)
//===----------------------------------------------------------------------===

struct CoarseLockPolicy {
  static constexpr const char *Name = "coarse-lock";
  struct ObjBase {};
  template <typename T> using Cell = stm::Field<T>;
  struct Ctx {};

  static std::mutex &mutex() {
    static std::mutex M;
    return M;
  }

  template <typename FnType> static void run(FnType &&Fn) {
    std::lock_guard<std::mutex> Lock(mutex());
    Ctx C;
    Fn(C);
  }

  static void openRead(Ctx &, ObjBase *) {}
  static void openWrite(Ctx &, ObjBase *) {}

  template <typename ObjType, typename T>
  static T load(Ctx &, ObjType *, Cell<T> &C) {
    return C.load();
  }

  template <typename ObjType, typename T>
  static void store(Ctx &, ObjType *, Cell<T> &C, T Value) {
    C.store(Value);
  }

  template <typename T, typename... ArgTypes>
  static T *create(Ctx &, ArgTypes &&...Args) {
    return new T(std::forward<ArgTypes>(Args)...);
  }

  template <typename T> static void destroy(Ctx &, T *Obj) { delete Obj; }

  
  /// Store into a freshly created, not-yet-published object (alloc-elided).
  template <typename ObjType, typename T>
  static void initStore(Ctx &, ObjType *, Cell<T> &C, T Value) {
    C.store(Value);
  }

  static void checkpoint(Ctx &) {}
};

//===----------------------------------------------------------------------===
// Word-based STM policy (TL2 baseline)
//===----------------------------------------------------------------------===

struct WordStmPolicy {
  static constexpr const char *Name = "word-stm";
  struct ObjBase {};
  template <typename T> using Cell = wstm::WCell<T>;
  using Ctx = wstm::WTxManager;

  template <typename FnType> static void run(FnType &&Fn) {
    wstm::WordStm::atomic(std::forward<FnType>(Fn));
  }

  static void openRead(Ctx &, ObjBase *) {}
  static void openWrite(Ctx &, ObjBase *) {}

  template <typename ObjType, typename T>
  static T load(Ctx &Tx, ObjType *, Cell<T> &C) {
    return Tx.read(C);
  }

  template <typename ObjType, typename T>
  static void store(Ctx &Tx, ObjType *, Cell<T> &C, T Value) {
    Tx.write(C, Value);
  }

  template <typename T, typename... ArgTypes>
  static T *create(Ctx &Tx, ArgTypes &&...Args) {
    T *Obj = new T(std::forward<ArgTypes>(Args)...);
    Tx.recordAlloc(Obj);
    return Obj;
  }

  template <typename T> static void destroy(Ctx &Tx, T *Obj) {
    Tx.retireOnCommit(Obj);
  }

  // TL2 validates every read against the read version, so a running
  // transaction never observes an inconsistent snapshot: no zombies.
  
  /// Store into a freshly created, not-yet-published object (alloc-elided).
  template <typename ObjType, typename T>
  static void initStore(Ctx &, ObjType *, Cell<T> &C, T Value) {
    C.store(Value);
  }

  static void checkpoint(Ctx &) {}
};

//===----------------------------------------------------------------------===
// Object STM, naive barrier placement (unoptimized compiler output)
//===----------------------------------------------------------------------===

struct ObjStmNaivePolicy {
  static constexpr const char *Name = "obj-stm-naive";
  using ObjBase = stm::TxObject;
  template <typename T> using Cell = stm::Field<T>;
  using Ctx = stm::TxManager;

  template <typename FnType> static void run(FnType &&Fn) {
    stm::Stm::atomic(std::forward<FnType>(Fn));
  }

  // Naive code has no region-level opens...
  static void openRead(Ctx &, ObjBase *) {}
  static void openWrite(Ctx &, ObjBase *) {}

  // ...because every access performs its own full barrier.
  template <typename ObjType, typename T>
  static T load(Ctx &Tx, ObjType *Obj, Cell<T> &C) {
    Tx.openForRead(Obj);
    return C.load();
  }

  template <typename ObjType, typename T>
  static void store(Ctx &Tx, ObjType *Obj, Cell<T> &C, T Value) {
    Tx.openForUpdate(Obj);
    Tx.logUndo(&C);
    C.store(Value);
  }

  template <typename T, typename... ArgTypes>
  static T *create(Ctx &Tx, ArgTypes &&...Args) {
    return Tx.allocInTx<T>(std::forward<ArgTypes>(Args)...);
  }

  template <typename T> static void destroy(Ctx &Tx, T *Obj) {
    Tx.retireOnCommit(Obj);
  }

  
  /// Naive output performs the full barrier even on fresh allocations.
  template <typename ObjType, typename T>
  static void initStore(Ctx &Tx, ObjType *Obj, Cell<T> &C, T Value) {
    store(Tx, Obj, C, Value);
  }

  static void checkpoint(Ctx &Tx) { Tx.validateOrAbort(); }
};

//===----------------------------------------------------------------------===
// Object STM, optimized barrier placement (post-optimization output)
//===----------------------------------------------------------------------===

struct ObjStmOptPolicy {
  static constexpr const char *Name = "obj-stm-opt";
  using ObjBase = stm::TxObject;
  template <typename T> using Cell = stm::Field<T>;
  using Ctx = stm::TxManager;

  template <typename FnType> static void run(FnType &&Fn) {
    stm::Stm::atomic(std::forward<FnType>(Fn));
  }

  // One open per object per region, placed by the container author exactly
  // as the compiler's open-elimination/upgrade passes would place it.
  static void openRead(Ctx &Tx, ObjBase *Obj) { Tx.openForRead(Obj); }
  static void openWrite(Ctx &Tx, ObjBase *Obj) { Tx.openForUpdate(Obj); }

  template <typename ObjType, typename T>
  static T load(Ctx &, ObjType *, Cell<T> &C) {
    return C.load(); // covered by the region's open
  }

  template <typename ObjType, typename T>
  static void store(Ctx &Tx, ObjType *, Cell<T> &C, T Value) {
    Tx.logUndo(&C); // undo granularity stays per-field
    C.store(Value);
  }

  template <typename T, typename... ArgTypes>
  static T *create(Ctx &Tx, ArgTypes &&...Args) {
    return Tx.allocInTx<T>(std::forward<ArgTypes>(Args)...);
  }

  template <typename T> static void destroy(Ctx &Tx, T *Obj) {
    Tx.retireOnCommit(Obj);
  }

  
  /// Store into a freshly created, not-yet-published object (alloc-elided).
  template <typename ObjType, typename T>
  static void initStore(Ctx &, ObjType *, Cell<T> &C, T Value) {
    C.store(Value);
  }

  static void checkpoint(Ctx &Tx) { Tx.validateOrAbort(); }
};

//===----------------------------------------------------------------------===
// Boosted policy — semantic conflict detection (DESIGN.md §3.10)
//===----------------------------------------------------------------------===

/// Transactional boosting. Isolation comes from abstract (container, key)
/// locks held to commit (TxManager::boostAcquireKey), not from STM opens;
/// physical atomicity of each operation comes from the container's short
/// base lock. The per-access hooks are therefore direct: no read log, no
/// undo log, no validation. Rollback is semantic — the containers register
/// the inverse operation via Ctx::onAbort — and deletion is deferred to
/// commit via Ctx::onCommit (an erase's node must reappear if the
/// transaction aborts).
struct BoostedPolicy {
  static constexpr const char *Name = "boosted";
  static constexpr bool Boosted = true;
  using ObjBase = stm::TxObject;
  template <typename T> using Cell = stm::Field<T>;
  using Ctx = stm::TxManager;

  template <typename FnType> static void run(FnType &&Fn) {
    stm::Stm::atomic(std::forward<FnType>(Fn));
  }

  static void openRead(Ctx &, ObjBase *) {}
  static void openWrite(Ctx &, ObjBase *) {}

  template <typename ObjType, typename T>
  static T load(Ctx &, ObjType *, Cell<T> &C) {
    return C.load(); // covered by the abstract lock + base lock
  }

  template <typename ObjType, typename T>
  static void store(Ctx &, ObjType *, Cell<T> &C, T Value) {
    C.store(Value); // rollback is semantic, not value-level
  }

  /// Plain allocation (TxObject::operator new -> TxPool): cleanup on abort
  /// is the registered semantic inverse, not an alloc-log walk.
  template <typename T, typename... ArgTypes>
  static T *create(Ctx &, ArgTypes &&...Args) {
    return new T(std::forward<ArgTypes>(Args)...);
  }

  /// Unlinked nodes stay allocated until the outcome is known: commit
  /// deletes them, abort deletes them too — but only after the semantic
  /// re-insert (registered later, run earlier by LIFO) rebuilt the key from
  /// fresh storage. Inside a running handler the outcome *is* known, so
  /// destruction is immediate instead of re-entering the log being walked.
  template <typename T> static void destroy(Ctx &Tx, T *Obj) {
    if (Tx.runningDeferredActions()) {
      delete Obj;
      return;
    }
    Tx.onCommit([Obj] { delete Obj; });
    Tx.onAbort([Obj] { delete Obj; });
  }

  template <typename ObjType, typename T>
  static void initStore(Ctx &, ObjType *, Cell<T> &C, T Value) {
    C.store(Value);
  }

  /// Boosted traversals hold the base lock or the structural gate, so they
  /// never observe torn structure: no zombie windows to bound.
  static void checkpoint(Ctx &) {}
};

namespace detail {
template <typename P, typename = void>
struct PolicyIsBoosted : std::false_type {};
template <typename P>
struct PolicyIsBoosted<P, std::void_t<decltype(P::Boosted)>>
    : std::bool_constant<P::Boosted> {};
} // namespace detail

/// True for policies whose Boosted flag is present and set — the containers
/// branch on this (if constexpr) to route operations through the boosted
/// wrappers.
template <typename P>
inline constexpr bool kBoostedPolicy = detail::PolicyIsBoosted<P>::value;

} // namespace containers
} // namespace otm

#endif // OTM_CONTAINERS_POLICY_H
