//===- perfbench/src/Harness.cpp - Closed-loop benchmark harness ----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "stm/TxManager.h"

namespace perfbench {

const char *spanName(SpanName N) {
  switch (N) {
  case SpanName::Atomic:
    return "txn.atomic";
  case SpanName::AtomicReadOnly:
    return "txn.atomicReadOnly";
  case SpanName::AtomicScheduled:
    return "txn.atomicScheduled";
  case SpanName::Attempt:
    return "stm.attempt";
  case SpanName::OpenUpdate:
    return "stm.open_update";
  case SpanName::Read:
    return "stm.read";
  case SpanName::OpenRead:
    return "stm.open_read";
  case SpanName::InterpRun:
    return "interp.run";
  }
  return "?";
}

Team::Team(unsigned N) {
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([this, I] { loop(I); });
}

Team::~Team() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Quit = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void Team::start(std::function<void(unsigned)> NewJob) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Job = std::move(NewJob);
    Pending = size();
    ++Generation;
  }
  WorkCv.notify_all();
}

void Team::wait() {
  std::unique_lock<std::mutex> Lock(M);
  DoneCv.wait(Lock, [this] { return Pending == 0; });
  if (Failure) {
    std::exception_ptr F = Failure;
    Failure = nullptr;
    std::rethrow_exception(F);
  }
}

void Team::loop(unsigned Tid) {
  uint64_t Seen = 0;
  for (;;) {
    std::function<void(unsigned)> Mine;
    {
      std::unique_lock<std::mutex> Lock(M);
      WorkCv.wait(Lock, [&] { return Quit || Generation != Seen; });
      if (Quit)
        return;
      Seen = Generation;
      Mine = Job;
    }
    std::exception_ptr Err;
    try {
      Mine(Tid);
    } catch (...) {
      Err = std::current_exception();
    }
    otm::stm::TxManager::current().flushStats();
    {
      std::lock_guard<std::mutex> Lock(M);
      if (Err && !Failure)
        Failure = Err;
      if (--Pending == 0)
        DoneCv.notify_all();
    }
  }
}

} // namespace perfbench
