//===- tests/SnapshotHistoryTest.cpp - Offline history check of MVCC ------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized stress of object-STM writers beside snapshot readers, with
/// the recorded history checked offline against the commit-clock protocol
/// (DESIGN.md §3.9). Committed transactions only: the STM gives zombies no
/// opacity, so aborted attempts log nothing.
///
/// Every written value is unique, so a value names the commit that wrote
/// it. Writers log their commit stamp, the objects they read (value seen)
/// and the objects they read-modify-wrote (value replaced, value stored);
/// snapshot readers log their snapshot stamp and the values they saw. Each
/// object's read-modify-write links then give its exact commit order, and
/// the checker verifies:
///
///   - no update is lost, and per-object stamps strictly increase in
///     commit order;
///   - each snapshot read returns the latest write with stamp <= T;
///   - every dependency between writers runs forward in clock parts: the
///     commit a writer read from is in a part no later than the writer's,
///     and the commit that overwrote what a writer read is in a part no
///     earlier (read-write anti-dependencies). Stamps inside one part are
///     not ordered by serialization, and no snapshot can split a part.
///
/// Some writer transactions end in a user abort after their stores, so the
/// abort release (an identity commit that takes a stamp) runs too.
///
//===----------------------------------------------------------------------===//

#include "stm/Stm.h"

#include "support/Random.h"
#include "support/ThreadBarrier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace otm;
using namespace otm::stm;

namespace {

struct Cell : TxObject {
  Field<int64_t> Value;
};

constexpr int NumCells = 8;
constexpr int NumWriters = 2;
constexpr int NumReaders = 2;
constexpr int TxPerWriter = 3000;
constexpr int SnapshotsPerReader = 600;
constexpr int ReadsPerWriterTx = 2;
constexpr int UpdatesPerWriterTx = 2;
constexpr int AbortEvery = 16; ///< every Nth writer transaction user-aborts

struct ReadOp {
  int Cell;
  int64_t Seen;
};

struct UpdateOp {
  int Cell;
  int64_t Replaced;
  int64_t Stored;
};

struct WriterTx {
  uint64_t Stamp;
  std::vector<ReadOp> Reads;
  std::vector<UpdateOp> Updates;
};

struct SnapshotTx {
  uint64_t Stamp;
  int64_t Seen[NumCells];
};

/// One link of a cell's commit order: the value a commit stored and its
/// stamp. Index 0 is the initial value at stamp 0.
struct Version {
  int64_t Value;
  uint64_t Stamp;
};

struct ConfigGuard {
  ConfigGuard() : Saved(TxManager::config()) {}
  ~ConfigGuard() { TxManager::config() = Saved; }
  TxConfig Saved;
};

/// Picks \p N distinct cells, none of them in \p Taken.
std::vector<int> pickCells(Xoshiro256 &Rng, int N, const std::vector<int> &Taken) {
  std::vector<int> Out;
  while (int(Out.size()) < N) {
    int C = int(Rng.nextBelow(NumCells));
    if (std::find(Out.begin(), Out.end(), C) == Out.end() &&
        std::find(Taken.begin(), Taken.end(), C) == Taken.end())
      Out.push_back(C);
  }
  return Out;
}

void runWriter(int Id, std::vector<std::unique_ptr<Cell>> &Cells,
               ThreadBarrier &Start, std::vector<WriterTx> &Log) {
  Xoshiro256 Rng(9001 + Id);
  Start.arriveAndWait();
  for (int I = 0; I < TxPerWriter; ++I) {
    const std::vector<int> Updated = pickCells(Rng, UpdatesPerWriterTx, {});
    const std::vector<int> Read = pickCells(Rng, ReadsPerWriterTx, Updated);
    const bool Abort = I % AbortEvery == AbortEvery - 1;
    WriterTx Tx;
    Stm::atomic([&](TxManager &M) {
      Tx.Reads.clear(); // the body restarts on conflict
      Tx.Updates.clear();
      for (int C : Read)
        Tx.Reads.push_back({C, M.read(Cells[C].get(), &Cell::Value)});
      for (std::size_t K = 0; K < Updated.size(); ++K) {
        Cell *Obj = Cells[Updated[K]].get();
        const int64_t Old = M.read(Obj, &Cell::Value);
        const int64_t New =
            (int64_t(Id + 1) << 48) | (int64_t(I) << 8) | int64_t(K + 1);
        M.write(Obj, &Cell::Value, New);
        Tx.Updates.push_back({Updated[K], Old, New});
      }
      if (Abort)
        M.userAbort();
    });
    if (Abort)
      continue;
    Tx.Stamp = TxManager::current().lastCommitStampForTesting();
    Log.push_back(std::move(Tx));
  }
}

void runReader(std::vector<std::unique_ptr<Cell>> &Cells, ThreadBarrier &Start,
               std::vector<SnapshotTx> &Log) {
  Start.arriveAndWait();
  for (int I = 0; I < SnapshotsPerReader; ++I) {
    SnapshotTx Tx;
    Stm::atomicReadOnly([&](TxManager &M) {
      Tx.Stamp = M.snapshotStampForTesting();
      for (int C = 0; C < NumCells; ++C)
        Tx.Seen[C] = M.read(Cells[C].get(), &Cell::Value);
    });
    Log.push_back(Tx);
  }
}

void checkHistory(const std::vector<WriterTx> &Writers,
                  const std::vector<SnapshotTx> &Readers) {
  // Each cell's commit order, from the read-modify-write links.
  std::vector<std::vector<Version>> Order(NumCells);
  for (int C = 0; C < NumCells; ++C) {
    std::unordered_map<int64_t, Version> Successor; // replaced -> stored
    for (const WriterTx &W : Writers)
      for (const UpdateOp &U : W.Updates)
        if (U.Cell == C) {
          ASSERT_TRUE(Successor.insert({U.Replaced, {U.Stored, W.Stamp}}).second)
              << "cell " << C << ": value " << U.Replaced
              << " overwritten twice (lost update)";
        }
    Order[C].push_back({0, 0});
    for (auto It = Successor.find(0); It != Successor.end();
         It = Successor.find(It->second.Value)) {
      ASSERT_LE(Order[C].size(), Successor.size()) << "commit order cycles";
      ASSERT_GT(It->second.Stamp, Order[C].back().Stamp)
          << "cell " << C << ": stamps must strictly increase per object";
      Order[C].push_back(It->second);
    }
    ASSERT_EQ(Order[C].size(), Successor.size() + 1)
        << "cell " << C << ": a commit is off the object's version chain";
  }

  // Snapshot readers: the latest write at or below T, for every cell.
  for (const SnapshotTx &R : Readers)
    for (int C = 0; C < NumCells; ++C) {
      const std::vector<Version> &O = Order[C];
      auto After = std::upper_bound(
          O.begin(), O.end(), R.Stamp,
          [](uint64_t T, const Version &V) { return T < V.Stamp; });
      ASSERT_EQ(R.Seen[C], std::prev(After)->Value)
          << "snapshot at stamp " << R.Stamp << " read cell " << C
          << " off its snapshot";
    }

  // Writer reads: write-read and read-write dependencies run forward in
  // clock parts.
  std::vector<std::unordered_map<int64_t, std::size_t>> Position(NumCells);
  for (int C = 0; C < NumCells; ++C)
    for (std::size_t I = 0; I < Order[C].size(); ++I)
      Position[C][Order[C][I].Value] = I;
  for (const WriterTx &W : Writers) {
    const uint64_t Part = mv::stampPart(W.Stamp);
    for (const ReadOp &R : W.Reads) {
      const std::vector<Version> &O = Order[R.Cell];
      auto Found = Position[R.Cell].find(R.Seen);
      ASSERT_NE(Found, Position[R.Cell].end())
          << "a writer read a value no commit wrote";
      const std::size_t At = Found->second;
      EXPECT_LE(mv::stampPart(O[At].Stamp), Part)
          << "a writer read from a commit in a later part";
      if (At + 1 < O.size()) {
        EXPECT_GE(mv::stampPart(O[At + 1].Stamp), Part)
            << "a version a writer read was overwritten in an earlier part "
               "than the writer's";
      }
    }
  }
}

void runHistory() {
  std::vector<std::unique_ptr<Cell>> Cells;
  for (int C = 0; C < NumCells; ++C)
    Cells.push_back(std::make_unique<Cell>());
  std::vector<std::vector<WriterTx>> WriterLogs(NumWriters);
  std::vector<std::vector<SnapshotTx>> ReaderLogs(NumReaders);
  ThreadBarrier Start(NumWriters + NumReaders);
  std::vector<std::thread> Threads;
  for (int W = 0; W < NumWriters; ++W)
    Threads.emplace_back(
        [&, W] { runWriter(W, Cells, Start, WriterLogs[W]); });
  for (int R = 0; R < NumReaders; ++R)
    Threads.emplace_back([&, R] { runReader(Cells, Start, ReaderLogs[R]); });
  for (std::thread &T : Threads)
    T.join();

  std::vector<WriterTx> Writers;
  for (auto &L : WriterLogs)
    Writers.insert(Writers.end(), L.begin(), L.end());
  std::vector<SnapshotTx> Readers;
  for (auto &L : ReaderLogs)
    Readers.insert(Readers.end(), L.begin(), L.end());
  ASSERT_EQ(Writers.size(),
            std::size_t(NumWriters) *
                (TxPerWriter - TxPerWriter / AbortEvery));
  ASSERT_EQ(Readers.size(), std::size_t(NumReaders) * SnapshotsPerReader);
  checkHistory(Writers, Readers);
}

} // namespace

TEST(SnapshotHistory, WritersAndSnapshotReadersAgreeOnTheClock) {
  if (!TxManager::mvccEnabled())
    GTEST_SKIP() << "built with OTM_MVCC=0";
  runHistory();
}

TEST(SnapshotHistory, AgreeOnTheClockAtDepthOne) {
  if (!TxManager::mvccEnabled())
    GTEST_SKIP() << "built with OTM_MVCC=0";
  ConfigGuard Guard;
  TxManager::config().MvVersions = 1; // most stale snapshots must refresh
  runHistory();
}
