//===- examples/txc.cpp - The TMIR transactional compiler driver ----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// `txc` is the opt-style driver for the transactional compiler: it parses
// a TMIR module (from a file, or a built-in demo program), lowers atomic
// blocks onto the decomposed STM interface, runs the barrier optimization
// pipeline, prints the before/after IR and the per-pass barrier table, and
// finally executes the program twice (naive vs optimized lowering) to show
// that behaviour is identical while the dynamic barrier counts drop.
//
// Usage: txc [file.tmir [entry-function]]
//
// With a file but no entry function, txc only compiles and prints.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "passes/Pipeline.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace otm;
using namespace otm::interp;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

// Built-in demo: transfers between two cells of a bank whose accounts live
// behind a helper function — exercising cloning, open elimination, the
// read-to-update upgrade and alloc elision all at once.
const char *DemoProgram = R"(
class Account { balance: i64 }
class Log { from: i64, to: i64, amount: i64 }

func newLog(f: i64, t: i64, a: i64): Log {
entry:
  %l = newobj Log
  %ff = loadlocal f
  setfield %l, Log.from, %ff
  %tt = loadlocal t
  setfield %l, Log.to, %tt
  %aa = loadlocal a
  setfield %l, Log.amount, %aa
  ret %l
}

func transfer(src: Account, dst: Account, amount: i64): Log {
entry:
  atomic_begin
  %s = loadlocal src
  %sb = getfield %s, Account.balance
  %a = loadlocal amount
  %sb2 = sub %sb, %a
  setfield %s, Account.balance, %sb2
  %d = loadlocal dst
  %db = getfield %d, Account.balance
  %db2 = add %db, %a
  setfield %d, Account.balance, %db2
  %l = call newLog(1, 2, %a)
  atomic_end
  ret %l
}

func run(src: Account, dst: Account, reps: i64): i64 {
  var i: i64
entry:
  storelocal i, 0
  br loop
loop:
  %i = loadlocal i
  %n = loadlocal reps
  %done = cmpge %i, %n
  condbr %done, exit, body
body:
  %s = loadlocal src
  %d = loadlocal dst
  %l = call transfer(%s, %d, 5)
  %i2 = add %i, 1
  storelocal i, %i2
  br loop
exit:
  %s2 = loadlocal src
  %r = getfield %s2, Account.balance
  ret %r
}
)";

void printReportTable(const std::vector<PassReport> &Reports) {
  std::printf("%-16s %10s %12s %10s %10s %8s\n", "pass", "open_read",
              "open_update", "undo_fld", "undo_elem", "total");
  for (const PassReport &R : Reports)
    std::printf("%-16s %10u %12u %10u %10u %8u\n", R.PassName.c_str(),
                R.After.OpenRead, R.After.OpenUpdate, R.After.UndoField,
                R.After.UndoElem, R.After.total());
}

int64_t runDemo(Module &M, const char *Label) {
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::ObjStm;
  Interpreter I(M, O);
  HeapObject *Src = I.makeObject("Account");
  HeapObject *Dst = I.makeObject("Account");
  Src->Slots[0].store(10000);
  Interpreter::RunResult R = I.run(
      "run", {HeapObject::toBits(Src), HeapObject::toBits(Dst), 1000});
  if (R.Trapped) {
    std::printf("%s: TRAP: %s\n", Label, R.Error.c_str());
    return -1;
  }
  std::printf("%s: result=%lld, dynamic opens=%llu, undo logs=%llu, "
              "tx committed=%llu\n",
              Label, static_cast<long long>(R.Value),
              static_cast<unsigned long long>(I.counts().OpenRead.load() +
                                              I.counts().OpenUpdate.load()),
              static_cast<unsigned long long>(I.counts().UndoField.load() +
                                              I.counts().UndoElem.load()),
              static_cast<unsigned long long>(I.counts().TxCommitted.load()));
  return R.Value;
}

} // namespace

int main(int argc, char **argv) {
  std::string Source = DemoProgram;
  std::string Entry;
  if (argc > 1) {
    std::ifstream In(argv[1]);
    if (!In) {
      std::fprintf(stderr, "txc: cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
    if (argc > 2)
      Entry = argv[2];
  }

  Module M;
  std::string Error;
  if (!parseModule(Source, M, Error)) {
    std::fprintf(stderr, "txc: parse error: %s\n", Error.c_str());
    return 1;
  }
  if (!verifyModule(M, Error)) {
    std::fprintf(stderr, "txc: verifier error: %s\n", Error.c_str());
    return 1;
  }

  std::printf("=== input module ===\n%s\n", printModule(M).c_str());

  std::vector<PassReport> Reports = lowerAndOptimize(M, OptConfig::all());
  std::printf("=== optimized module ===\n%s\n", printModule(M).c_str());
  std::printf("=== static barrier counts after each pass ===\n");
  printReportTable(Reports);

  if (!Entry.empty()) {
    // File mode with explicit entry: just run it (no arguments).
    Interpreter::Options O;
    O.Mode = Interpreter::TxMode::ObjStm;
    O.CapturePrints = false; // let the program's prints reach stdout
    Interpreter I(M, O);
    Interpreter::RunResult R = I.run(Entry, {});
    if (R.Trapped) {
      std::fprintf(stderr, "txc: trap: %s\n", R.Error.c_str());
      return 1;
    }
    std::printf("\n%s() = %lld\n", Entry.c_str(),
                static_cast<long long>(R.Value));
    return 0;
  }
  if (argc > 1)
    return 0; // file mode without an entry: compile and print only

  // Demo mode: run naive vs optimized and compare dynamic behaviour.
  std::printf("\n=== executing (1000 transfers of 5 from a 10000 "
              "balance) ===\n");
  Module Naive = parseModuleOrDie(DemoProgram);
  lowerAndOptimize(Naive, OptConfig::none());
  int64_t A = runDemo(Naive, "naive    ");
  int64_t B = runDemo(M, "optimized");
  if (A != B) {
    std::fprintf(stderr, "txc: naive and optimized disagree!\n");
    return 1;
  }
  return 0;
}
