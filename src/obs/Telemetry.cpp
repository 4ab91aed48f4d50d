//===- obs/Telemetry.cpp - Continuous time-series telemetry ----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(_WIN32)
#include <process.h>
#define OTM_GETPID _getpid
#else
#include <unistd.h>
#define OTM_GETPID getpid
#endif

using namespace otm;
using namespace otm::obs;

Telemetry &Telemetry::instance() {
  static Telemetry T;
  return T;
}

void Telemetry::registerSource(const std::string &Name, SampleFn Fn) {
  std::lock_guard<std::mutex> Lock(SourceMutex);
  for (auto &Entry : Sources)
    if (Entry.first == Name) {
      Entry.second = std::move(Fn);
      return;
    }
  Sources.emplace_back(Name, std::move(Fn));
}

bool Telemetry::start(unsigned WantIntervalMs, const std::string &OutPath,
                      const std::string &PromOutPath) {
  if (WantIntervalMs == 0 || Running.load(std::memory_order_acquire))
    return false;
  {
    std::lock_guard<std::mutex> Lock(EmitMutex);
    if (OutPath == "-") {
      JsonlFile = stdout;
    } else {
      JsonlFile = std::fopen(OutPath.c_str(), "w");
      if (!JsonlFile) {
        std::fprintf(stderr, "[telemetry] cannot open %s\n", OutPath.c_str());
        return false;
      }
    }
    JsonlPath = OutPath;
    PromPath = PromOutPath;
    IntervalMs = WantIntervalMs;
    Seq = 0;
    PrevTotals = JsonValue::object();
    Epoch = std::chrono::steady_clock::now();
  }
  {
    std::lock_guard<std::mutex> Lock(WakeMutex);
    StopRequested = false;
  }
  Running.store(true, std::memory_order_release);
  Worker = std::thread([this] { threadMain(); });
  return true;
}

bool Telemetry::startFromEnv() {
  const char *Interval = std::getenv("OTM_TELEMETRY");
  if (!Interval || !Interval[0])
    return false;
  long Ms = std::strtol(Interval, nullptr, 10);
  if (Ms <= 0)
    return false;
  std::string Out;
  if (const char *O = std::getenv("OTM_TELEMETRY_OUT")) {
    Out = O;
  } else {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "otm-telemetry-%ld.jsonl",
                  static_cast<long>(OTM_GETPID()));
    if (const char *Dir = std::getenv("OTM_BENCH_JSON_DIR"))
      Out = std::string(Dir) + "/" + Buf;
    else
      Out = Buf;
  }
  std::string Prom;
  if (const char *P = std::getenv("OTM_TELEMETRY_PROM"))
    Prom = P;
  return start(static_cast<unsigned>(Ms), Out, Prom);
}

void Telemetry::stop() {
  if (!Running.load(std::memory_order_acquire))
    return;
  {
    std::lock_guard<std::mutex> Lock(WakeMutex);
    StopRequested = true;
  }
  Wake.notify_all();
  if (Worker.joinable())
    Worker.join();
  Running.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(EmitMutex);
  if (JsonlFile && JsonlFile != stdout)
    std::fclose(static_cast<FILE *>(JsonlFile));
  JsonlFile = nullptr;
}

void Telemetry::threadMain() {
  for (;;) {
    bool Stopping;
    {
      std::unique_lock<std::mutex> Lock(WakeMutex);
      Wake.wait_for(Lock, std::chrono::milliseconds(IntervalMs),
                    [this] { return StopRequested; });
      Stopping = StopRequested;
    }
    sampleOnce(); // on stop this is the flush-on-exit record
    if (Stopping)
      return;
  }
}

/// Mirrors the unsigned-integer leaves of \p Cur as clamped deltas against
/// \p Prev (same path). Non-integer leaves and mismatched shapes are
/// skipped: rates only make sense for monotonic counters.
static JsonValue diffTotals(const JsonValue &Cur, const JsonValue *Prev) {
  JsonValue Out = JsonValue::object();
  if (Cur.kind() != JsonValue::Kind::Object)
    return Out;
  for (const auto &Member : Cur.members()) {
    const JsonValue *P = Prev ? Prev->get(Member.first) : nullptr;
    if (Member.second.kind() == JsonValue::Kind::Object) {
      Out.set(Member.first, diffTotals(Member.second, P));
    } else if (Member.second.kind() == JsonValue::Kind::UInt) {
      uint64_t PrevV =
          P && P->kind() == JsonValue::Kind::UInt ? P->asUInt() : 0;
      Out.set(Member.first,
              Telemetry::clampedDelta(Member.second.asUInt(), PrevV));
    }
  }
  return Out;
}

JsonValue Telemetry::buildRecordLocked() {
  JsonValue Totals = JsonValue::object();
  {
    std::lock_guard<std::mutex> Lock(SourceMutex);
    for (const auto &Entry : Sources)
      Totals.set(Entry.first, Entry.second());
  }
  JsonValue Deltas = JsonValue::object();
  for (const auto &Member : Totals.members())
    Deltas.set(Member.first,
               diffTotals(Member.second, PrevTotals.get(Member.first)));

  JsonValue Record = JsonValue::object();
  Record.set("schema", TelemetrySchema);
  Record.set("seq", Seq++);
  double Us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - Epoch)
                  .count();
  Record.set("t_us", Us);
  Record.set("interval_ms", static_cast<uint64_t>(IntervalMs));
  PrevTotals = Totals;
  Record.set("totals", std::move(Totals));
  Record.set("deltas", std::move(Deltas));
  return Record;
}

void Telemetry::emitLocked(const JsonValue &Record) {
  if (JsonlFile) {
    std::string Line = Record.dump(0);
    Line += '\n';
    std::fwrite(Line.data(), 1, Line.size(), static_cast<FILE *>(JsonlFile));
    std::fflush(static_cast<FILE *>(JsonlFile));
  }
  if (!PromPath.empty()) {
    if (const JsonValue *Totals = Record.get("totals")) {
      std::string Text = prometheusText(*Totals);
      if (FILE *F = std::fopen(PromPath.c_str(), "w")) {
        std::fwrite(Text.data(), 1, Text.size(), F);
        std::fclose(F);
      }
    }
  }
  Samples.fetch_add(1, std::memory_order_release);
}

JsonValue Telemetry::sampleOnce() {
  std::lock_guard<std::mutex> Lock(EmitMutex);
  JsonValue Record = buildRecordLocked();
  emitLocked(Record);
  return Record;
}

static void sanitizeMetricKey(std::string &Name) {
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_')
      C = '_';
}

static void flattenForProm(const JsonValue &V, const std::string &Prefix,
                           std::string &Out) {
  switch (V.kind()) {
  case JsonValue::Kind::Object:
    for (const auto &Member : V.members()) {
      std::string Key = Member.first;
      sanitizeMetricKey(Key);
      flattenForProm(Member.second, Prefix + "_" + Key, Out);
    }
    break;
  case JsonValue::Kind::UInt:
  case JsonValue::Kind::Int:
  case JsonValue::Kind::Double: {
    char Buf[64];
    if (V.kind() == JsonValue::Kind::Double)
      std::snprintf(Buf, sizeof(Buf), "%.6g", V.asDouble());
    else
      std::snprintf(Buf, sizeof(Buf), "%llu",
                    static_cast<unsigned long long>(V.asUInt()));
    Out += "# TYPE " + Prefix + " gauge\n";
    Out += Prefix + " " + Buf + "\n";
    break;
  }
  default:
    break; // strings/arrays (top-K tables) have no Prometheus shape
  }
}

std::string Telemetry::prometheusText(const JsonValue &Totals) {
  std::string Out;
  flattenForProm(Totals, "otm", Out);
  return Out;
}

namespace {
/// Starts the sampler before main() when OTM_TELEMETRY is set. Stop (join +
/// final record + close) happens in ~Telemetry: the instance is constructed
/// here, during static initialization, so it is destroyed after the
/// function-local singletons the sources read — and those are trivially
/// destructible process-lifetime aggregates anyway.
struct TelemetryEnvInit {
  TelemetryEnvInit() { Telemetry::instance().startFromEnv(); }
} InitTelemetry;
} // namespace
