//===- support/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of Parsynt-CXX, a reproduction of "Synthesis of Divide and Conquer
// Parallelism for Loops" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded fault-injection harness. Named fault points are
/// compiled into the synthesizer and the work-stealing runtime; each point
/// polls `FaultInjector::fires("name")` at the moment the fault would
/// matter, and the injector decides — from per-point counters, never from
/// wall-clock or unseeded randomness — whether the fault fires. With no
/// configuration the poll is a single relaxed atomic load, so production
/// paths pay (almost) nothing.
///
/// Configuration comes from the `PARSYNT_FAULT` environment variable (read
/// once, on first use) or programmatically via `configure()` in tests. The
/// spec grammar:
///
///   spec   := clause (',' clause)*
///   clause := point (':' key '=' value)*
///   keys   := after | every | limit | prob | seed
///
/// Semantics per point: polls 0..after-1 never fire; among the remaining
/// polls every `every`-th is eligible (default 1 — all); an eligible poll
/// fires with probability `prob`% decided by a hash of (seed, poll index)
/// — deterministic, not a PRNG stream; at most `limit` faults fire in
/// total. Examples:
///
///   PARSYNT_FAULT=synth.reject:limit=3
///   PARSYNT_FAULT=pool.steal:every=7,pool.wakeup:every=3:limit=100
///   PARSYNT_FAULT=deadline.expire:after=50
///
/// Named points (see the polling sites): `synth.reject` (forces the
/// synthesizer to reject an otherwise-accepted join candidate),
/// `deadline.expire` (forces a Deadline::expired() poll to report expiry),
/// `pool.steal` (forces a steal sweep to come back empty), `pool.wakeup`
/// (turns a parked wait into a timed wait — an injected spurious wakeup),
/// `pool.alloc` (fails a task-node allocation, exercising the spawn-inline
/// degradation path).
///
/// Thread-safety: `fires()` is safe from any thread (atomic counters, so
/// the harness is exercisable under ThreadSanitizer). `configure()` and
/// `reset()` publish a whole configuration with one atomic store and keep
/// every configuration they ever installed until exit, so a poll racing
/// them sees the old or the new configuration, never freed memory. They
/// must not race each other.
///
//===----------------------------------------------------------------------===//

#ifndef PARSYNT_SUPPORT_FAULTINJECTOR_H
#define PARSYNT_SUPPORT_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace parsynt {

class FaultInjector {
public:
  /// The process-wide injector (one instance across all translation units).
  static FaultInjector &instance() {
    static FaultInjector I;
    return I;
  }

  /// Poll a fault point. Returns true when the configured fault fires. The
  /// unarmed fast path is one atomic load.
  static bool fires(const char *Point) {
    const Config *C = instance().Active.load(std::memory_order_acquire);
    return C && shouldFire(*C, Point);
  }

  /// Parses \p Spec and installs it, replacing any prior configuration.
  /// An empty spec disarms the injector. Returns false (and fills \p Error
  /// when given) on a malformed spec, leaving the injector disarmed.
  bool configure(const std::string &Spec, std::string *Error = nullptr) {
    reset();
    if (Spec.empty())
      return true;
    auto C = std::make_unique<Config>();
    size_t Begin = 0;
    while (Begin <= Spec.size()) {
      size_t End = Spec.find(',', Begin);
      if (End == std::string::npos)
        End = Spec.size();
      if (!parseClause(Spec.substr(Begin, End - Begin), *C, Error))
        return false;
      Begin = End + 1;
    }
    Active.store(C.get(), std::memory_order_release);
    Installed.push_back(std::move(C));
    return true;
  }

  /// Disarms the injector and drops all per-point counters.
  void reset() { Active.store(nullptr, std::memory_order_release); }

  bool armed() const {
    return Active.load(std::memory_order_acquire) != nullptr;
  }

  /// Faults fired so far at \p Point (0 for unconfigured points).
  uint64_t fireCount(const std::string &Point) const {
    const PointState *P = find(Point);
    return P ? P->Fires.load(std::memory_order_relaxed) : 0;
  }

  /// Polls observed so far at \p Point (0 for unconfigured points).
  uint64_t pollCount(const std::string &Point) const {
    const PointState *P = find(Point);
    return P ? P->Polls.load(std::memory_order_relaxed) : 0;
  }

  /// A point-in-time view of one configured fault point.
  struct PointSnapshot {
    std::string Name;
    uint64_t Polls = 0;
    uint64_t Fires = 0;
  };

  /// Every configured point with its counters, in configuration order —
  /// lets the run report record fault firings without knowing the point
  /// names in advance. Safe to call while polls are in flight (counters
  /// are atomics and an installed configuration never changes).
  std::vector<PointSnapshot> pointSnapshots() const {
    std::vector<PointSnapshot> Out;
    if (const Config *C = Active.load(std::memory_order_acquire))
      for (const auto &P : C->Points)
        Out.push_back({P->Name, P->Polls.load(std::memory_order_relaxed),
                       P->Fires.load(std::memory_order_relaxed)});
    return Out;
  }

private:
  struct PointState {
    std::string Name;
    uint64_t After = 0;              ///< skip the first N polls
    uint64_t Every = 1;              ///< then fire every Nth eligible poll
    uint64_t Limit = UINT64_MAX;     ///< total fires cap
    uint64_t Seed = 0x5eedfau;       ///< hash seed for prob decisions
    unsigned Percent = 100;          ///< fire probability of eligible polls
    std::atomic<uint64_t> Polls{0};
    std::atomic<uint64_t> Fires{0};
  };

  /// One installed spec; immutable once published, except its counters.
  struct Config {
    std::vector<std::unique_ptr<PointState>> Points;
  };

  const PointState *find(const std::string &Point) const {
    if (const Config *C = Active.load(std::memory_order_acquire))
      for (const auto &P : C->Points)
        if (P->Name == Point)
          return P.get();
    return nullptr;
  }

  FaultInjector() {
    if (const char *Env = std::getenv("PARSYNT_FAULT")) {
      std::string Error;
      if (!configure(Env, &Error))
        std::fprintf(stderr, "parsynt: ignoring PARSYNT_FAULT: %s\n",
                     Error.c_str());
    }
  }

  /// splitmix64: a deterministic avalanche of (seed, poll index) for the
  /// prob decision — no shared PRNG state, so concurrent polls stay
  /// data-race-free and single-threaded runs stay reproducible.
  static uint64_t mix(uint64_t X) {
    X += 0x9E3779B97F4A7C15ull;
    X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
    X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
    return X ^ (X >> 31);
  }

  static bool shouldFire(const Config &C, const char *Point) {
    for (const auto &P : C.Points) {
      if (P->Name != Point)
        continue;
      uint64_t N = P->Polls.fetch_add(1, std::memory_order_relaxed);
      if (N < P->After)
        return false;
      if ((N - P->After) % P->Every != 0)
        return false;
      if (P->Percent < 100 && mix(P->Seed ^ N) % 100 >= P->Percent)
        return false;
      // Claim one of the remaining fires; competitors past the limit lose.
      uint64_t F = P->Fires.load(std::memory_order_relaxed);
      while (F < P->Limit)
        if (P->Fires.compare_exchange_weak(F, F + 1,
                                           std::memory_order_relaxed))
          return true;
      return false;
    }
    return false;
  }

  bool parseClause(const std::string &Clause, Config &Into,
                   std::string *Error) {
    auto Fail = [&](const std::string &Message) {
      if (Error)
        *Error = Message + " in fault clause '" + Clause + "'";
      return false;
    };
    size_t Colon = Clause.find(':');
    std::string Name = Clause.substr(0, Colon);
    if (Name.empty())
      return Fail("empty fault point name");
    auto P = std::make_unique<PointState>();
    P->Name = Name;
    while (Colon != std::string::npos) {
      size_t Begin = Colon + 1;
      Colon = Clause.find(':', Begin);
      std::string Pair = Clause.substr(
          Begin, Colon == std::string::npos ? std::string::npos
                                            : Colon - Begin);
      size_t Eq = Pair.find('=');
      if (Eq == std::string::npos)
        return Fail("expected key=value, got '" + Pair + "'");
      std::string Key = Pair.substr(0, Eq);
      uint64_t V = 0;
      std::string Digits = Pair.substr(Eq + 1);
      if (Digits.empty())
        return Fail("empty value for '" + Key + "'");
      for (char D : Digits) {
        if (D < '0' || D > '9')
          return Fail("non-numeric value for '" + Key + "'");
        if (V > (UINT64_MAX - static_cast<uint64_t>(D - '0')) / 10)
          return Fail("value overflow for '" + Key + "'");
        V = V * 10 + static_cast<uint64_t>(D - '0');
      }
      if (Key == "after")
        P->After = V;
      else if (Key == "every")
        P->Every = V == 0 ? 1 : V;
      else if (Key == "limit")
        P->Limit = V;
      else if (Key == "prob")
        P->Percent = V > 100 ? 100 : static_cast<unsigned>(V);
      else if (Key == "seed")
        P->Seed = V;
      else
        return Fail("unknown key '" + Key + "'");
    }
    Into.Points.push_back(std::move(P));
    return true;
  }

  /// The configuration polls read; null when disarmed.
  std::atomic<const Config *> Active{nullptr};
  /// Every configuration ever installed (owner of what Active points to).
  std::vector<std::unique_ptr<Config>> Installed;
};

/// RAII configuration for tests: installs a spec on construction, disarms
/// and clears counters on destruction. Scope it around (not inside) any
/// TaskPool whose workers should observe the faults.
class FaultScope {
public:
  explicit FaultScope(const std::string &Spec) {
    FaultInjector::instance().configure(Spec);
  }
  ~FaultScope() { FaultInjector::instance().reset(); }
  FaultScope(const FaultScope &) = delete;
  FaultScope &operator=(const FaultScope &) = delete;
};

} // namespace parsynt

#endif // PARSYNT_SUPPORT_FAULTINJECTOR_H
