//===- perfbench/src/Trace.h - Spans around public calls --------*- C++ -*-===//
//
// The traced run's recorder.  Spans are opened only in the benchmark's own
// files, around calls into the library's public headers; the library itself
// is not instrumented.  Spans stay in memory and are written at exit.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Common.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed region: what was called, when, inside which span, and for
/// which program or request.
struct Span {
  std::string Name;
  Clock::time_point Start, End;
  int Parent = -1; ///< index of the enclosing span, -1 at top level
  std::string Id;  ///< program name or request id
};

/// Collects spans from one thread.  A disabled tracer records nothing, so
/// the untraced timings run the same code with no span bookkeeping.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span nested in the innermost open one; \returns its index,
  /// or -1 when disabled.
  int open(const char *Name, const std::string &Id);
  void close(int Index);
  /// Records an already-measured interval (pipelined requests overlap, so
  /// they cannot nest).
  void add(const char *Name, const std::string &Id, Clock::time_point Start,
           Clock::time_point End);

  /// Self seconds (duration minus the time covered by child spans) of the
  /// spans recorded since \p FirstSpan, summed per span name.
  std::map<std::string, double> selfSeconds(size_t FirstSpan = 0) const;
  /// Self seconds of each span named \p Name, in recording order.
  std::vector<double> selfSecondsOf(const std::string &Name) const;

  size_t size() const { return Spans.size(); }

  /// Writes every span as one JSON line; \returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::vector<double> selfTimes() const;

  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> OpenStack;
};

/// RAII span: open on construction, close on destruction.
class Scope {
public:
  Scope(Tracer &T, const char *Name, const std::string &Id)
      : T(T), Index(T.open(Name, Id)) {}
  ~Scope() { T.close(Index); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
