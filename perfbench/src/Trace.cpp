//===- perfbench/src/Trace.cpp - Spans around public calls ----------------===//

#include "Trace.h"

#include <fstream>

namespace perfbench {

int Tracer::open(const char *Name, const std::string &Id) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.Start = Clock::now();
  Spans.push_back(std::move(S));
  OpenStack.push_back(static_cast<int>(Spans.size() - 1));
  return OpenStack.back();
}

void Tracer::close(int Index) {
  if (Index < 0)
    return;
  Spans[Index].End = Clock::now();
  if (!OpenStack.empty() && OpenStack.back() == Index)
    OpenStack.pop_back();
}

void Tracer::add(const char *Name, const std::string &Id,
                 Clock::time_point Start, Clock::time_point End) {
  if (!Enabled)
    return;
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.Start = Start;
  S.End = End;
  Spans.push_back(std::move(S));
}

std::vector<double> Tracer::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (size_t Index = 0; Index < Spans.size(); ++Index)
    Self[Index] = secondsBetween(Spans[Index].Start, Spans[Index].End);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= secondsBetween(S.Start, S.End);
  return Self;
}

std::map<std::string, double> Tracer::selfSeconds(size_t FirstSpan) const {
  std::vector<double> Self = selfTimes();
  std::map<std::string, double> Sums;
  for (size_t Index = FirstSpan; Index < Spans.size(); ++Index)
    Sums[Spans[Index].Name] += Self[Index];
  return Sums;
}

std::vector<double> Tracer::selfSecondsOf(const std::string &Name) const {
  std::vector<double> Self = selfTimes(), Out;
  for (size_t Index = 0; Index < Spans.size(); ++Index)
    if (Spans[Index].Name == Name)
      Out.push_back(Self[Index]);
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Clock::time_point Epoch =
      Spans.empty() ? Clock::time_point() : Spans.front().Start;
  for (const Span &S : Spans) {
    JsonObject Line;
    Line.str("name", S.Name)
        .str("id", S.Id)
        .num("start_s", secondsBetween(Epoch, S.Start))
        .num("end_s", secondsBetween(Epoch, S.End))
        .num("parent", S.Parent);
    Out << Line.text() << '\n';
  }
  return static_cast<bool>(Out.flush());
}

} // namespace perfbench
