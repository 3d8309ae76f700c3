// A move-only event closure that counts its own moves, for the tests that
// pin how often the scheduling paths move a closure before it runs.
#pragma once

namespace sanperf::testutil {

/// Each move construction bumps `*moves`; each run bumps `*runs`. Copying
/// is deleted, so a path that would copy the closure does not compile.
class MoveCounter {
 public:
  MoveCounter(int& moves, int& runs) : moves_{&moves}, runs_{&runs} {}
  MoveCounter(MoveCounter&& other) noexcept : moves_{other.moves_}, runs_{other.runs_} {
    ++*moves_;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;

  void operator()() { ++*runs_; }

 private:
  int* moves_;
  int* runs_;
};

}  // namespace sanperf::testutil
