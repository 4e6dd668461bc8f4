//===- ParallelFor.h - Run independent indexed tasks on threads -*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parallelFor(N, Width, Fn) calls Fn(I) once for every I in [0, N) on
/// up to Width threads: min(Width, N) - 1 plain std::threads plus the
/// calling thread, each taking the next index from one shared atomic
/// counter. It is the file-level runner of the in-process `--batch`
/// (DESIGN.md, "Batch parallelism"). Fn runs on several threads at
/// once, so whatever state its calls share must be synchronized by Fn;
/// the runner orders nothing between indices.
///
/// Width <= 1 (or N <= 1) runs every index inline, in order, on the
/// calling thread. Every index runs even when an earlier one threw;
/// the first exception caught is rethrown once every thread has joined.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SUPPORT_PARALLELFOR_H
#define MCPTA_SUPPORT_PARALLELFOR_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace mcpta {
namespace support {

template <typename Fn>
void parallelFor(size_t N, unsigned Width, Fn &&F) {
  std::atomic<size_t> Next{0};
  std::mutex ErrorMu;
  std::exception_ptr FirstError;
  auto Work = [&] {
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        F(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMu);
        if (!FirstError)
          FirstError = std::current_exception();
      }
    }
  };

  // The calling thread is one of the Width workers.
  const size_t Threads = std::min<size_t>(Width, N);
  const size_t Extra = Threads > 1 ? Threads - 1 : 0;
  std::vector<std::thread> Workers;
  Workers.reserve(Extra);
  for (size_t T = 0; T < Extra; ++T) {
    try {
      Workers.emplace_back(Work);
    } catch (const std::system_error &) {
      break; // no more threads available: run with the ones we have
    }
  }
  Work();
  for (std::thread &T : Workers)
    T.join();
  if (FirstError)
    std::rethrow_exception(FirstError);
}

} // namespace support
} // namespace mcpta

#endif // MCPTA_SUPPORT_PARALLELFOR_H
