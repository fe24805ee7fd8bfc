#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace exadigit {

void parallel_for_dynamic(std::size_t n, std::size_t width,
                          const std::function<void(std::size_t)>& fn) {
  if (width <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::vector<std::exception_ptr> lane_errors(width);
  const auto run_lane = [&](std::size_t lane) {
    try {
      for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < n;
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    } catch (...) {
      lane_errors[lane] = std::current_exception();
    }
  };
  {
    // jthreads join on scope exit, including when a later spawn throws.
    std::vector<std::jthread> workers;
    workers.reserve(width - 1);
    for (std::size_t lane = 1; lane < width; ++lane) workers.emplace_back(run_lane, lane);
    run_lane(0);
  }
  // The lowest lane's failure, so the surfaced error does not depend on
  // which thread was spawned first.
  for (const std::exception_ptr& err : lane_errors) {
    if (err != nullptr) std::rethrow_exception(err);
  }
}

}  // namespace exadigit
