#pragma once

/// @file thread_pool.hpp
/// One-shot fork-join over independent, slot-addressed jobs.
///
/// `parallel_for_dynamic(n, width, fn)` runs fn(0..n-1) on `width` lanes:
/// lane 0 is the calling thread and `width - 1` threads are spawned
/// for the call and joined before it returns. Jobs are handed out through
/// an atomic cursor, so which lane runs which job depends on timing; it is
/// only suitable when each job writes only its own output slot (the
/// ScenarioRunner batch pattern), which keeps the results deterministic.
///
/// An exception thrown inside fn stops its lane; after the join, the one
/// from the lowest lane is rethrown on the calling thread. Width <= 1 (or
/// n <= 1) runs the plain loop on the caller and spawns nothing.

#include <cstddef>
#include <functional>

namespace exadigit {

/// Runs fn(i) for every i in [0, n) across `width` lanes; see the file
/// header. Blocks until every job finished.
void parallel_for_dynamic(std::size_t n, std::size_t width,
                          const std::function<void(std::size_t)>& fn);

}  // namespace exadigit
