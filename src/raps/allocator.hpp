#pragma once

/// @file allocator.hpp
/// Node allocation for the RAPS scheduler.
///
/// Tracks which of the machine's nodes are free, allocates node sets for
/// jobs (contiguous-first, falling back to scattered fill — Frontier jobs
/// get rack-major node ranges when available, which also keeps rectifier
/// groups homogeneous for the power model), and supports multi-partition
/// machines (Section V) by restricting jobs to partition node ranges.
///
/// The free map is kept as a packed 64-bit bitmap so the first-fit and
/// scattered scans step a word (64 nodes) at a time — countr_zero/countr_one
/// instead of a branch per node. Selection semantics are exactly the
/// original bit-by-bit scans (first-fit contiguous run, then ascending
/// scattered fill), so allocations — and everything downstream of them —
/// are unchanged; tests/raps/allocator_test.cpp pins the equivalence.
///
/// Free counts are maintained per partition (and for the whole machine)
/// by allocate and release, so free_nodes_in — called by every policy once
/// per scanned queue entry — is O(1) and never rescans the bitmap.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/system_config.hpp"

namespace exadigit {

/// Allocates and frees node index sets.
class NodeAllocator {
 public:
  explicit NodeAllocator(const SystemConfig& config);

  /// Total nodes managed.
  [[nodiscard]] int total_nodes() const { return machine_.end; }
  /// Currently free nodes (optionally within a partition), in O(1).
  [[nodiscard]] int free_nodes() const { return machine_.free; }
  [[nodiscard]] int free_nodes_in(const std::string& partition) const;

  /// Attempts to allocate `count` nodes (contiguous run first, then
  /// scattered). Returns the node indices or nullopt when insufficient.
  /// `partition` empty means the whole machine.
  [[nodiscard]] std::optional<std::vector<int>> allocate(int count,
                                                         const std::string& partition = {});

  /// Releases previously allocated nodes. An out-of-range node or a double
  /// release (including a node listed twice) throws and leaves the
  /// allocator unchanged.
  void release(const std::vector<int>& nodes);

  [[nodiscard]] bool is_free(int node) const;

  /// Nodes per rack occupancy (for heat maps / power aggregation).
  [[nodiscard]] std::vector<int> busy_per_rack() const;

 private:
  /// A contiguous node range [begin, end) and how many of its nodes are free.
  struct Range {
    std::string name;
    int begin = 0;
    int end = 0;  // exclusive
    int free = 0;
  };

  Range machine_;                          ///< the whole machine (partition "")
  std::vector<Range> partitions_;          ///< contiguous from node 0, in config order
  std::vector<std::uint64_t> free_words_;  ///< bit set = node free
  int nodes_per_rack_;

  /// `partition`'s range, or machine_ for ""; throws for an unknown name.
  [[nodiscard]] const Range& range_for(const std::string& partition) const;
  /// Adds `delta` to the free counters of the machine and of each node's
  /// partition (nodes past the last partition belong to none).
  void count_free(const std::vector<int>& nodes, int delta);
  [[nodiscard]] bool test(int node) const {
    return ((free_words_[static_cast<std::size_t>(node) >> 6] >> (node & 63)) & 1u) != 0;
  }
  void set_bit(int node) {
    free_words_[static_cast<std::size_t>(node) >> 6] |= std::uint64_t{1} << (node & 63);
  }
  void clear_bit(int node) {
    free_words_[static_cast<std::size_t>(node) >> 6] &= ~(std::uint64_t{1} << (node & 63));
  }
};

}  // namespace exadigit
