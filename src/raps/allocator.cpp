#include "raps/allocator.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace exadigit {

NodeAllocator::NodeAllocator(const SystemConfig& config)
    : machine_{"", 0, config.total_nodes(), config.total_nodes()},
      free_words_((static_cast<std::size_t>(config.total_nodes()) + 63) / 64, 0),
      nodes_per_rack_(config.rack.nodes_per_rack) {
  // All nodes start free; tail bits past the last node stay 0 (busy) so the
  // word scans never have to special-case the last word.
  for (int i = 0; i < machine_.end; ++i) set_bit(i);
  int cursor = 0;
  for (const auto& p : config.partitions) {
    const int end = cursor + p.node_count;
    require(end <= machine_.end, "partition layout exceeds machine size");
    partitions_.push_back(Range{p.name, cursor, end, p.node_count});
    cursor = end;
  }
}

const NodeAllocator::Range& NodeAllocator::range_for(const std::string& partition) const {
  if (partition.empty()) return machine_;
  for (const auto& r : partitions_) {
    if (r.name == partition) return r;
  }
  throw ConfigError("unknown partition: " + partition);
}

int NodeAllocator::free_nodes_in(const std::string& partition) const {
  return range_for(partition).free;
}

void NodeAllocator::count_free(const std::vector<int>& nodes, int delta) {
  machine_.free += delta * static_cast<int>(nodes.size());
  for (int n : nodes) {
    // Partitions tile [0, last end) in order, so the first range ending
    // past n holds it; none does for a node past the last partition.
    const auto p = std::partition_point(partitions_.begin(), partitions_.end(),
                                        [n](const Range& r) { return r.end <= n; });
    if (p != partitions_.end()) p->free += delta;
  }
}

std::optional<std::vector<int>> NodeAllocator::allocate(int count,
                                                        const std::string& partition) {
  require(count > 0, "allocation count must be positive");
  const Range& range = range_for(partition);
  if (count > range.free) return std::nullopt;

  // Pass 1: first-fit contiguous run, a word (64 nodes) at a time. The run
  // bookkeeping matches the original per-node scan exactly: the first index
  // where a free run reaches `count` wins, and the allocation is the first
  // `count` nodes of that run.
  int run_start = -1;
  int run_len = 0;
  for (int i = range.begin; i < range.end;) {
    const int bit = i & 63;
    const int avail = std::min(64 - bit, range.end - i);
    std::uint64_t w = free_words_[static_cast<std::size_t>(i) >> 6] >> bit;
    if (avail < 64) w &= (std::uint64_t{1} << avail) - 1;
    if (w == 0) {
      run_len = 0;
      i += avail;
      continue;
    }
    int pos = 0;
    while (pos < avail) {
      if ((w & 1u) == 0) {
        const int zeros = std::min(std::countr_zero(w), avail - pos);
        run_len = 0;
        pos += zeros;
        if (pos >= avail) break;
        w >>= zeros;
      } else {
        const int ones = std::min(std::countr_one(w), avail - pos);
        if (run_len == 0) run_start = i + pos;
        run_len += ones;
        if (run_len >= count) {
          std::vector<int> nodes(static_cast<std::size_t>(count));
          for (int k = 0; k < count; ++k) {
            nodes[static_cast<std::size_t>(k)] = run_start + k;
            clear_bit(run_start + k);
          }
          count_free(nodes, -1);
          return nodes;
        }
        pos += ones;
        if (pos >= avail) break;
        w >>= ones;
      }
    }
    i += avail;
  }

  // Pass 2: scattered fill (ascending); the range holds at least `count`
  // free nodes (checked above).
  std::vector<int> nodes;
  nodes.reserve(static_cast<std::size_t>(count));
  for (int i = range.begin; i < range.end && static_cast<int>(nodes.size()) < count;) {
    const int bit = i & 63;
    const int avail = std::min(64 - bit, range.end - i);
    std::uint64_t w = free_words_[static_cast<std::size_t>(i) >> 6] >> bit;
    if (avail < 64) w &= (std::uint64_t{1} << avail) - 1;
    while (w != 0 && static_cast<int>(nodes.size()) < count) {
      nodes.push_back(i + std::countr_zero(w));
      w &= w - 1;  // clear lowest set bit
    }
    i += avail;
  }
  if (static_cast<int>(nodes.size()) < count) return std::nullopt;
  for (int n : nodes) clear_bit(n);
  count_free(nodes, -1);
  return nodes;
}

void NodeAllocator::release(const std::vector<int>& nodes) {
  for (int n : nodes) require(n >= 0 && n < machine_.end, "release of out-of-range node");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (test(nodes[i])) {
      // Roll back, so a failed release changes nothing: every node before
      // i was busy and has just been set (a repeat within the list is
      // caught here too, as its first copy has just been set).
      for (std::size_t k = 0; k < i; ++k) clear_bit(nodes[k]);
      // Message built only on failure: the old unconditional
      // string-concatenation argument dominated release() cost.
      throw ConfigError("double release of node " + std::to_string(nodes[i]));
    }
    set_bit(nodes[i]);
  }
  count_free(nodes, +1);
}

bool NodeAllocator::is_free(int node) const {
  require(node >= 0 && node < machine_.end, "node index out of range");
  return test(node);
}

std::vector<int> NodeAllocator::busy_per_rack() const {
  std::vector<int> racks(static_cast<std::size_t>((machine_.end + nodes_per_rack_ - 1) /
                                                  nodes_per_rack_),
                         0);
  for (int i = 0; i < machine_.end; ++i) {
    if (!test(i)) {
      ++racks[static_cast<std::size_t>(i / nodes_per_rack_)];
    }
  }
  return racks;
}

}  // namespace exadigit
