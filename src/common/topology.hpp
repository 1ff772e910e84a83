#ifndef SF_COMMON_TOPOLOGY_HPP
#define SF_COMMON_TOPOLOGY_HPP

/**
 * @file
 * Host CPU topology: core/NUMA-node enumeration, cache-size probes
 * and a thread-pinning helper for topology-aware worker placement.
 *
 * The batched sDTW kernel keeps per-worker interleaved DP scratch
 * that is expensive to bounce between NUMA nodes, and its column-tile
 * heuristic wants the per-core L2 size.  Everything here degrades
 * gracefully: on hosts without /sys topology or affinity support the
 * probes fall back to a single node spanning hardware_concurrency()
 * cpus, and pinning becomes a no-op returning false — callers treat
 * placement as a pure wall-clock hint, never a correctness input.
 */

#include <cstddef>
#include <string>
#include <vector>

namespace sf::topo {

/** One NUMA node and the cpu ids it owns. */
struct NumaNode
{
    int id = 0;
    std::vector<int> cpus;
};

/** Detected host topology (nodes in id order, cpus in id order). */
struct CpuTopology
{
    std::vector<NumaNode> nodes;
    std::size_t cpuCount = 0; //!< total cpus across all nodes

    bool multiNode() const { return nodes.size() > 1; }
};

/**
 * The host's topology, probed once and memoized.  Parses
 * /sys/devices/system/node/node<N>/cpulist on Linux; elsewhere (or
 * when /sys is unavailable) reports one node spanning
 * std::thread::hardware_concurrency() cpus.  Never empty.
 */
const CpuTopology &systemTopology();

/**
 * Per-core L2 data-cache size in bytes (sysconf, then sysfs), probed
 * once and memoized.  0 when undetectable — callers fall back to a
 * conservative default.
 */
std::size_t level2CacheBytes();

/**
 * Node-compact placement plan: cpu ids for @p count threads, filling
 * one node's cpus before spilling to the next and wrapping when
 * oversubscribed, so co-operating threads land on as few nodes as
 * possible.  Entries are -1 (meaning "don't pin") when the topology
 * reports no usable cpus.  The plan is prefix-stable: planPlacement(n)
 * is the head of planPlacement(n + k), so a worker pool and the
 * threads placed after it can plan separately.
 */
std::vector<int> planPlacement(std::size_t count);
std::vector<int> planPlacement(const CpuTopology &topology,
                               std::size_t count);

/**
 * Parse a kernel cpulist into cpu ids.  Handles every form sysfs can
 * emit: single cpus ("3"), ranges ("0-3"), comma-separated unions
 * ("0-3,8,10-11") and stride groups ("0-63:4/8" — from each group of
 * 8 starting at 0, take the first 4).  Strict all-or-nothing: any
 * malformed chunk returns an EMPTY vector (never a wrong prefix or
 * superset), and the topology probe then falls back to the flat
 * single-node plan.  Trailing whitespace/newline is accepted.
 */
std::vector<int> parseCpuList(const std::string &list);

/**
 * Pin the calling thread to @p cpu.  Returns true on success, false
 * when @p cpu is negative, the platform has no thread affinity, or
 * the kernel refuses — callers must treat false as a benign no-op.
 */
bool pinThreadToCpu(int cpu);

} // namespace sf::topo

#endif // SF_COMMON_TOPOLOGY_HPP
