#ifndef SF_COMMON_TOPOLOGY_HPP
#define SF_COMMON_TOPOLOGY_HPP

/**
 * @file
 * Host cache-size probe.  The batched sDTW kernel's column-tile
 * heuristic wants the per-core L2 size; the probe degrades to 0 on
 * hosts that expose neither sysconf nor sysfs cache data, and callers
 * then fall back to a conservative default.
 */

#include <cstddef>

namespace sf::topo {

/**
 * Per-core L2 data-cache size in bytes (sysconf, then sysfs), probed
 * once and memoized.  0 when undetectable — callers fall back to a
 * conservative default.
 */
std::size_t level2CacheBytes();

} // namespace sf::topo

#endif // SF_COMMON_TOPOLOGY_HPP
