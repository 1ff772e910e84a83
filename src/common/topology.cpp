#include "common/topology.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace sf::topo {

namespace {

#if defined(__linux__)
/** Read a small sysfs text file; empty string when unreadable. */
std::string
readSysFile(const char *path)
{
    std::FILE *f = std::fopen(path, "re");
    if (f == nullptr)
        return {};
    char buf[256];
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    return std::string(buf);
}
#endif

std::size_t
probeLevel2CacheBytes()
{
#if defined(__linux__)
#if defined(_SC_LEVEL2_CACHE_SIZE)
    const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (v > 0)
        return std::size_t(v);
#endif
    // sysfs fallback: "2048K" / "2M" style.
    const std::string size = readSysFile(
        "/sys/devices/system/cpu/cpu0/cache/index2/size");
    if (!size.empty()) {
        char *end = nullptr;
        const unsigned long long n =
            std::strtoull(size.c_str(), &end, 10);
        if (end != size.c_str() && n > 0) {
            if (*end == 'K')
                return std::size_t(n) << 10;
            if (*end == 'M')
                return std::size_t(n) << 20;
            return std::size_t(n);
        }
    }
#endif
    return 0;
}

} // namespace

std::size_t
level2CacheBytes()
{
    // Magic-static memoization: probed once, thread-safe per C++11.
    static const std::size_t bytes = probeLevel2CacheBytes();
    return bytes;
}

} // namespace sf::topo
