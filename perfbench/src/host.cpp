#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/topology.hpp"
#include "sdtw/batch.hpp"

namespace sfb {

namespace {

double
timevalSec(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Bytes from a sysfs cache size such as "2048K" (0 if absent). */
std::size_t
sysfsCacheBytes(int level)
{
    for (int index = 0; index < 8; ++index) {
        const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                                std::to_string(index) + "/";
        if (readFirstLine(dir + "level") != std::to_string(level) ||
            readFirstLine(dir + "type") == "Instruction")
            continue;
        const std::string size = readFirstLine(dir + "size");
        if (size.empty())
            return 0;
        std::size_t value = 0;
        std::size_t i = 0;
        while (i < size.size() && size[i] >= '0' && size[i] <= '9')
            value = value * 10 + std::size_t(size[i++] - '0');
        const char unit = i < size.size() ? size[i] : ' ';
        return unit == 'K' ? value << 10 : unit == 'M' ? value << 20 : value;
    }
    return 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? "" : line.substr(colon + 2);
        }
    return "";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return timevalSec(ru.ru_utime) + timevalSec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::uint64_t
stealTicks()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::istringstream fields(readFirstLine("/proc/stat"));
    std::string label;
    fields >> label;
    std::uint64_t value = 0;
    for (int i = 0; i < 8 && (fields >> value); ++i)
        if (i == 7)
            return value;
    return 0;
}

std::string
hostFingerprintJson()
{
    std::ostringstream j;
    j << "{\"cores\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":\"" << jsonEscape(cpuModel()) << "\""
      << ",\"simd\":\""
      << sf::sdtw::simdBackendName(sf::sdtw::detectSimdBackend()) << "\""
      << ",\"l2_bytes\":" << sf::topo::level2CacheBytes()
      << ",\"l3_bytes\":" << sysfsCacheBytes(3)
      << ",\"compiler\":\"" << jsonEscape(SFB_COMPILER) << "\""
      << ",\"flags\":\"" << jsonEscape(SFB_FLAGS) << "\"}";
    return j.str();
}

} // namespace sfb
