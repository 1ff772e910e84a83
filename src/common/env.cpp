#include "common/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/logging.hpp"

namespace sf {

namespace {

/** The full value must be consumed: "1024abc" is a config error. */
void
requireFullParse(const char *name, const char *value, const char *end)
{
    if (end == value || *end != '\0')
        fatal("env knob %s=\"%s\" is malformed; the whole value must "
              "parse (no trailing garbage)",
              name, value);
}

/** strtoull skips leading whitespace and accepts a sign (" -1" wraps
    to 2^64-1), so an unsigned value must start with its first digit. */
bool
startsWithDigit(const char *s)
{
    return *s >= '0' && *s <= '9';
}

} // namespace

const char *
envString(const char *name)
{
    return std::getenv(name);
}

std::size_t
envSize(const char *name, std::size_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    if (!startsWithDigit(v))
        fatal("env knob %s=\"%s\" must be a non-negative decimal "
              "integer (no sign or leading whitespace)",
              name, v);
    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    requireFullParse(name, v, end);
    if (errno == ERANGE)
        fatal("env knob %s=\"%s\" overflows", name, v);
    return std::size_t(parsed);
}

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(v, &end);
    requireFullParse(name, v, end);
    if (errno == ERANGE || !std::isfinite(parsed))
        fatal("env knob %s=\"%s\" is out of range", name, v);
    return parsed;
}

bool
envFlag(const char *name, bool fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    const std::string s(v);
    if (s == "0")
        return false;
    if (s == "1")
        return true;
    fatal("env knob %s=\"%s\" must be exactly \"0\" or \"1\"", name, v);
}

std::vector<unsigned>
envUnsignedCsv(const char *name, std::vector<unsigned> fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    std::vector<unsigned> out;
    const std::string s(v);
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string tok =
            s.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
        errno = 0;
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(tok.c_str(), &end, 10);
        if (!startsWithDigit(tok.c_str()) || *end != '\0' ||
            errno == ERANGE || parsed == 0 || parsed > 0xffffffffull)
            fatal("env knob %s=\"%s\" must be a comma-separated list "
                  "of positive integers (bad element \"%s\")",
                  name, v, tok.c_str());
        out.push_back(unsigned(parsed));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

} // namespace sf
