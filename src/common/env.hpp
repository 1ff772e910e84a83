#ifndef SF_COMMON_ENV_HPP
#define SF_COMMON_ENV_HPP

/**
 * @file
 * Strict readers for the SF_* environment knobs.
 *
 * Every knob read in the tree goes through these helpers (the sf-lint
 * env-knob-strict-parse rule forbids raw std::getenv elsewhere), and
 * they are loud on purpose: an unset knob yields the fallback, but a
 * malformed value — trailing garbage ("1024abc"), an empty string, a
 * negative count, an out-of-range number — is fatal() instead of
 * being silently truncated to whatever the C parsers salvage.  A
 * mistyped knob in CI must fail the job, not quietly bench the wrong
 * configuration.
 */

#include <cstddef>
#include <vector>

namespace sf {

/**
 * Raw string knob: the value of @p name, or nullptr when unset.
 * String knobs validate their own vocabulary at the call site (and
 * fatal there on unknown values).
 */
const char *envString(const char *name);

/** Non-negative decimal integer knob; fatal unless the whole value
    parses and starts with a digit (no sign, no leading whitespace). */
std::size_t envSize(const char *name, std::size_t fallback);

/** Finite floating-point knob; fatal unless the whole value parses. */
double envDouble(const char *name, double fallback);

/** Boolean knob: exactly "0" or "1"; anything else is fatal. */
bool envFlag(const char *name, bool fallback);

/**
 * Comma-separated list of positive integers ("1,4,8"); fatal on an
 * empty list, a malformed or zero element, an element that does not
 * start with a digit (sign or whitespace), or trailing garbage.
 */
std::vector<unsigned> envUnsignedCsv(const char *name,
                                     std::vector<unsigned> fallback);

} // namespace sf

#endif // SF_COMMON_ENV_HPP
