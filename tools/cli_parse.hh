/**
 * @file
 * Strict command-line value parsers shared by the tools. Each parses
 * the whole string or exits 2 with a message naming the flag: no
 * trailing garbage, no sign on an unsigned value, no silent zero.
 */

#ifndef WHISPER_TOOLS_CLI_PARSE_HH
#define WHISPER_TOOLS_CLI_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace whisper
{

/** Exit 2 with a message naming @p flag and its bad @p value. */
[[noreturn]] inline void
badValue(const char *flag, const char *value, const char *want)
{
    std::fprintf(stderr, "error: %s '%s': expected %s\n", flag, value,
                 want);
    std::exit(2);
}

/** Whole-string decimal integer in [@p min, @p max]. */
inline uint64_t
parseInteger(const char *flag, const char *value, uint64_t min,
             uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE || v < min || v > max) {
        std::string want =
            max == UINT64_MAX
                ? std::string(min ? "a positive" : "a non-negative") +
                      " integer"
                : "an integer from " + std::to_string(min) + " to " +
                      std::to_string(max);
        badValue(flag, value, want.c_str());
    }
    return v;
}

/** Whole-string decimal integer, 1 to @p max. */
inline uint64_t
parsePositive(const char *flag, const char *value,
              uint64_t max = UINT64_MAX)
{
    return parseInteger(flag, value, 1, max);
}

/** A TAGE-SC-L budget in KB: a power of two from 8 to 8192, the
 * budgets TageSclConfig::forBudgetKB() supports. */
inline unsigned
parseTageKb(const char *flag, const char *value)
{
    uint64_t kb = parseInteger(flag, value, 8, 8192);
    if (kb & (kb - 1))
        badValue(flag, value, "a power of two from 8 to 8192");
    return static_cast<unsigned>(kb);
}

/** Whole-string finite number in [@p lo, @p hi]; @p want names the
 * range in the error. */
inline double
parseReal(const char *flag, const char *value, double lo, double hi,
          const char *want)
{
    char *end = nullptr;
    double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(v) || v < lo ||
        v > hi)
        badValue(flag, value, want);
    return v;
}

/** Whole-string fraction in [0, 1). */
inline double
parseFraction(const char *flag, const char *value)
{
    return parseReal(flag, value, 0.0, std::nextafter(1.0, 0.0),
                     "a fraction in [0, 1)");
}

/** "on"/"off" (or 1/0, true/false), for flags given both as
 * "--flag on" and "--flag=on". */
inline bool
parseOnOff(const char *flag, const std::string &value)
{
    if (value == "on" || value == "1" || value == "true")
        return true;
    if (value != "off" && value != "0" && value != "false")
        badValue(flag, value.c_str(), "on or off");
    return false;
}

} // namespace whisper

#endif // WHISPER_TOOLS_CLI_PARSE_HH
