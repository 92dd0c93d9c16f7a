/**
 * @file
 * Field readers for the generated JSONL streams that snap-report and
 * snap-trace fold (docs/METRICS.md, docs/TRACING.md). The writers emit
 * one object per line with no whitespace, so a key is found by plain
 * search; numbers are read strictly, so a malformed stream fails
 * --validate instead of folding into a wrong table. Numeric
 * command-line flags go through the same strict reader (flagValue).
 */

#ifndef SNAPLE_TOOLS_JSONL_HH
#define SNAPLE_TOOLS_JSONL_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace snaple::tools {

/**
 * Offset of the value of `"key":` in @p line, or npos. Keys never
 * appear inside the writers' string values, so plain search is exact.
 */
inline std::size_t
valueOffset(const std::string &line, const char *key)
{
    const std::string pat = "\"" + std::string(key) + "\":";
    const std::size_t at = line.find(pat);
    return at == std::string::npos ? std::string::npos : at + pat.size();
}

/**
 * Parse the unsigned decimal at @p p into @p out and point @p end
 * past it. Only digits may start it — no sign, no blank — and the
 * value must fit in 64 bits.
 */
inline bool
parseU64(const char *p, const char *&end, std::uint64_t &out)
{
    if (*p < '0' || *p > '9')
        return false;
    errno = 0;
    char *e = nullptr;
    out = std::strtoull(p, &e, 10);
    end = e;
    return errno != ERANGE;
}

/**
 * The value of command-line flag @p flag, read from the whole of
 * @p text: for an integer T an unsigned decimal that fits T, for a
 * floating-point T a finite number. Either way the value must lie
 * in [0, @p max]. Anything else (a sign, blanks, trailing characters,
 * overflow) prints a message naming the flag and exits with status 2.
 */
template <class T>
T
flagValue(const char *flag, const char *text,
          T max = std::numeric_limits<T>::max())
{
    const char *end = text;
    bool ok = false;
    T out{};
    if constexpr (std::is_floating_point_v<T>) {
        if ((*text >= '0' && *text <= '9') || *text == '.') {
            char *e = nullptr;
            out = static_cast<T>(std::strtod(text, &e));
            end = e;
            ok = std::isfinite(out);
        }
    } else {
        std::uint64_t v = 0;
        ok = parseU64(text, end, v) &&
             v <= std::uint64_t(std::numeric_limits<T>::max());
        out = static_cast<T>(v);
    }
    if (ok && end != text && *end == '\0' && out <= max)
        return out;
    std::fprintf(stderr, "%s: invalid value '%s' ", flag, text);
    if constexpr (!std::is_floating_point_v<T>)
        std::fprintf(stderr, "(expected an integer from 0 to %llu)\n",
                     static_cast<unsigned long long>(max));
    else if (max < std::numeric_limits<T>::max())
        std::fprintf(stderr, "(expected a number from 0 to %g)\n",
                     double(max));
    else
        std::fprintf(stderr, "(expected a non-negative number)\n");
    std::exit(2);
}

/** The u64 value of @p key; false if absent or not a valid u64. */
inline bool
getU64(const std::string &line, const char *key, std::uint64_t &out)
{
    const std::size_t at = valueOffset(line, key);
    const char *end = nullptr;
    return at != std::string::npos &&
           parseU64(line.c_str() + at, end, out);
}

/** The number value of @p key; false if absent or not a number. */
inline bool
getF64(const std::string &line, const char *key, double &out)
{
    const std::size_t at = valueOffset(line, key);
    if (at == std::string::npos)
        return false;
    char *end = nullptr;
    out = std::strtod(line.c_str() + at, &end);
    return end != line.c_str() + at;
}

} // namespace snaple::tools

#endif // SNAPLE_TOOLS_JSONL_HH
