/**
 * @file
 * Field readers for the generated JSONL streams that snap-report and
 * snap-trace fold (docs/METRICS.md, docs/TRACING.md). The writers emit
 * one object per line with no whitespace, so a key is found by plain
 * search; numbers are read strictly, so a malformed stream fails
 * --validate instead of folding into a wrong table.
 */

#ifndef SNAPLE_TOOLS_JSONL_HH
#define SNAPLE_TOOLS_JSONL_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

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
