/**
 * @file
 * The simulator's hash helpers, in one place.
 *
 * Pure 64-bit integer arithmetic, so every result is the same on every
 * host, compiler and byte order:
 *
 *  - hashWord() folds one 64-bit word into a running hash with one
 *    multiply and one xorshift; hashRecord() folds a fixed-length
 *    record of words with one such step per word plus one per record.
 *    They are the determinism fingerprint: the per-event trace hash
 *    (sim/trace.hh, one record per event) and the scenario runner's
 *    per-run and per-checkpoint folds of the node hashes.
 *  - fnv1a64() is byte-wise FNV-1a 64. It hashes trace scope names
 *    (once, at interning) and is the snapshot trailer checksum, which
 *    stays FNV-1a for format stability.
 */

#ifndef SNAPLE_SIM_HASH_HH
#define SNAPLE_SIM_HASH_HH

#include <concepts>
#include <cstddef>
#include <cstdint>

namespace snaple::sim {

/** FNV-1a 64 offset basis; also the start of every hashWord() chain. */
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
/** FNV-1a 64 prime. */
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** Odd multiplier of hashWord(): 2^64 / golden ratio. */
inline constexpr std::uint64_t kHashMul = 0x9e3779b97f4a7c15ull;

/**
 * Fold @p v into the running hash @p h: h' = m(h ^ v), where
 * m(x) = y ^ (y >> 32) with y = x * kHashMul (mod 2^64).
 *
 * Both steps of m are invertible (an odd multiply and a right
 * xorshift), so m is a bijection. Two word streams of equal length
 * that differ in exactly one word therefore always hash differently,
 * whichever bit differs. Word order matters: swapping two unequal
 * words a, b keeps the hash only if m(h ^ a) ^ m(h ^ b) == a ^ b, a
 * chance coincidence.
 */
constexpr std::uint64_t
hashWord(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t y = (h ^ v) * kHashMul;
    return y ^ (y >> 32);
}

/**
 * Fold one record of words into @p h with a single dependent step:
 * h' = hashWord(h, sum over i of hashWord(i * kHashMul, w_i)), the sum
 * mod 2^64 with i = 1, 2, ... the word's position.
 *
 * The per-word terms do not depend on @p h, so they run in parallel
 * and only the final hashWord() sits on the chain from one record to
 * the next. Each term is a bijection of its word and the sum is
 * invertible in each term, so changing any one word of any one record
 * always changes the hash. Each position has its own key, so moving a
 * value to another position changes the hash except by chance.
 */
template <std::same_as<std::uint64_t>... W>
constexpr std::uint64_t
hashRecord(std::uint64_t h, W... words)
{
    std::uint64_t key = 0, sum = 0;
    ((sum += hashWord(key += kHashMul, words)), ...);
    return hashWord(h, sum);
}

/** FNV-1a 64 over @p n bytes at @p data. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

} // namespace snaple::sim

#endif // SNAPLE_SIM_HASH_HH
