/**
 * @file
 * FNV-1a digest of the trace records a run emits, for tests that pin
 * or compare what a run did.
 */

#ifndef TLR_TESTS_TRACE_DIGEST_HH
#define TLR_TESTS_TRACE_DIGEST_HH

#include <cstdint>

#include "trace/sink.hh"

namespace tlr
{

/** FNV-1a (64-bit) over every field of every record, in arrival
 *  order. */
struct DigestListener : TraceListener
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint64_t records = 0;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    onRecord(const TraceRecord &r) override
    {
        ++records;
        mix(r.tick);
        mix(static_cast<std::uint64_t>(r.comp));
        mix(static_cast<std::uint64_t>(r.kind));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.cpu)));
        mix(r.addr);
        mix(r.a0);
        mix(r.a1);
        mix(r.a2);
        mix(r.a3);
        mix(r.seq);
    }
};

} // namespace tlr

#endif // TLR_TESTS_TRACE_DIGEST_HH
