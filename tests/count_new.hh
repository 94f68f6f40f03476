/**
 * @file
 * A global operator new that counts its calls, for tests that assert a
 * path does not allocate. Include it in exactly one translation unit
 * of a test binary: it replaces the program's operator new.
 */

#ifndef TLR_TESTS_COUNT_NEW_HH
#define TLR_TESTS_COUNT_NEW_HH

#include <cstddef>
#include <cstdlib>
#include <new>

namespace
{
/** Global operator new calls in this binary. */
std::size_t newCalls = 0;
} // namespace

// Both operators stay out of line. GCC otherwise sees std::malloc
// behind operator new, or std::free behind operator delete, at a
// new/delete pair and reports them as mismatched
// (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    ++newCalls;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // TLR_TESTS_COUNT_NEW_HH
