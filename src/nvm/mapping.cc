/**
 * @file
 * Zeroed anonymous mappings on 2 MiB pages.
 */
#include "nvm/mapping.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

namespace incll::nvm {

void
Unmap::operator()(char *p) const
{
    ::munmap(p, bytes);
}

Mapping
mapZeroed(std::size_t bytes)
{
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t len = (bytes + page - 1) & ~(page - 1);
    // Over-map by one huge page so a 2 MiB-aligned start fits inside,
    // then hand the unused head and tail back.
    const std::size_t reserve = len + page + kHugePageSize;
    if (len < bytes || reserve < len)
        throw std::bad_alloc();
    void *raw = ::mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();

    const auto start = reinterpret_cast<std::uintptr_t>(raw);
    const auto aligned = (start + kHugePageSize - 1) & ~(kHugePageSize - 1);
    const auto end = aligned + len + page; // guard page included
    if (aligned != start)
        ::munmap(raw, aligned - start);
    if (end != start + reserve)
        ::munmap(reinterpret_cast<void *>(end), start + reserve - end);

    Mapping mapping(reinterpret_cast<char *>(aligned), Unmap{len + page});
    if (::mprotect(mapping.get() + len, page, PROT_NONE) != 0)
        throw std::bad_alloc();
    // Fails only where the kernel has no transparent huge pages; the
    // mapping then simply stays on base pages.
    (void)::madvise(mapping.get(), len, MADV_HUGEPAGE);
    return mapping;
}

} // namespace incll::nvm
