/**
 * @file
 * Zeroed anonymous mappings on 2 MiB pages: the one way pool memory is
 * obtained (nvm::Pool's primary and shadow regions, PoolAllocator's
 * slabs).
 *
 * A mapping starts on a 2 MiB boundary and is advised MADV_HUGEPAGE, so
 * under transparent huge pages in `madvise` or `always` mode every whole
 * 2 MiB of it can be backed by one huge page and one TLB entry. Its
 * length is rounded to base pages only: a tail shorter than 2 MiB stays
 * on 4 KiB pages rather than paying for memory nobody asked for. The
 * kernel zeroes pages as they are first touched, so the resident size
 * tracks the bytes actually used, not the bytes mapped. One PROT_NONE
 * guard page follows the end, so a store running off it faults instead
 * of corrupting a neighbour.
 */
#pragma once

#include <cstddef>
#include <memory>

namespace incll::nvm {

/** Start alignment of every mapping, and the huge-page size advised. */
inline constexpr std::size_t kHugePageSize = std::size_t{2} << 20;

/** Releases a mapping made by mapZeroed() (guard page included). */
struct Unmap
{
    std::size_t bytes = 0; ///< mapped length, guard page included
    void operator()(char *p) const;
};

using Mapping = std::unique_ptr<char[], Unmap>;

/**
 * Map @p bytes of zeroed, readable and writable memory, 2 MiB-aligned
 * and advised for huge pages. A kernel without huge-page support still
 * returns a valid (4 KiB-paged) mapping.
 *
 * @throws std::bad_alloc when the kernel refuses the mapping.
 */
Mapping mapZeroed(std::size_t bytes);

} // namespace incll::nvm
