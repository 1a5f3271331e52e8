/**
 * @file
 * Memory access coalescing (paper Figure 5): one memory request per
 * unique cache line touched by a warp instruction. Used at trace
 * generation time; the LSU then charges one translation + one cache
 * access per generated request.
 */

#ifndef GEX_SM_COALESCER_HPP
#define GEX_SM_COALESCER_HPP

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace gex::sm {

/**
 * Coalesce @p n per-lane addresses into @p lines (room for @p n
 * entries): unique line addresses in ascending order, exactly sort
 * plus unique of their lines. Returns how many. When the lanes' lines
 * are already non-decreasing, as for the usual unit-stride or
 * broadcast warp, one pass suffices and nothing is sorted.
 */
std::size_t coalesceLines(const Addr *lane_addrs, std::size_t n,
                          Addr *lines);

/** Unique, sorted line addresses for a set of per-lane addresses. */
std::vector<Addr> coalesce(const std::vector<Addr> &lane_addrs);

} // namespace gex::sm

#endif // GEX_SM_COALESCER_HPP
