#include "sm/coalescer.hpp"

#include <algorithm>

namespace gex::sm {

std::size_t
coalesceLines(const Addr *lane_addrs, std::size_t n, Addr *lines)
{
    if (n == 0)
        return 0;
    // Drop repeats of the previous line on the way; if every kept line
    // rises, the list is already sort plus unique.
    Addr prev = lineOf(lane_addrs[0]);
    lines[0] = prev;
    std::size_t k = 1;
    bool rising = true;
    for (std::size_t i = 1; i < n; ++i) {
        const Addr l = lineOf(lane_addrs[i]);
        if (l == prev)
            continue;
        rising &= l > prev;
        lines[k++] = l;
        prev = l;
    }
    if (rising)
        return k;
    std::sort(lines, lines + k);
    return static_cast<std::size_t>(std::unique(lines, lines + k) - lines);
}

std::vector<Addr>
coalesce(const std::vector<Addr> &lane_addrs)
{
    std::vector<Addr> lines(lane_addrs.size());
    lines.resize(
        coalesceLines(lane_addrs.data(), lane_addrs.size(), lines.data()));
    return lines;
}

std::size_t
coalescedCount(const std::vector<Addr> &lane_addrs)
{
    // A warp has at most kWarpSize lanes, so the working set fits on
    // the stack; fall back to the allocating path for oversized input.
    if (lane_addrs.size() > static_cast<std::size_t>(kWarpSize))
        return coalesce(lane_addrs).size();
    Addr lines[kWarpSize];
    return coalesceLines(lane_addrs.data(), lane_addrs.size(), lines);
}

} // namespace gex::sm
