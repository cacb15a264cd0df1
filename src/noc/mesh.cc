#include "src/noc/mesh.hh"

#include <algorithm>

#include "src/sim/check.hh"
#include "src/sim/logging.hh"
#include "src/sim/statreg.hh"

namespace jumanji {

void
MeshTopology::registerStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + "linkWaitCycles",
                   "cycles messages waited on busy links",
                   &linkWaitCycles_);
}

MeshTopology::MeshTopology(const MeshParams &params)
    : params_(params),
      linkBusyUntil_(static_cast<std::size_t>(params.cols) *
                         params.rows * 4,
                     0)
{
    if (params.cols == 0 || params.rows == 0)
        fatal("MeshTopology: mesh dimensions must be nonzero");
    coords_.reserve(numTiles());
    for (std::uint32_t t = 0; t < numTiles(); t++)
        coords_.push_back(Coord{xOf(t), yOf(t)});
}

Tick
MeshTopology::traverse(Tick start, std::uint32_t fromTile,
                       std::uint32_t toTile, std::uint32_t flits)
{
    if (!params_.modelLinkContention)
        return start + traversalLatency(hops(fromTile, toTile));

    // Walk the X-Y route hop by hop, acquiring each directed link.
    Tick now = start;
    std::uint32_t x = xOf(fromTile), y = yOf(fromTile);
    std::uint32_t tx = xOf(toTile), ty = yOf(toTile);
    while (x != tx || y != ty) {
        std::uint32_t tile = y * params_.cols + x;
        std::uint32_t dir;
        if (x < tx) { dir = 0; x++; }        // east
        else if (x > tx) { dir = 1; x--; }   // west
        else if (y < ty) { dir = 2; y++; }   // south
        else { dir = 3; y--; }               // north

        Tick &busy = linkBusyUntil_[linkIndex(tile, dir)];
        Tick grant = std::max(now, busy);
        linkWaitCycles_ += grant - now;
        busy = grant + std::max<Tick>(1, flits);
        now = grant + params_.routerDelay + params_.linkDelay;
    }
    JUMANJI_ASSERT(now >= start,
                   "contended traversal finished before it started");
    return now;
}

Tick
MeshTopology::roundTrip(std::uint32_t coreTile, std::uint32_t bankTile) const
{
    return 2 * traversalLatency(hops(coreTile, bankTile));
}

std::uint32_t
MeshTopology::tileAt(std::uint32_t x, std::uint32_t y) const
{
    return std::min(y, params_.rows - 1) * params_.cols +
           std::min(x, params_.cols - 1);
}

std::vector<std::uint32_t>
MeshTopology::tilesByDistance(std::uint32_t fromTile) const
{
    std::vector<std::uint32_t> tiles(numTiles());
    for (std::uint32_t t = 0; t < numTiles(); t++) tiles[t] = t;
    std::stable_sort(tiles.begin(), tiles.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         std::uint32_t ha = hops(fromTile, a);
                         std::uint32_t hb = hops(fromTile, b);
                         if (ha != hb) return ha < hb;
                         return a < b;
                     });
    return tiles;
}

} // namespace jumanji
