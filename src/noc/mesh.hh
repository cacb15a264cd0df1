/**
 * @file
 * Mesh network-on-chip model: X-Y dimension-ordered routing with
 * per-hop router and link delays (Table II: 2-cycle pipelined
 * routers, 1-cycle links, 128-bit flits).
 *
 * The model is latency-oriented: a traversal of h hops costs
 * h * (routerDelay + linkDelay) per direction. Contention on links is
 * secondary for the paper's results (bank ports dominate) and is
 * approximated by the router-delay sensitivity study (Fig. 18).
 */

#ifndef JUMANJI_NOC_MESH_HH
#define JUMANJI_NOC_MESH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/check.hh"
#include "src/sim/types.hh"

namespace jumanji {

class StatRegistry;

/** Mesh timing/geometry parameters. */
struct MeshParams
{
    std::uint32_t cols = 5;
    std::uint32_t rows = 4;
    /** Cycles per router traversal. */
    Tick routerDelay = 2;
    /** Cycles per link traversal. */
    Tick linkDelay = 1;
    /**
     * Model per-link occupancy (a message holds each link on its
     * X-Y route for `flits` cycles). Off by default: bank ports
     * dominate the paper's results, and the latency-only model is
     * much cheaper. The Fig. 11 harness enables it to reproduce the
     * paper's secondary elevations when the victim floods *other*
     * banks (its traffic congests links the attacker's route
     * shares).
     */
    bool modelLinkContention = false;
};

/** Flits in a data response message (64 B line / 16 B flit). */
constexpr std::uint32_t kDataFlits = 4;

/**
 * A col x row mesh of tiles. Tile t sits at (t % cols, t / cols);
 * core c and LLC bank b share tile index c == b in our floorplan.
 */
class MeshTopology
{
  public:
    explicit MeshTopology(const MeshParams &params);

    std::uint32_t numTiles() const { return params_.cols * params_.rows; }
    const MeshParams &params() const { return params_; }

    /**
     * Manhattan (X-Y route) hop count between two tiles. Inline: run
     * for every LLC access and every miss.
     */
    std::uint32_t
    hops(std::uint32_t fromTile, std::uint32_t toTile) const
    {
        JUMANJI_ASSERT(fromTile < numTiles() && toTile < numTiles(),
                       "tile index outside the mesh");
        const Coord a = coords_[fromTile];
        const Coord b = coords_[toTile];
        const std::uint32_t h = (a.x > b.x ? a.x - b.x : b.x - a.x) +
                                (a.y > b.y ? a.y - b.y : b.y - a.y);
        // Mesh-hop bound: an X-Y route is at most the mesh
        // semi-perimeter.
        JUMANJI_ASSERT(h <= params_.cols + params_.rows - 2,
                       "hop count exceeds the mesh semi-perimeter");
        return h;
    }

    /** One-way traversal latency for @p hopCount hops. */
    Tick
    traversalLatency(std::uint32_t hopCount) const
    {
        return static_cast<Tick>(hopCount) *
               (params_.routerDelay + params_.linkDelay);
    }

    /**
     * Round-trip latency core tile -> bank tile -> core tile.
     * Zero when the bank is local to the core's tile.
     */
    Tick roundTrip(std::uint32_t coreTile, std::uint32_t bankTile) const;

    /** Tile index nearest to the given (x, y); used for MC corners. */
    std::uint32_t tileAt(std::uint32_t x, std::uint32_t y) const;

    std::uint32_t xOf(std::uint32_t tile) const { return tile % params_.cols; }
    std::uint32_t yOf(std::uint32_t tile) const { return tile / params_.cols; }

    /**
     * All tiles sorted by distance from @p fromTile (ties broken by
     * tile id, so orders are deterministic). Used by the placers.
     */
    std::vector<std::uint32_t> tilesByDistance(std::uint32_t fromTile) const;

    /**
     * Timed traversal with link contention (X-Y route): each hop
     * waits for its directed link to free, then occupies it for
     * @p flits cycles. No-op extra delay when modelLinkContention is
     * off (returns start + traversalLatency).
     *
     * @param start Tick the message enters the network.
     * @return Arrival tick at @p toTile.
     */
    Tick traverse(Tick start, std::uint32_t fromTile,
                  std::uint32_t toTile, std::uint32_t flits);

    /** Total cycles spent waiting on busy links (contention stat). */
    std::uint64_t linkWaitCycles() const { return linkWaitCycles_; }

    /** Registers NoC stats under @p prefix ("noc."). */
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    /** Directed link index: 4 per tile (E, W, S, N). */
    std::size_t linkIndex(std::uint32_t tile, std::uint32_t dir) const
    {
        return static_cast<std::size_t>(tile) * 4 + dir;
    }

    /** A tile's column and row. */
    struct Coord
    {
        std::uint32_t x;
        std::uint32_t y;
    };

    MeshParams params_;
    /** coords_[t] = (xOf(t), yOf(t)), computed once. */
    std::vector<Coord> coords_;
    /** Busy-until per directed link (contention model). */
    std::vector<Tick> linkBusyUntil_;
    std::uint64_t linkWaitCycles_ = 0;
};

} // namespace jumanji

#endif // JUMANJI_NOC_MESH_HH
