/**
 * @file
 * A resource calendar: models a per-cycle-width-limited structural
 * resource (issue ports, functional units, commit bandwidth) for the
 * forward-only timing calculator. Reservations always move forward
 * in time, so the calendar is a sliding ring buffer.
 */

#ifndef CHEX_CPU_RESOURCE_HH
#define CHEX_CPU_RESOURCE_HH

#include <cstdint>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"

namespace chex
{

/** Sliding-window per-cycle slot reservation. */
class ResourceCalendar
{
  public:
    /**
     * @param width Slots available per cycle.
     * @param horizon Ring size in cycles; reservations further than
     *        this past the frontier trigger a slide.
     */
    explicit ResourceCalendar(unsigned width, unsigned horizon = 1024)
        : _width(width), used(horizon, 0)
    {
        chex_assert(width > 0 && horizon > 0, "bad calendar");
        // cycle % horizon == cycle & (horizon - 1) for power-of-two
        // horizons; index() runs several times per micro-op, so skip
        // the divide when the geometry allows (it always does with
        // the default horizon).
        if ((horizon & (horizon - 1)) == 0)
            _mask = horizon - 1;
    }

    /**
     * Reserve one slot at the earliest cycle >= @p earliest.
     * @return the reserved cycle.
     */
    uint64_t
    reserve(uint64_t earliest)
    {
        if (earliest < base)
            earliest = base;
        slideTo(earliest);
        uint64_t cycle = earliest;
        while (used[index(cycle)] >= _width) {
            ++cycle;
            slideTo(cycle);
        }
        ++used[index(cycle)];
        return cycle;
    }

    unsigned width() const { return _width; }

    void
    reset()
    {
        std::fill(used.begin(), used.end(), 0);
        base = 0;
    }

    /** @{ @name Snapshot serialization (chex-snapshot-v1) */
    template <class Self, class F>
    static void
    fields(Self &self, F &f)
    {
        f("base", self.base);
        f("used", json::Base64{self.used});
    }
    json::Value saveState() const { return json::write(*this); }
    /** Leaves the calendar unchanged when @p v is refused. */
    bool
    restoreState(const json::Value &v, std::string *err = nullptr)
    {
        return json::readOrKeep(v, *this, err);
    }
    /** @} */

  private:
    size_t
    index(uint64_t cycle) const
    {
        return _mask ? (cycle & _mask) : (cycle % used.size());
    }

    void
    slideTo(uint64_t cycle)
    {
        // Clear slots that fall out of the window as time advances.
        if (cycle < base + used.size())
            return;
        uint64_t new_base = cycle - used.size() + 1;
        for (uint64_t c = base; c < new_base; ++c)
            used[index(c)] = 0;
        base = new_base;
    }

    unsigned _width;
    uint64_t _mask = 0; // horizon-1 when horizon is a power of two
    std::vector<uint8_t> used;
    uint64_t base = 0;
};

/**
 * A sliding history of per-entry cycles used to model a finite
 * in-order-allocated structure (ROB, IQ, LQ, SQ): entry i is freed
 * when record(i - capacity) releases; dispatch must wait for it.
 */
class OccupancyWindow
{
  public:
    explicit OccupancyWindow(unsigned capacity)
        : cap(capacity), releaseCycles(capacity, 0)
    {
        chex_assert(capacity > 0, "bad occupancy window");
    }

    /**
     * Allocate the next entry; returns the earliest cycle at which a
     * slot is free (the release cycle of the entry `capacity` ago).
     * Call release() afterwards with this entry's own release cycle.
     */
    uint64_t
    allocBound() const
    {
        return releaseCycles[headIdx];
    }

    /** Record the release cycle of the entry just allocated. */
    void
    push(uint64_t release_cycle)
    {
        // headIdx tracks head % cap incrementally: the capacities
        // (224/64/72/56/180/168) are not powers of two, and six of
        // these run per micro-op, so the wrapped counter replaces an
        // integer divide with a compare.
        releaseCycles[headIdx] = release_cycle;
        ++head;
        if (++headIdx == cap)
            headIdx = 0;
    }

    unsigned capacity() const { return cap; }

    void
    reset()
    {
        std::fill(releaseCycles.begin(), releaseCycles.end(), 0);
        head = 0;
        headIdx = 0;
    }

    /** @{ @name Snapshot serialization (chex-snapshot-v1)
     * The monotone allocation count and every release cycle; the
     * wrapped index is rebuilt from the count. */
    template <class Self, class F>
    static void
    fields(Self &self, F &f)
    {
        f("head", self.head);
        f("release", json::Sized{self.releaseCycles});
        if constexpr (F::reading)
            self.headIdx = static_cast<unsigned>(self.head % self.cap);
    }
    json::Value saveState() const { return json::write(*this); }
    /** Leaves the window unchanged when @p v is refused. */
    bool
    restoreState(const json::Value &v, std::string *err = nullptr)
    {
        return json::readOrKeep(v, *this, err);
    }
    /** @} */

  private:
    unsigned cap;
    std::vector<uint64_t> releaseCycles;
    uint64_t head = 0;    // monotone allocation count (serialized)
    unsigned headIdx = 0; // head % cap, maintained incrementally
};

} // namespace chex

#endif // CHEX_CPU_RESOURCE_HH
