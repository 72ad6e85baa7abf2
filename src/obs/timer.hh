/**
 * @file
 * Lightweight wall-clock profiling for the simulation hot paths: an
 * accumulating (calls, nanoseconds) pair per measured phase, and the
 * sampling helpers the kernel uses to fill them. When
 * SimConfig::profileTiming is set the kernel times predictor lookup,
 * predictor update and history maintenance on one fetch block in
 * kTimingSamplePeriod and extrapolates; every other block runs the
 * untimed fused steppers.
 */

#ifndef EV8_OBS_TIMER_HH
#define EV8_OBS_TIMER_HH

#include <chrono>
#include <cmath>
#include <cstdint>

namespace ev8
{

/** Accumulated time of one measured phase. */
struct TimingStat
{
    uint64_t calls = 0;
    uint64_t ns = 0;

    void
    add(uint64_t nanos)
    {
        ++calls;
        ns += nanos;
    }

    void
    merge(const TimingStat &other)
    {
        calls += other.calls;
        ns += other.ns;
    }

    double
    nsPerCall() const
    {
        return calls == 0
            ? 0.0
            : static_cast<double>(ns) / static_cast<double>(calls);
    }
};

/** The three phases the simulator distinguishes. */
struct SimTiming
{
    TimingStat lookup;  //!< ConditionalBranchPredictor::predict
    TimingStat update;  //!< ConditionalBranchPredictor::update
    TimingStat history; //!< lghist/delayed-view/path maintenance

    void
    merge(const SimTiming &other)
    {
        lookup.merge(other.lookup);
        update.merge(other.update);
        history.merge(other.history);
    }
};

/**
 * Timed kernel walks clock one fetch block in this many, chosen by
 * absolute block index (block 0, 64, 128, ...), so the sampled blocks
 * are the same for every run, lane grouping and worker count. Call
 * counts stay exact; measured nanoseconds are extrapolated to the
 * whole walk by the sampled fraction (extrapolateNs()).
 */
constexpr uint64_t kTimingSamplePeriod = 64;

/** Monotonic clock in nanoseconds (arbitrary epoch). */
inline uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Scales @p ns, measured over @p sampled of @p total units, to all
 * @p total units and splits the result @p share ways (the lanes that
 * shared one clock pair). Zero when nothing was sampled.
 */
inline uint64_t
extrapolateNs(uint64_t ns, uint64_t sampled, uint64_t total,
              uint64_t share = 1)
{
    if (sampled == 0)
        return 0;
    return static_cast<uint64_t>(std::llround(
        static_cast<double>(ns) * static_cast<double>(total)
        / (static_cast<double>(sampled) * static_cast<double>(share))));
}

} // namespace ev8

#endif // EV8_OBS_TIMER_HH
