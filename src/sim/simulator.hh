/**
 * @file
 * Trace-driven branch-prediction simulation, the paper's methodology
 * (Section 8.1.1): immediate update, misp/KI metric, tables initialized
 * weakly not-taken. The paper validated that immediate update differs
 * insignificantly from full-pipeline commit-time update for the
 * predictors studied, which is what makes this three-orders-of-magnitude
 * faster methodology sound.
 *
 * The simulator owns the information-vector machinery of Section 5: it
 * reconstructs fetch blocks, maintains conventional ghist, lghist (with
 * or without the path bit), the N-fetch-blocks-old delayed view, the
 * last-three-blocks path registers, and the bank-number recurrence --
 * then hands each predictor a BranchSnapshot with everything filled in.
 *
 * Every simulation goes through one entry point, simulateStreamFused():
 * N predictor lanes over one walk of a pre-decoded stream, exact or
 * sampled. simulateStream() and simulateTrace() are one-lane wrappers;
 * a one-lane walk runs the kernel's Single shape, a compile-time
 * specialization that calls predict()/update() directly instead of a
 * multi-lane group stepper (sim/kernel.hh).
 */

#ifndef EV8_SIM_SIMULATOR_HH
#define EV8_SIM_SIMULATOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "obs/timer.hh"
#include "predictors/predictor.hh"
#include "trace/trace.hh"

namespace ev8
{

class BlockStream;    // sim/block_stream.hh
class MetricRegistry; // obs/metrics.hh
class MispredictSink; // obs/event_trace.hh
struct SamplePlan;    // sim/phase/sample_plan.hh

/** Which history register feeds hist.indexHist (Fig. 7's axis). */
enum class HistoryMode
{
    Ghist,        //!< conventional per-branch global history
    LghistNoPath, //!< one bit per fetch block, outcome only
    LghistPath,   //!< one bit per fetch block, outcome XOR pc bit 4
};

/** Simulation configuration: the information-vector variant. */
struct SimConfig
{
    HistoryMode history = HistoryMode::Ghist;

    /**
     * How many fetch blocks old the index history is. 0 models an
     * ideal up-to-date register; 3 models the EV8 pipeline (Section
     * 5.1). Applies to the lghist modes; conventional ghist in the
     * paper is always up to date.
     */
    unsigned historyAge = 0;

    /** Drive the bank-number recurrence and fill BranchSnapshot::bank. */
    bool assignBanks = false;

    /**
     * Optional observability hooks. All default to detached; the
     * simulation loop only pays for them when they are set.
     */
    MetricRegistry *metrics = nullptr; //!< end-of-run counter dump
    MispredictSink *events = nullptr;  //!< sampled mispredict JSONL
    bool profileTiming = false;        //!< fill SimResult::timing

    /**
     * Skip the devirtualized kernel specializations and run the
     * generic (virtual-dispatch) instantiation even for known
     * predictor types. The specialized and generic paths share one
     * kernel template and must produce identical results; this flag
     * (or the EV8_GENERIC_KERNEL environment variable) exists so tests
     * and CI can prove it byte-for-byte.
     */
    bool forceGenericKernel = false;

    /** Preset: conventional global history ("ghist" rows of Fig. 7). */
    static SimConfig
    ghist()
    {
        return SimConfig{HistoryMode::Ghist, 0, false};
    }

    /** Preset: the full EV8 information vector (3-old lghist + path). */
    static SimConfig
    ev8()
    {
        return SimConfig{HistoryMode::LghistPath, 3, true};
    }
};

/**
 * Per-cell summary of a sampled (stratified) run. Inactive (all zeros)
 * for exact runs, so exact-mode artifacts are unchanged by presence of
 * the sampling layer.
 */
struct SampledCellInfo
{
    bool active = false;
    uint32_t phases = 0;            //!< phases in the trace's map
    uint64_t windowsTotal = 0;      //!< windows in the trace's map
    uint64_t windowsSimulated = 0;  //!< measured windows run
    uint64_t branchesSimulated = 0; //!< measured branches run
    uint64_t warmupBranches = 0;    //!< warmup budget per window
    double ci95MispKI = 0.0;        //!< stratified 95% CI half-width

    bool operator==(const SampledCellInfo &) const = default;
};

/** Result of one (trace, predictor, config) simulation. */
struct SimResult
{
    PredictionStats stats;       //!< prediction accuracy tallies
    uint64_t fetchBlocks = 0;    //!< fetch blocks reconstructed
    uint64_t lghistBits = 0;     //!< history bits inserted (Table 3)
    uint64_t condBranches = 0;   //!< conditional branches simulated

    /**
     * Sampled-mode summary. When active, `stats` carries the
     * whole-trace extrapolation (lookups = the full branch total,
     * mispredictions = the stratified estimate) while fetchBlocks /
     * lghistBits / condBranches / branchesPerBlock tally only the
     * measured windows.
     */
    SampledCellInfo sampled;

    /** Fetch blocks holding exactly k conditional branches (k = 0..8). */
    std::array<uint64_t, 9> branchesPerBlock{};

    /** Wall-clock split (populated only when SimConfig::profileTiming). */
    SimTiming timing;

    /** Table 3: average branches summarized per lghist bit. */
    double
    lghistRatio() const
    {
        return lghistBits == 0
            ? 0.0
            : static_cast<double>(condBranches)
                  / static_cast<double>(lghistBits);
    }
};

/**
 * Runs @p predictor over @p trace under @p config. The predictor is NOT
 * reset first (callers decide whether warm state is wanted; the bench
 * harness always uses a fresh instance per run). Decodes the trace's
 * fetch blocks on the fly; grid runners that revisit the same trace
 * should decode once and call simulateStream() instead.
 */
SimResult simulateTrace(const Trace &trace,
                        ConditionalBranchPredictor &predictor,
                        const SimConfig &config);

/**
 * Runs @p predictor over a pre-decoded block stream: the one-lane
 * simulateStreamFused() walk, with config.metrics and config.events as
 * the lane's sinks. Results, metrics and emitted events are identical
 * to simulateTrace() over the trace the stream was decoded from.
 */
SimResult simulateStream(const BlockStream &stream,
                         ConditionalBranchPredictor &predictor,
                         const SimConfig &config);

/** Most lanes one fused kernel walk will drive (SoA array bound). */
constexpr size_t kMaxFusedLanes = 64;

/**
 * One configuration lane of a fused multi-configuration run. The
 * shared walk state (histories, path registers, bank recurrence) comes
 * from the SimConfig passed to simulateStreamFused(); each lane brings
 * its own predictor and its own observability sinks.
 */
struct FusedLane
{
    ConditionalBranchPredictor *predictor = nullptr;
    MetricRegistry *metrics = nullptr; //!< per-lane sim.* counter dump
    MispredictSink *events = nullptr;  //!< per-lane mispredict events
};

/**
 * The simulation entry point: runs every lane predictor over @p stream
 * in ONE pass -- shared block decode, branch iteration and history
 * machinery, per-lane predictor work. All lanes observe the history
 * configuration of @p config (whose metrics/events members are ignored
 * -- sinks are per lane).
 *
 * Lanes are partitioned by concrete predictor type so each partition
 * runs the kernel devirtualized on that type (a mixed-type lane set
 * costs one stream walk per distinct type); unknown types, and every
 * lane under SimConfig::forceGenericKernel or EV8_GENERIC_KERNEL=1,
 * share one virtual-dispatch walk. A partition of one lane takes the
 * kernel's Single shape (sim/kernel.hh). Every lane's SimResult,
 * published metrics and emitted events are independent of how the
 * lanes were grouped.
 *
 * With @p plan set, only the plan's windows run (each primed by its
 * warmup prefix, stats gated off during warmup) and each lane's stats
 * are extrapolated per phase, with a stratified 95% confidence interval
 * in SimResult::sampled. Without it the walk is exact and
 * SimResult::sampled stays inactive.
 */
std::vector<SimResult> simulateStreamFused(
    const BlockStream &stream, const std::vector<FusedLane> &lanes,
    const SimConfig &config, const SamplePlan *plan = nullptr);

} // namespace ev8

#endif // EV8_SIM_SIMULATOR_HH
