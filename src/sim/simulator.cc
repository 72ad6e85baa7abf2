#include "sim/simulator.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "common/env.hh"
#include "core/ev8_predictor.hh"
#include "frontend/bank_scheduler.hh"
#include "obs/metrics.hh"
#include "predictors/bimodal.hh"
#include "predictors/bimode.hh"
#include "predictors/egskew.hh"
#include "predictors/gshare.hh"
#include "predictors/twobcgskew.hh"
#include "predictors/yags.hh"
#include "sim/block_stream.hh"
#include "sim/kernel.hh"
#include "sim/phase/sample_plan.hh"

namespace ev8
{

namespace
{

/** End-of-run dump of the simulator-level tallies into the registry. */
void
publishSimMetrics(MetricRegistry &registry, const SimResult &result,
                  const SimConfig &config, const BankScheduler &banks)
{
    registry.counter("sim.fetch_blocks").inc(result.fetchBlocks);
    registry.counter("sim.cond_branches").inc(result.condBranches);
    registry.counter("sim.mispredicts")
        .inc(result.stats.mispredictions());
    registry.counter("lghist.bits_inserted").inc(result.lghistBits);

    auto &hist = registry.histogram(
        "sim.branches_per_block", {0, 1, 2, 3, 4, 5, 6, 7, 8});
    for (unsigned k = 0; k < result.branchesPerBlock.size(); ++k)
        hist.observe(k, result.branchesPerBlock[k]);

    if (config.assignBanks)
        banks.publishMetrics(registry, "frontend.banks");

    if (config.profileTiming) {
        auto publish = [&](const char *phase, const TimingStat &t) {
            const std::string p = std::string("sim.time.") + phase;
            registry.counter(p + ".calls").inc(t.calls);
            registry.counter(p + ".ns").inc(t.ns);
            registry.gauge(p + ".ns_per_call").set(t.nsPerCall());
        };
        publish("lookup", result.timing.lookup);
        publish("update", result.timing.update);
        publish("history", result.timing.history);
    }
}

/**
 * Escape hatch for A/B-testing the devirtualized kernel against the
 * generic instantiation (the determinism gate in CI sets this).
 * Strictly parsed: only "0"/"1" are accepted (exit 2 otherwise).
 */
bool
genericKernelForced()
{
    return strictEnvBool("EV8_GENERIC_KERNEL", false);
}

/**
 * Turns the measured-window tallies of a sampled walk into the
 * whole-trace estimate (stratified by phase).
 *
 * Each phase's misprediction *rate* (mispredictions per instruction)
 * is pooled over its measured windows and scaled by the phase's
 * whole-trace instruction total; a phase the plan could not afford a
 * window for falls back to the overall measured rate. The 95%
 * confidence half-width follows the standard stratified estimator:
 * per-phase sample variance of the window rates, weighted by the
 * squared phase instruction total over the window count. Everything
 * iterates in deterministic (phase, window) order so the extrapolated
 * artifact bytes are stable across --jobs and lane packing.
 */
void
finalizeSampledResult(SimResult &result, const SamplePlan &plan,
                      const std::vector<detail::SampledWindowTally>
                          &tallies)
{
    struct PhaseAcc
    {
        uint64_t misp = 0;
        uint64_t instrs = 0;
        std::vector<double> rates; //!< per-window misp per instr
    };
    std::vector<PhaseAcc> acc(plan.phases);
    uint64_t misp_measured = 0;
    uint64_t instrs_measured = 0;
    uint64_t branches_measured = 0;
    for (const detail::SampledWindowTally &t : tallies) {
        PhaseAcc &a = acc[t.phaseId];
        a.misp += t.mispredictions;
        a.instrs += t.instrs;
        a.rates.push_back(t.instrs == 0
                              ? 0.0
                              : static_cast<double>(t.mispredictions)
                                    / static_cast<double>(t.instrs));
        misp_measured += t.mispredictions;
        instrs_measured += t.instrs;
        branches_measured += t.branches;
    }
    const double overall_rate = instrs_measured == 0
        ? 0.0
        : static_cast<double>(misp_measured)
            / static_cast<double>(instrs_measured);

    double est_misp = 0.0;
    double variance = 0.0;
    for (uint32_t p = 0; p < plan.phases; ++p) {
        const PhaseAcc &a = acc[p];
        const double phase_instrs =
            static_cast<double>(plan.totals[p].instrs);
        const double rate = a.instrs == 0
            ? overall_rate
            : static_cast<double>(a.misp)
                / static_cast<double>(a.instrs);
        est_misp += rate * phase_instrs;
        const size_t n = a.rates.size();
        if (n >= 2) {
            double mean = 0.0;
            for (double r : a.rates)
                mean += r;
            mean /= static_cast<double>(n);
            double s2 = 0.0;
            for (double r : a.rates)
                s2 += (r - mean) * (r - mean);
            s2 /= static_cast<double>(n - 1);
            variance += phase_instrs * phase_instrs * s2
                / static_cast<double>(n);
        }
    }

    result.stats = PredictionStats{};
    result.stats.tally(
        plan.totalBranches,
        static_cast<uint64_t>(std::llround(std::max(est_misp, 0.0))));
    result.stats.setInstructions(plan.totalInstructions);

    result.sampled.active = true;
    result.sampled.phases = plan.phases;
    result.sampled.windowsTotal = plan.windowsTotal;
    result.sampled.windowsSimulated = tallies.size();
    result.sampled.branchesSimulated = branches_measured;
    result.sampled.warmupBranches = plan.warmupBranches;
    result.sampled.ci95MispKI = plan.totalInstructions == 0
        ? 0.0
        : 1.96 * std::sqrt(variance)
            / static_cast<double>(plan.totalInstructions) * 1000.0;
}

} // namespace

SimResult
simulateStream(const BlockStream &stream,
               ConditionalBranchPredictor &predictor,
               const SimConfig &config)
{
    return simulateStreamFused(
               stream, {{&predictor, config.metrics, config.events}},
               config)
        .front();
}

SimResult
simulateTrace(const Trace &trace, ConditionalBranchPredictor &predictor,
              const SimConfig &config)
{
    return simulateStream(decodeBlockStream(trace), predictor, config);
}

std::vector<SimResult>
simulateStreamFused(const BlockStream &stream,
                    const std::vector<FusedLane> &lanes,
                    const SimConfig &config, const SamplePlan *plan)
{
    const size_t n = lanes.size();
    std::vector<SimResult> results(n);
    if (n == 0)
        return results;

    // Internal predictor tallies only matter when they will be
    // published; leave them off otherwise so uninstrumented runs pay
    // nothing on the per-branch path.
    for (const FusedLane &lane : lanes)
        lane.predictor->enableStats(lane.metrics != nullptr);
    for (SimResult &r : results)
        r.stats.setInstructions(stream.instructions());

    // The exact walk is one window over the whole stream, no warmup.
    std::vector<SampledWindow> whole(1);
    whole[0].blockEnd = stream.blocks();
    const std::vector<SampledWindow> &windows =
        plan ? plan->windows : whole;

    // Partition the lanes by concrete type so each partition runs the
    // kernel devirtualized. claimed[] keeps a lane in exactly one
    // partition; whatever no bucket claims takes the generic walk.
    std::vector<char> claimed(n, 0);

    // Bank assignment is a pure function of the block-address sequence,
    // so every partition's walk reproduces the same scheduler state;
    // the first finished walk's copy serves all lanes' metrics.
    BankScheduler metrics_sched;
    bool have_sched = false;

    auto run_bucket = [&]<class P>(std::type_identity<P>) {
        std::vector<size_t> members;
        for (size_t i = 0; i < n; ++i) {
            if (claimed[i])
                continue;
            if constexpr (std::is_same_v<P, ConditionalBranchPredictor>) {
                members.push_back(i);
                claimed[i] = 1;
            } else if (dynamic_cast<P *>(lanes[i].predictor)) {
                members.push_back(i);
                claimed[i] = 1;
            }
        }
        // Chunk oversized partitions: each chunk is one extra stream
        // walk, still never more walks than lanes.
        for (size_t beg = 0; beg < members.size();
             beg += kMaxFusedLanes) {
            const size_t cnt =
                std::min(kMaxFusedLanes, members.size() - beg);
            std::array<detail::FusedLaneState<P>, kMaxFusedLanes> state;
            for (size_t k = 0; k < cnt; ++k) {
                const size_t i = members[beg + k];
                state[k].predictor =
                    static_cast<P *>(lanes[i].predictor);
                state[k].result = &results[i];
                state[k].events = lanes[i].events;
                state[k].statsWanted = lanes[i].metrics != nullptr;
            }
            BankScheduler sched;
            std::vector<std::vector<detail::SampledWindowTally>>
                tallies;
            detail::dispatchFusedKernel<P>(stream, state.data(), cnt,
                                           config, sched, windows,
                                           tallies);
            if (plan) {
                for (size_t k = 0; k < cnt; ++k) {
                    finalizeSampledResult(results[members[beg + k]],
                                          *plan, tallies[k]);
                }
            }
            if (!have_sched) {
                metrics_sched = sched;
                have_sched = true;
            }
        }
    };

    const bool generic =
        config.forceGenericKernel || genericKernelForced();
    if (!generic) {
        run_bucket(std::type_identity<TwoBcGskewPredictor>{});
        run_bucket(std::type_identity<GsharePredictor>{});
        run_bucket(std::type_identity<Ev8Predictor>{});
        run_bucket(std::type_identity<EgskewPredictor>{});
        run_bucket(std::type_identity<BimodalPredictor>{});
        run_bucket(std::type_identity<YagsPredictor>{});
        run_bucket(std::type_identity<BimodePredictor>{});
    }
    run_bucket(std::type_identity<ConditionalBranchPredictor>{});

    for (size_t i = 0; i < n; ++i) {
        if (lanes[i].metrics) {
            publishSimMetrics(*lanes[i].metrics, results[i], config,
                              metrics_sched);
        }
    }
    return results;
}

} // namespace ev8
