/**
 * @file
 * Tests for fused multi-configuration simulation: the guarantee that a
 * fused walk -- one stream pass driving N predictor lanes -- produces
 * *exactly* what N independent one-lane walks produce, for any lane
 * mix and any lane cap (EV8_FUSED_LANES=1 is the per-cell grid), down
 * to the bytes of the merged metric registry and the sampled event
 * stream; that every one-lane walk matches the generic-kernel
 * reference in the exact, sampled, timed and event-emitting modes; and
 * that timed and event-emitting walks through the group steppers match
 * it too, at every lane count and SIMD backend.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "core/ev8_predictor.hh"
#include "obs/event_trace.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/timer.hh"
#include "predictors/bimodal.hh"
#include "predictors/factory.hh"
#include "predictors/gshare.hh"
#include "predictors/twobcgskew.hh"
#include "sim/block_stream.hh"
#include "serve/grids.hh"
#include "sim/cell_executor.hh"
#include "sim/experiment.hh"
#include "sim/phase/phase_map.hh"
#include "sim/phase/sample_plan.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"
#include "workloads/suite.hh"

#include "scoped_env.hh"

namespace ev8
{

/**
 * Names a SimConfig test parameter by its walk settings. Without it,
 * gtest prints the struct's raw bytes (pointers included), and the
 * discovered ctest names change from build to build.
 */
void
PrintTo(const SimConfig &config, std::ostream *os)
{
    *os << "history " << static_cast<int>(config.history) << " age "
        << config.historyAge << (config.assignBanks ? " banks" : "");
}

namespace
{

constexpr uint64_t kTinyScale = 3000;

/** A mixed-type lane set: every fused dispatch bucket is exercised. */
std::vector<std::string>
laneSpecs()
{
    return {
        "gshare:12:8",             // group-stepped, shared walk
        "gshare:12:12",            // second lane of the same bucket
        "bimodal:10",              // group-stepped, history-free
        "2bcgskew:12:0:13:14:15",  // group-stepped
        "egskew:12:10",            // FusedSteppable
        "yags:10:10:10",           // FusedSteppable
        "bimode:10:10:10",         // FusedSteppable
        "perceptron:10:16",        // generic (virtual) bucket
    };
}

/**
 * A directly built Ev8Predictor lane (the factory has no EV8 spec).
 * EV8 has no group stepper: its lanes take the plain
 * predict()/update() protocol.
 */
PredictorPtr
makeEv8(bool partial, WordlineMode mode = WordlineMode::Ev8)
{
    Ev8Config cfg;
    cfg.partialUpdate = partial;
    cfg.wordline = mode;
    return std::make_unique<Ev8Predictor>(cfg);
}

void
expectSameResult(const SimResult &fused, const SimResult &ref,
                 const std::string &label)
{
    EXPECT_EQ(fused.stats.lookups(), ref.stats.lookups()) << label;
    EXPECT_EQ(fused.stats.mispredictions(), ref.stats.mispredictions())
        << label;
    EXPECT_EQ(fused.stats.instructions(), ref.stats.instructions())
        << label;
    EXPECT_EQ(fused.fetchBlocks, ref.fetchBlocks) << label;
    EXPECT_EQ(fused.lghistBits, ref.lghistBits) << label;
    EXPECT_EQ(fused.condBranches, ref.condBranches) << label;
    EXPECT_EQ(fused.branchesPerBlock, ref.branchesPerBlock) << label;
}

class FusedKernelTest : public ::testing::TestWithParam<SimConfig>
{
};

/**
 * The core contract, checked at the simulateStreamFused() level: a
 * heterogeneous lane set over one stream equals lane-by-lane
 * simulateStream(), for the paper's history configurations.
 */
TEST_P(FusedKernelTest, MatchesPerLaneSimulation)
{
    const Trace trace =
        generateTrace(findBenchmark("gcc").profile, kTinyScale);
    const BlockStream stream = decodeBlockStream(trace);
    const SimConfig config = GetParam();

    std::vector<PredictorPtr> fused_preds, ref_preds;
    std::vector<std::string> labels;
    std::vector<FusedLane> lanes;
    for (const std::string &spec : laneSpecs()) {
        fused_preds.push_back(makePredictor(spec));
        ref_preds.push_back(makePredictor(spec));
        labels.push_back(spec);
    }
    for (const bool partial : {true, false}) {
        fused_preds.push_back(makeEv8(partial));
        ref_preds.push_back(makeEv8(partial));
        labels.push_back(partial ? "ev8-partial" : "ev8-total");
    }
    for (const PredictorPtr &pred : fused_preds)
        lanes.push_back({pred.get(), nullptr, nullptr});

    const auto fused = simulateStreamFused(stream, lanes, config);
    ASSERT_EQ(fused.size(), lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) {
        const SimResult ref =
            simulateStream(stream, *ref_preds[i], config);
        expectSameResult(fused[i], ref, labels[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    HistoryModes, FusedKernelTest,
    ::testing::Values(SimConfig::ghist(), SimConfig::ev8()),
    [](const ::testing::TestParamInfo<SimConfig> &info) {
        return info.param.history == HistoryMode::Ghist ? "ghist"
                                                        : "ev8";
    });

/** The observability modes a one-lane walk must agree in. */
enum class WalkMode
{
    Exact,
    Sampled,
    Timed,
    Events,
    TimedEvents, //!< both, as every --json --events run walks
};

/** What a one-lane walk produced, in comparable form. */
struct OneLaneRun
{
    SimResult result;
    std::string metricsJson; //!< empty in timed mode (wall-clock ns)
    std::string eventsJsonl;
};

/**
 * Runs @p spec as a one-lane walk, or with @p paired as lane 0 of a
 * two-lane walk beside a sink-less twin (a multi-lane shape).
 */
OneLaneRun
runOneLane(const BlockStream &stream, const std::string &spec,
           SimConfig config, WalkMode mode, const SamplePlan &plan,
           bool paired = false)
{
    PredictorPtr pred = makePredictor(spec);
    PredictorPtr twin = makePredictor(spec);
    MetricRegistry metrics;
    std::ostringstream events;
    EventTraceSink sink(events, 1);
    config.profileTiming = mode == WalkMode::Timed;
    FusedLane lane{pred.get(), nullptr, nullptr};
    if (mode != WalkMode::Timed)
        lane.metrics = &metrics;
    if (mode == WalkMode::Events)
        lane.events = &sink;
    std::vector<FusedLane> lanes{lane};
    if (paired)
        lanes.push_back({twin.get(), nullptr, nullptr});
    OneLaneRun run;
    run.result = simulateStreamFused(
                     stream, lanes, config,
                     mode == WalkMode::Sampled ? &plan : nullptr)
                     .front();
    if (lane.metrics) {
        std::ostringstream json;
        writeRegistryJson(json, metrics);
        run.metricsJson = json.str();
    }
    run.eventsJsonl = events.str();
    return run;
}

void
expectSameOneLaneRun(const OneLaneRun &run, const OneLaneRun &ref,
                     const std::string &label)
{
    expectSameResult(run.result, ref.result, label);
    EXPECT_EQ(run.result.sampled, ref.result.sampled) << label;
    EXPECT_EQ(run.result.timing.lookup.calls,
              ref.result.timing.lookup.calls)
        << label;
    EXPECT_EQ(run.result.timing.update.calls,
              ref.result.timing.update.calls)
        << label;
    EXPECT_EQ(run.result.timing.history.calls,
              ref.result.timing.history.calls)
        << label;
    EXPECT_EQ(run.metricsJson, ref.metricsJson) << label;
    EXPECT_EQ(run.eventsJsonl, ref.eventsJsonl) << label;
}

/**
 * Every predictor bucket as a one-lane walk (the kernel's Single shape)
 * in the exact, sampled, timed and event-emitting modes, under both
 * history configurations: the devirtualized walk must agree with the
 * forced-generic reference, and with the same lane walked beside a
 * twin (a multi-lane shape), on results, sampled estimates, timing
 * call counts, published metrics and every emitted event.
 */
TEST(FusedKernel, SingleLaneMatchesSimulateStream)
{
    const BlockStream stream = decodeBlockStream(
        generateTrace(findBenchmark("gcc").profile, 20000));
    SampleSpec spec;
    spec.active = true;
    spec.windowBranches = 1024;
    spec.warmupBranches = 1024;
    spec.maxPhases = 8;
    const SamplePlan plan = buildSamplePlan(
        buildPhaseMap(stream, spec.windowBranches, spec.maxPhases), spec,
        4096);
    ASSERT_GT(plan.windows.size(), 1u);

    for (const SimConfig &base : {SimConfig::ghist(), SimConfig::ev8()}) {
        for (const WalkMode mode : {WalkMode::Exact, WalkMode::Sampled,
                                    WalkMode::Timed, WalkMode::Events}) {
            for (const std::string &lane_spec : laneSpecs()) {
                const std::string label = lane_spec + " mode "
                    + std::to_string(static_cast<int>(mode)) + " "
                    + (base.assignBanks ? "ev8" : "ghist");
                SimConfig generic = base;
                generic.forceGenericKernel = true;
                const OneLaneRun run =
                    runOneLane(stream, lane_spec, base, mode, plan);
                expectSameOneLaneRun(
                    run, runOneLane(stream, lane_spec, generic, mode, plan),
                    label + " vs generic");
                expectSameOneLaneRun(
                    run,
                    runOneLane(stream, lane_spec, base, mode, plan,
                               /*paired=*/true),
                    label + " vs paired");
                EXPECT_EQ(run.result.sampled.active,
                          mode == WalkMode::Sampled)
                    << label;
                if (mode == WalkMode::Timed) {
                    EXPECT_EQ(run.result.timing.lookup.calls,
                              run.result.condBranches)
                        << label;
                }
                if (mode == WalkMode::Events) {
                    EXPECT_FALSE(run.eventsJsonl.empty()) << label;
                }
            }
        }
    }
}

/** Builds lane @p l of a same-family multi-lane walk. */
using LaneFactory = std::function<PredictorPtr(size_t)>;

/**
 * The group-stepped families, each with per-lane geometry so that the
 * lanes of one walk differ: 2Bc-gskew under both update policies (odd
 * lanes hash the path registers too), gshare and bimodal. EV8 under
 * both update policies rides along (odd lanes take the address-only
 * wordline): it has no group stepper, so its observed walks take the
 * plain predict()/update() protocol with its storage tallies on.
 */
std::vector<std::pair<std::string, LaneFactory>>
groupFamilies()
{
    const auto ev8 = [](bool partial) {
        return [partial](size_t l) {
            return makeEv8(partial, l % 2 == 1 ? WordlineMode::AddressOnly
                                               : WordlineMode::Ev8);
        };
    };
    const auto gskew = [](bool partial) {
        return [partial](size_t l) -> PredictorPtr {
            const unsigned h = static_cast<unsigned>(l);
            TwoBcGskewConfig cfg = TwoBcGskewConfig::symmetric(
                10 + h % 3, 0, 4 + h, 6 + h, 9 + 2 * h, "gskew");
            cfg.partialUpdate = partial;
            cfg.usePathInfo = l % 2 == 1;
            return std::make_unique<TwoBcGskewPredictor>(cfg);
        };
    };
    return {
        {"2bcgskew-partial", gskew(true)},
        {"2bcgskew-total", gskew(false)},
        {"gshare",
         [](size_t l) -> PredictorPtr {
             const unsigned h = static_cast<unsigned>(l);
             return std::make_unique<GsharePredictor>(10 + h % 3,
                                                      4 + 2 * h);
         }},
        {"bimodal",
         [](size_t l) -> PredictorPtr {
             return std::make_unique<BimodalPredictor>(
                 8 + static_cast<unsigned>(l));
         }},
        {"ev8-partial", ev8(true)},
        {"ev8-total", ev8(false)},
    };
}

/** Zeroes the wall-clock sim.time.* nanosecond metrics of a registry. */
std::string
maskTimingNs(const std::string &json)
{
    static const std::regex ns(
        R"(("sim\.time\.[a-z]+\.ns(_per_call)?":\s*)[-0-9.eE+]+)");
    return std::regex_replace(json, ns, "${1}0");
}

/** Per-lane artifacts of one multi-lane walk. */
struct MultiLaneRun
{
    std::vector<SimResult> results;
    std::vector<std::string> metricsJson;
    std::vector<std::string> eventsJsonl;
};

MultiLaneRun
runLanes(const BlockStream &stream, const LaneFactory &make,
         size_t nlanes, SimConfig config, WalkMode mode)
{
    std::vector<PredictorPtr> preds;
    std::vector<std::unique_ptr<MetricRegistry>> regs;
    std::vector<std::ostringstream> events(nlanes);
    std::vector<std::unique_ptr<EventTraceSink>> sinks;
    std::vector<FusedLane> lanes;
    const bool with_events =
        mode == WalkMode::Events || mode == WalkMode::TimedEvents;
    for (size_t l = 0; l < nlanes; ++l) {
        preds.push_back(make(l));
        regs.push_back(std::make_unique<MetricRegistry>());
        sinks.push_back(std::make_unique<EventTraceSink>(events[l], 1));
        lanes.push_back({preds.back().get(), regs.back().get(),
                         with_events ? sinks.back().get() : nullptr});
    }
    config.profileTiming =
        mode == WalkMode::Timed || mode == WalkMode::TimedEvents;
    MultiLaneRun run;
    run.results = simulateStreamFused(stream, lanes, config);
    for (size_t l = 0; l < nlanes; ++l) {
        std::ostringstream json;
        writeRegistryJson(json, *regs[l]);
        run.metricsJson.push_back(maskTimingNs(json.str()));
        run.eventsJsonl.push_back(events[l].str());
    }
    return run;
}

/**
 * Observed walks ride the group steppers: timed, event-emitting and
 * timed event-emitting walks of 1, 3, 4, 5 and 8 same-family lanes, on
 * every SIMD backend, emit exactly the events (votes included) and
 * metrics of the forced-generic per-lane walk. The last mode is the one
 * where timed blocks (per-lane predict/update) and the vector steppers'
 * vote write-back alternate within one event walk; its events must
 * equal the untimed walk's. Timing keeps exact call counts and measures
 * something on a stream that has timed blocks.
 */
TEST(FusedKernel, ObservedGroupWalksMatchGenericWalk)
{
    const BlockStream stream = decodeBlockStream(
        generateTrace(findBenchmark("gcc").profile, 8000));
    ASSERT_GT(stream.blocks(), kTimingSamplePeriod);

    std::vector<const char *> backends{"0"};
    if (simd::builtWithAvx2() && simd::cpuHasAvx2())
        backends.push_back("avx2");
    for (const char *backend : backends) {
        ScopedEnv simd_env("EV8_SIMD", backend);
        for (const SimConfig &base :
             {SimConfig::ghist(), SimConfig::ev8()}) {
            SimConfig generic = base;
            generic.forceGenericKernel = true;
            for (const auto &[family, make] : groupFamilies()) {
                for (const size_t nlanes : {1, 3, 4, 5, 8}) {
                    for (const WalkMode mode :
                         {WalkMode::Timed, WalkMode::Events,
                          WalkMode::TimedEvents}) {
                        const bool timed = mode != WalkMode::Events;
                        const bool with_events = mode != WalkMode::Timed;
                        const std::string label = family + " x"
                            + std::to_string(nlanes) + " simd="
                            + backend + (timed ? " timed" : "")
                            + (with_events ? " events" : "")
                            + (base.assignBanks ? " ev8" : " ghist");
                        const MultiLaneRun run =
                            runLanes(stream, make, nlanes, base, mode);
                        const MultiLaneRun ref = runLanes(
                            stream, make, nlanes, generic, mode);
                        // Events must not depend on timing: a timed
                        // event walk emits what the untimed generic
                        // walk does, sampled blocks included.
                        const MultiLaneRun untimed =
                            mode == WalkMode::TimedEvents
                            ? runLanes(stream, make, nlanes, generic,
                                       WalkMode::Events)
                            : ref;
                        for (size_t l = 0; l < nlanes; ++l) {
                            const std::string lane =
                                label + " lane " + std::to_string(l);
                            const SimResult &r = run.results[l];
                            expectSameResult(r, ref.results[l], lane);
                            EXPECT_EQ(run.metricsJson[l],
                                      ref.metricsJson[l])
                                << lane;
                            EXPECT_EQ(run.eventsJsonl[l],
                                      untimed.eventsJsonl[l])
                                << lane;
                            if (with_events) {
                                EXPECT_FALSE(run.eventsJsonl[l].empty())
                                    << lane;
                            }
                            if (!timed)
                                continue;
                            EXPECT_EQ(r.timing.lookup.calls,
                                      r.condBranches)
                                << lane;
                            EXPECT_EQ(r.timing.update.calls,
                                      r.condBranches)
                                << lane;
                            EXPECT_EQ(r.timing.history.calls,
                                      r.fetchBlocks)
                                << lane;
                            EXPECT_GT(r.timing.lookup.ns, 0u) << lane;
                            EXPECT_GT(r.timing.update.ns, 0u) << lane;
                            EXPECT_GT(r.timing.history.ns, 0u) << lane;
                        }
                    }
                }
            }
        }
    }
}

/** Per-lane metric sinks match what simulateStream publishes. */
TEST(FusedKernel, PerLaneMetricsMatchPerCellMetrics)
{
    const Trace trace =
        generateTrace(findBenchmark("gcc").profile, kTinyScale);
    const BlockStream stream = decodeBlockStream(trace);
    SimConfig config = SimConfig::ev8();

    std::vector<PredictorPtr> preds;
    std::vector<std::unique_ptr<MetricRegistry>> regs;
    std::vector<FusedLane> lanes;
    for (const std::string &spec : {std::string("2bcgskew:12:0:13:14:15"),
                                    std::string("gshare:12:12")}) {
        preds.push_back(makePredictor(spec));
        regs.push_back(std::make_unique<MetricRegistry>());
        lanes.push_back({preds.back().get(), regs.back().get(), nullptr});
    }
    simulateStreamFused(stream, lanes, config);

    for (size_t i = 0; i < lanes.size(); ++i) {
        auto ref_pred = makePredictor(
            i == 0 ? "2bcgskew:12:0:13:14:15" : "gshare:12:12");
        MetricRegistry ref_reg;
        SimConfig ref_config = config;
        ref_config.metrics = &ref_reg;
        simulateStream(stream, *ref_pred, ref_config);

        std::ostringstream fused_json, ref_json;
        writeRegistryJson(fused_json, *regs[i]);
        writeRegistryJson(ref_json, ref_reg);
        EXPECT_EQ(fused_json.str(), ref_json.str()) << "lane " << i;
    }
}

/** One full observed grid run: merged metrics JSON + events JSONL. */
struct ObservedGrid
{
    std::vector<std::vector<BenchResult>> results;
    std::string metricsJson;
    std::string eventsJsonl;
};

ObservedGrid
observedGrid(unsigned jobs)
{
    SuiteRunner runner(kTinyScale, jobs);
    MetricRegistry metrics;
    std::ostringstream events;
    EventTraceSink sink(events, 8);

    std::vector<GridRow> rows;
    for (const std::string &spec : laneSpecs()) {
        GridRow row;
        row.factory = [spec] { return makePredictor(spec); };
        row.config = SimConfig::ghist();
        row.config.metrics = &metrics;
        row.config.events = &sink;
        rows.push_back(std::move(row));
    }
    ObservedGrid run;
    run.results = runner.runGrid(rows).results;
    std::ostringstream metrics_json;
    writeRegistryJson(metrics_json, metrics);
    run.metricsJson = metrics_json.str();
    run.eventsJsonl = events.str();
    EXPECT_GT(sink.emitted(), 0u);
    return run;
}

void
expectSameGrid(const ObservedGrid &a, const ObservedGrid &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t r = 0; r < a.results.size(); ++r) {
        ASSERT_EQ(a.results[r].size(), b.results[r].size());
        for (size_t i = 0; i < a.results[r].size(); ++i) {
            EXPECT_EQ(a.results[r][i].bench, b.results[r][i].bench);
            expectSameResult(a.results[r][i].sim, b.results[r][i].sim,
                             a.results[r][i].bench);
        }
    }
    EXPECT_EQ(a.metricsJson, b.metricsJson);
    EXPECT_EQ(a.eventsJsonl, b.eventsJsonl);
}

/**
 * The engine-level guarantee: the default lane cap and
 * EV8_FUSED_LANES=1 (every cell its own one-lane walk) produce
 * byte-identical merged registries and event streams, serial and
 * parallel.
 */
TEST(FusedEngine, FusedGridIsByteIdenticalToPerCellGrid)
{
    ObservedGrid fused_j1, fused_j4, percell_j1, percell_j4;
    {
        ScopedEnv env("EV8_FUSED_LANES", nullptr);
        fused_j1 = observedGrid(1);
        fused_j4 = observedGrid(4);
    }
    {
        ScopedEnv env("EV8_FUSED_LANES", "1");
        percell_j1 = observedGrid(1);
        percell_j4 = observedGrid(4);
    }
    expectSameGrid(fused_j1, percell_j1);
    expectSameGrid(fused_j4, percell_j1);
    expectSameGrid(percell_j4, percell_j1);
}

/** And the lane cap is invisible: 1, 2 or 8 lanes per fused job. */
TEST(FusedEngine, LaneWidthDoesNotChangeAnyByte)
{
    ObservedGrid reference;
    {
        ScopedEnv lanes("EV8_FUSED_LANES", nullptr);
        reference = observedGrid(1);
    }
    for (const char *cap : {"1", "2", "8"}) {
        ScopedEnv lanes("EV8_FUSED_LANES", cap);
        ObservedGrid capped = observedGrid(1);
        expectSameGrid(capped, reference);
    }
}

/**
 * The SIMD dispatch contract (ISSUE 8): sweeping the vector backend
 * (EV8_SIMD), the lane cap and the worker count changes no byte of the
 * grid results, the merged metric registry or the sampled event
 * stream. The reference is the scalar per-lane steppers at the default
 * lane width; "avx2" joins the sweep when the build and CPU allow it.
 */
TEST(FusedEngine, SimdBackendLaneCapJobsDoNotChangeAnyByte)
{
    ObservedGrid reference;
    {
        ScopedEnv simd_env("EV8_SIMD", "0");
        ScopedEnv lanes("EV8_FUSED_LANES", nullptr);
        reference = observedGrid(1);
    }
    std::vector<const char *> backends{"0"};
    if (simd::builtWithAvx2() && simd::cpuHasAvx2())
        backends.push_back("avx2");
    for (const char *backend : backends) {
        ScopedEnv simd_env("EV8_SIMD", backend);
        for (const char *cap : {"1", "3", "8", "16", "64"}) {
            ScopedEnv lanes("EV8_FUSED_LANES", cap);
            for (const unsigned jobs : {1u, 4u}) {
                const ObservedGrid run = observedGrid(jobs);
                expectSameGrid(run, reference);
            }
        }
    }
}

/** The forced-generic kernel path fuses identically too. */
TEST(FusedEngine, GenericKernelGridMatchesDevirtualizedGrid)
{
    const ObservedGrid devirt = observedGrid(1);
    ScopedEnv generic("EV8_GENERIC_KERNEL", "1");
    const ObservedGrid forced = observedGrid(1);
    expectSameGrid(forced, devirt);
}

/**
 * One planner for batch and serve: for every registry grid, the groups
 * planFuseGroups() makes over the whole batch grid, restricted to one
 * benchmark, are exactly the groups it makes over a served session's
 * cells for that benchmark, at any lane cap.
 */
TEST(FusedEngine, PlannerGroupsBatchAndServedCellsAlike)
{
    const size_t nbench = specint95Suite().size();
    ASSERT_FALSE(knownGrids().empty());
    for (const std::string &id : knownGrids()) {
        const GridSpec &grid = *findGrid(id);
        const std::vector<GridRow> rows =
            buildGridRows(grid, baseConfig(grid));
        std::vector<CellRequest> reqs(rows.size() * nbench);
        std::vector<size_t> all(reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i) {
            reqs[i].profile = &specint95Suite()[i % nbench].profile;
            reqs[i].config = rows[i / nbench].config;
            all[i] = i;
        }
        for (const size_t cap : {kMaxFusedLanes, size_t{2}, size_t{1}}) {
            const auto batch = planFuseGroups(all, reqs, cap);
            for (size_t b = 0; b < nbench; ++b) {
                std::vector<size_t> bench_cells;
                for (size_t r = 0; r < rows.size(); ++r)
                    bench_cells.push_back(r * nbench + b);
                std::vector<std::vector<size_t>> batch_b;
                for (const auto &group : batch) {
                    if (group.front() % nbench == b)
                        batch_b.push_back(group);
                }
                EXPECT_EQ(planFuseGroups(bench_cells, reqs, cap), batch_b)
                    << id << " cap " << cap << " bench " << b;
            }
        }
    }
}

} // namespace
} // namespace ev8
