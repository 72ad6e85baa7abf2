/**
 * @file
 * The simulation kernel: one range walker, one windowed runner and one
 * flag dispatcher, shared by every simulation in the repository.
 *
 * One walk of a pre-decoded BlockStream drives N predictor lanes that
 * share the history machinery. That sharing is sound because every
 * register the simulator maintains -- ghist, lghist, the delayed view,
 * the path registers and the bank recurrence -- evolves from trace
 * outcomes only, never from predictor output: lanes with the same
 * (history mode, history age, assignBanks) triple observe bit-identical
 * BranchSnapshots, and a lane consuming fewer history bits simply masks
 * the shared register down (a shorter history is a prefix of a longer
 * one). Per-lane work is laid out struct-of-arrays: a dense
 * predictor-pointer array and a dense mispredict-tally array, with the
 * per-branch snapshot built once per branch instead of once per lane.
 *
 * One template instantiation per (concrete predictor type, history
 * mode, timing, event sink, Single) combination, so that in the hot
 * loop predict()/update() are direct calls into the final predictor
 * class and the timing/event decisions compile out of the per-branch
 * path. The virtual fallback is the same template instantiated with
 * Predictor = ConditionalBranchPredictor, so specialized and generic
 * runs cannot drift apart.
 *
 * The Single shape is the one-lane walk (a per-cell simulation): the
 * dispatcher picks it when nlanes == 1, and it calls predict()/update()
 * on a hoisted predictor pointer with a local mispredict tally instead
 * of building a FusedGroup. Multi-lane walks step the lanes through the
 * strongest protocol the predictor class offers: a FusedGroup stepper,
 * then predictAndUpdate(), then plain predict()/update().
 *
 * The exact walk is the windowed runner over one window covering the
 * whole stream with no warmup; the sampled walk runs a SamplePlan's
 * windows. simulator.cc owns the dispatch; nothing else should include
 * this header.
 */

#ifndef EV8_SIM_KERNEL_HH
#define EV8_SIM_KERNEL_HH

#include <array>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "frontend/bank_scheduler.hh"
#include "frontend/lghist.hh"
#include "obs/event_trace.hh"
#include "obs/timer.hh"
#include "sim/block_stream.hh"
#include "sim/phase/sample_plan.hh"
#include "sim/simulator.hh"

namespace ev8
{
namespace detail
{

/**
 * The shared history machinery of one stream walk, kept outside the
 * range walker so a walk can span multiple [begin, end) block ranges:
 * a sampled walk runs a warmup range and a measured range (or several
 * contiguous windows) over one evolving state. The walker copies the
 * members into locals at entry and writes them back at exit, so the
 * hot loop keeps them in registers.
 */
struct KernelWalkState
{
    KernelWalkState(bool lghist_path, unsigned history_age)
        : lghist(lghist_path), delayed(history_age)
    {
    }

    HistoryRegister ghist;
    LghistTracker lghist;
    DelayedHistory delayed;
    /** Path registers: addresses of the last three fetch blocks. */
    uint64_t pathZ = 0, pathY = 0, pathX = 0;
};

/** Measured tallies of one sampled window (one lane's view). */
struct SampledWindowTally
{
    uint32_t phaseId = 0;
    uint64_t branches = 0;
    uint64_t instrs = 0;
    uint64_t mispredictions = 0;
};

/** Builds the sampled-trace record for one misprediction. */
inline MispredictEvent
makeMispredictEvent(uint64_t branch_seq, const BranchSnapshot &snap,
                    bool taken, bool predicted, const VoteSnapshot &votes)
{
    MispredictEvent ev;
    ev.branchSeq = branch_seq;
    ev.pc = snap.pc;
    ev.blockAddr = snap.blockAddr;
    ev.ghist = snap.hist.ghist;
    ev.indexHist = snap.hist.indexHist;
    ev.bank = snap.bank;
    ev.taken = taken;
    ev.predicted = predicted;
    ev.votesValid = votes.valid;
    ev.voteBim = votes.bim;
    ev.voteG0 = votes.g0;
    ev.voteG1 = votes.g1;
    ev.voteMeta = votes.meta;
    ev.voteMajority = votes.majority;
    return ev;
}

/**
 * Single-call lane entry point: predict and train in one step, letting
 * the predictor reuse lookup state (indices, votes) it would otherwise
 * recompute or re-cache between the two virtual calls.
 */
template <class P>
concept FusedSteppable = requires(P p, const BranchSnapshot &snap) {
    { p.predictAndUpdate(snap, true) } -> std::same_as<bool>;
};

/**
 * Group-stepped lane entry point, the strongest fusion contract: the
 * predictor class exposes a FusedGroup stepper that advances every lane
 * of a fused job in one call, sharing cross-lane index arithmetic that
 * the per-lane entry points cannot see (all lanes of a group observe
 * the same BranchSnapshot). Constructed once per walk, checked before
 * the per-lane entry points on the untimed, event-free fast path.
 */
template <class P>
concept FusedGroupStepped = requires(typename P::FusedGroup &group,
                                     const BranchSnapshot &snap,
                                     uint64_t *misp) {
    requires std::constructible_from<typename P::FusedGroup, P *const *,
                                     size_t>;
    { group.step(snap, true, misp) } -> std::same_as<void>;
};

/** One lane of a fused run: where its results and events go. */
template <class Predictor>
struct FusedLaneState
{
    Predictor *predictor = nullptr;
    SimResult *result = nullptr;
    MispredictSink *events = nullptr; //!< may be null per lane

    /**
     * Whether this lane's predictor wants internal stats on (metrics
     * attached). The windowed runner gates stats off for warmup ranges
     * and restores this afterwards.
     */
    bool statsWanted = false;
};

/**
 * Throwing lane-set validation for the windowed runner: a malformed
 * lane set must be a recoverable cell failure (caught, retried,
 * reported) in release builds too, not silent UB.
 */
template <class Predictor>
void
checkFusedLanes(const FusedLaneState<Predictor> *lanes, size_t nlanes)
{
    if (nlanes < 1 || nlanes > kMaxFusedLanes) {
        throw std::invalid_argument(
            "fused kernel lane count " + std::to_string(nlanes)
            + " outside [1, " + std::to_string(kMaxFusedLanes) + "]");
    }
    for (size_t l = 0; l < nlanes; ++l) {
        if (lanes[l].predictor == nullptr
            || lanes[l].result == nullptr) {
            throw std::invalid_argument(
                "fused kernel lane " + std::to_string(l)
                + " has a null predictor or result slot");
        }
    }
}

/**
 * The range walker: blocks [begin_block, end_block) of @p stream drive
 * @p nlanes predictor lanes under one shared history configuration.
 *
 * @tparam Predictor   concrete (final) predictor class, or
 *                     ConditionalBranchPredictor for the virtual
 *                     fallback path
 * @tparam LghistMode  config.history != HistoryMode::Ghist
 * @tparam Timed       config.profileTiming
 * @tparam HasEvents   some lane has an event sink (lanes with a null
 *                     sink skip emission)
 * @tparam Single      nlanes == 1
 *
 * Semantics: immediate update, per-branch ghist, per-block (aged)
 * lghist, the last-three-blocks path registers, and the bank-number
 * recurrence. The walk tallies (fetchBlocks, condBranches, lghistBits,
 * branchesPerBlock) are computed once and added into every lane's
 * result; the per-block history advance is timed once and merged into
 * every lane with the call count a one-lane walk records.
 */
template <class Predictor, bool LghistMode, bool Timed, bool HasEvents,
          bool Single>
void
runFusedStreamKernelRange(const BlockStream &stream,
                          FusedLaneState<Predictor> *lanes,
                          size_t nlanes, const SimConfig &config,
                          BankScheduler &bank_sched, size_t begin_block,
                          size_t end_block, KernelWalkState &walk,
                          uint64_t branch_seq_base)
{
    // SoA hot state: dense predictor pointers and mispredict tallies.
    // The Single shape fixes the lane count at compile time so every
    // lane loop below collapses to straight-line code.
    const size_t n = Single ? 1 : nlanes;
    Predictor *preds[kMaxFusedLanes];
    uint64_t misp[kMaxFusedLanes] = {};
    for (size_t l = 0; l < n; ++l)
        preds[l] = lanes[l].predictor;
    Predictor *const single = lanes[0].predictor;
    uint64_t single_misp = 0;

    // Group stepper, built once per walk; only the untimed, event-free
    // multi-lane instantiations of group-steppable predictors use it
    // (the observed paths need per-lane calls for timers and events).
    auto group = [&] {
        if constexpr (!(Timed || HasEvents || Single)
                      && FusedGroupStepped<Predictor>)
            return typename Predictor::FusedGroup(preds, n);
        else
            return 0;
    }();
    (void)group;

    const bool assign_banks = config.assignBanks;

    HistoryRegister ghist = walk.ghist;
    LghistTracker lghist = walk.lghist;
    DelayedHistory delayed = walk.delayed;
    uint64_t path_z = walk.pathZ, path_y = walk.pathY,
             path_x = walk.pathX;

    // Walk tallies, computed once and fanned out to every lane. Event
    // records carry the branch's absolute sequence number in the whole
    // stream, so a window starts counting at its base.
    uint64_t fetch_blocks = 0, cond_branches = 0, lghist_bits = 0;
    uint64_t branch_seq = branch_seq_base;
    std::array<uint64_t, 9> per_block{};
    TimingStat hist_time;

    BranchSnapshot snap;
    for (size_t b = begin_block; b < end_block; ++b) {
        ++fetch_blocks;
        const uint32_t first = stream.branchBegin(b);
        const uint32_t last = stream.branchBegin(b + 1);
        const unsigned nbr = last - first;
        ++per_block[nbr < per_block.size() ? nbr : per_block.size() - 1];

        const uint64_t block_addr = stream.blockAddr(b);
        snap.blockAddr = block_addr;
        snap.hist.pathZ = path_z;
        snap.hist.pathY = path_y;
        snap.hist.pathX = path_x;
        if (assign_banks)
            snap.bank =
                static_cast<uint8_t>(bank_sched.assign(block_addr));

        // The index history for every branch of this block: the aged
        // lghist view, or per-branch ghist filled in below.
        const uint64_t block_hist = delayed.view();

        for (uint32_t j = first; j < last; ++j) {
            const uint8_t raw = stream.branchRaw(j);
            const bool br_taken = (raw & 1) != 0;
            snap.pc = block_addr + uint64_t(raw >> 1) * kInstrBytes;
            snap.hist.ghist = ghist.raw();
            snap.hist.indexHist = LghistMode ? block_hist : ghist.raw();

            if constexpr (Timed || HasEvents) {
                // Observed path: per-lane timers / event emission need
                // the split predict()/update() calls, with identical
                // call counts per lane.
                for (size_t l = 0; l < n; ++l) {
                    bool predicted;
                    if constexpr (Timed) {
                        ScopedTimer t(lanes[l].result->timing.lookup,
                                      SpanPhase::SimLookup);
                        predicted = preds[l]->predict(snap);
                    } else {
                        predicted = preds[l]->predict(snap);
                    }
                    lanes[l].result->stats.record(predicted, br_taken);
                    if constexpr (HasEvents) {
                        if (predicted != br_taken && lanes[l].events) {
                            lanes[l].events->onMispredict(
                                makeMispredictEvent(
                                    branch_seq, snap, br_taken,
                                    predicted, preds[l]->lastVotes()));
                        }
                    }
                    if constexpr (Timed) {
                        ScopedTimer t(lanes[l].result->timing.update,
                                      SpanPhase::SimUpdate);
                        preds[l]->update(snap, br_taken, predicted);
                    } else {
                        preds[l]->update(snap, br_taken, predicted);
                    }
                }
            } else if constexpr (Single) {
                const bool predicted = single->predict(snap);
                single->update(snap, br_taken, predicted);
                single_misp += predicted != br_taken;
            } else if constexpr (FusedGroupStepped<Predictor>) {
                group.step(snap, br_taken, misp);
            } else if constexpr (FusedSteppable<Predictor>) {
                for (size_t l = 0; l < n; ++l)
                    misp[l] += preds[l]->predictAndUpdate(snap, br_taken)
                        != br_taken;
            } else {
                for (size_t l = 0; l < n; ++l) {
                    const bool predicted = preds[l]->predict(snap);
                    preds[l]->update(snap, br_taken, predicted);
                    misp[l] += predicted != br_taken;
                }
            }

            ghist.push(br_taken);
            ++branch_seq;
            ++cond_branches;
        }

        const auto advance_history = [&] {
            if (nbr > 0) {
                const uint8_t raw = stream.branchRaw(last - 1);
                lghist.onBranchBlock(
                    block_addr + uint64_t(raw >> 1) * kInstrBytes,
                    (raw & 1) != 0);
                ++lghist_bits;
            }
            delayed.advance(lghist.value());
        };
        if constexpr (Timed) {
            // Timed once per block; merged per lane below so every
            // lane reports the same history call count (the shared
            // advance serves all lanes at once).
            ScopedTimer t(hist_time, SpanPhase::SimHistory);
            advance_history();
        } else {
            advance_history();
        }

        path_x = path_y;
        path_y = path_z;
        path_z = block_addr;
    }

    walk.ghist = ghist;
    walk.lghist = lghist;
    walk.delayed = delayed;
    walk.pathZ = path_z;
    walk.pathY = path_y;
    walk.pathX = path_x;

    // Accumulating fan-out: each measured window adds into the same
    // lane results.
    if constexpr (Single)
        misp[0] = single_misp;
    for (size_t l = 0; l < n; ++l) {
        SimResult &r = *lanes[l].result;
        if constexpr (!(Timed || HasEvents))
            r.stats.tally(cond_branches, misp[l]);
        r.fetchBlocks += fetch_blocks;
        r.condBranches += cond_branches;
        r.lghistBits += lghist_bits;
        for (size_t k = 0; k < per_block.size(); ++k)
            r.branchesPerBlock[k] += per_block[k];
        if constexpr (Timed)
            r.timing.history.merge(hist_time);
    }
}

/**
 * The windowed runner: @p windows in stream order over one shared walk
 * state, all lanes stepped together. A window that does not continue
 * the previous one resets the history state and the bank recurrence
 * and is primed by its warmup range [warmupBlockBegin, blockBegin),
 * which runs untimed and event-free into throwaway results with
 * per-lane stats gated off. The predictors are never reset between
 * windows: their table state carries over. Each window's per-lane
 * measured mispredictions land in @p tallies (tallies[lane][window])
 * for the stratified extrapolation.
 *
 * The exact walk is one window [0, blocks) with no warmup.
 */
template <class Predictor, bool LghistMode, bool Timed, bool HasEvents,
          bool Single>
void
runWindowedKernel(const BlockStream &stream,
                  FusedLaneState<Predictor> *lanes, size_t nlanes,
                  const SimConfig &config, BankScheduler &bank_sched,
                  const std::vector<SampledWindow> &windows,
                  std::vector<std::vector<SampledWindowTally>> &tallies)
{
    checkFusedLanes(lanes, nlanes);
    tallies.assign(nlanes, {});

    const bool lghist_path = config.history == HistoryMode::LghistPath;

    // Warmup lanes: same predictors, throwaway results, no events.
    std::vector<SimResult> warm_sinks(nlanes);
    std::vector<FusedLaneState<Predictor>> warm_lanes(nlanes);
    for (size_t l = 0; l < nlanes; ++l) {
        warm_lanes[l].predictor = lanes[l].predictor;
        warm_lanes[l].result = &warm_sinks[l];
    }

    KernelWalkState walk(lghist_path, config.historyAge);
    uint64_t next_block = ~uint64_t{0};
    for (const SampledWindow &w : windows) {
        if (w.blockBegin != next_block) {
            walk = KernelWalkState(lghist_path, config.historyAge);
            bank_sched = BankScheduler();
            if (w.warmupBlockBegin < w.blockBegin) {
                for (size_t l = 0; l < nlanes; ++l)
                    lanes[l].predictor->enableStats(false);
                runFusedStreamKernelRange<Predictor, LghistMode, false,
                                          false, Single>(
                    stream, warm_lanes.data(), nlanes, config,
                    bank_sched,
                    static_cast<size_t>(w.warmupBlockBegin),
                    static_cast<size_t>(w.blockBegin), walk, 0);
                for (size_t l = 0; l < nlanes; ++l)
                    lanes[l].predictor->enableStats(
                        lanes[l].statsWanted);
            }
        }
        uint64_t misp0[kMaxFusedLanes];
        for (size_t l = 0; l < nlanes; ++l)
            misp0[l] = lanes[l].result->stats.mispredictions();
        runFusedStreamKernelRange<Predictor, LghistMode, Timed,
                                  HasEvents, Single>(
            stream, lanes, nlanes, config, bank_sched,
            static_cast<size_t>(w.blockBegin),
            static_cast<size_t>(w.blockEnd), walk, w.branchSeqBase);
        for (size_t l = 0; l < nlanes; ++l) {
            tallies[l].push_back(
                {w.phaseId, w.branches, w.instrs,
                 lanes[l].result->stats.mispredictions() - misp0[l]});
        }
        next_block = w.blockEnd;
    }
}

/** Calls @p f with one std::bool_constant per runtime flag, in order. */
template <class F>
void
withFlags(F &&f)
{
    f();
}

template <class F, class... Flags>
void
withFlags(F &&f, bool flag, Flags... rest)
{
    if (flag) {
        withFlags([&](auto... c) { f(std::true_type{}, c...); },
                  rest...);
    } else {
        withFlags([&](auto... c) { f(std::false_type{}, c...); },
                  rest...);
    }
}

/** Resolves the runtime flags to the matching kernel instantiation. */
template <class Predictor>
void
dispatchFusedKernel(const BlockStream &stream,
                    FusedLaneState<Predictor> *lanes, size_t nlanes,
                    const SimConfig &config, BankScheduler &bank_sched,
                    const std::vector<SampledWindow> &windows,
                    std::vector<std::vector<SampledWindowTally>> &tallies)
{
    bool events = false;
    for (size_t l = 0; l < nlanes; ++l)
        events |= lanes[l].events != nullptr;

    withFlags(
        [&](auto lg, auto timed, auto ev, auto single) {
            runWindowedKernel<Predictor, decltype(lg)::value,
                              decltype(timed)::value, decltype(ev)::value,
                              decltype(single)::value>(
                stream, lanes, nlanes, config, bank_sched, windows,
                tallies);
        },
        config.history != HistoryMode::Ghist, config.profileTiming,
        events, nlanes == 1);
}

} // namespace detail
} // namespace ev8

#endif // EV8_SIM_KERNEL_HH
