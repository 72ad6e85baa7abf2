/**
 * @file
 * Front-end walkthrough: the EV8 fetch pipeline of Section 2, end to
 * end, on one benchmark.
 *
 * For every fetch block the example drives:
 *   - the line predictor (fast next-block guess, Section 2),
 *   - the bank-number computation (Section 6.2) with a live
 *     single-ported-array port checker (Section 7.1),
 *   - the EV8 conditional predictor through its hardware-faithful
 *     block-wide read (all 8 predictions from one access per logical
 *     table),
 *   - the coarse timing model translating both predictors' accuracy
 *     into fetch bandwidth.
 *
 * Usage: frontend_pipeline [benchmark] [branches]
 */

#include <cstdio>
#include <cstdlib>

#include "core/ev8_predictor.hh"
#include "core/physical_storage.hh"
#include "frontend/bank_scheduler.hh"
#include "frontend/fetch_block.hh"
#include "frontend/jump_predictor.hh"
#include "frontend/lghist.hh"
#include "frontend/pipeline.hh"
#include "frontend/ras.hh"
#include "workloads/suite.hh"

using namespace ev8;

int
main(int argc, char **argv)
{
    const std::string bench_name = argc > 1 ? argv[1] : "perl";
    const uint64_t branches =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 300000;

    const Benchmark &bench = findBenchmark(bench_name);
    std::printf("simulating the EV8 front end on %s (%llu cond. "
                "branches)\n\n",
                bench_name.c_str(),
                static_cast<unsigned long long>(branches));
    const Trace trace = generateTrace(bench.profile, branches);

    Ev8Predictor predictor;
    ReturnAddressStack ras(16);
    JumpPredictor jumps(12, 8);
    LghistTracker lghist(/*include_path=*/true);
    DelayedHistory delayed(3); // three-fetch-blocks-old view
    BankScheduler banks;
    SinglePortChecker ports;
    FrontEndPipeline pipeline(/*line_log2_entries=*/12);

    uint64_t path_z = 0;
    uint64_t slot = 0;
    uint64_t cond = 0, cond_wrong = 0, port_conflicts = 0;

    FetchBlockBuilder builder;
    builder.begin(trace.startPc());

    auto on_block = [&](const FetchBlock &block) {
        // Two fetch blocks share a cycle: restart the port checker on
        // even slots. The bank computation guarantees no conflicts.
        if ((slot++ & 1) == 0)
            ports.beginCycle();

        Ev8IndexInput in;
        in.blockAddr = block.address;
        in.hist = delayed.view();
        in.zAddr = path_z;
        in.bank = banks.assign(block.address);
        if (!ports.access(in.bank))
            ++port_conflicts;

        // One access per logical table yields all 8 predictions.
        const Ev8BlockPrediction preds = predictor.predictBlock(in);

        bool block_mispredicted = false;
        for (unsigned i = 0; i < block.numBranches; ++i) {
            const BlockBranch &br = block.branches[i];
            const unsigned offset = unsigned(br.pc >> 2) & 7;
            const bool predicted = preds.takenAtOffset[offset];
            ++cond;
            if (predicted != br.taken) {
                ++cond_wrong;
                block_mispredicted = true;
            }
            // Train through the per-branch interface (commit path).
            BranchSnapshot snap;
            snap.pc = br.pc;
            snap.blockAddr = block.address;
            snap.hist.indexHist = in.hist;
            snap.hist.pathZ = in.zAddr;
            snap.bank = static_cast<uint8_t>(in.bank);
            predictor.update(snap, br.taken, predictor.predict(snap));
        }

        pipeline.onBlock(block, block_mispredicted);
        lghist.onBlock(block);
        delayed.advance(lghist.value());
        path_z = block.address;
    };

    for (const auto &rec : trace.records()) {
        // The other PC-address-generation structures of Section 2: the
        // return-address stack and the indirect-jump predictor.
        switch (rec.type) {
          case BranchType::Call:
            ras.pushCall(rec.pc);
            break;
          case BranchType::Indirect:
            jumps.update(rec.pc, rec.target);
            ras.pushCall(rec.pc); // our indirects are dispatch calls
            break;
          case BranchType::Return:
            ras.recordOutcome(ras.popReturn(), rec.target);
            break;
          default:
            break;
        }
        builder.feed(rec, on_block);
    }
    builder.flush(on_block);

    const FrontEndStats &fe = pipeline.stats();
    std::printf("fetch blocks:             %llu\n",
                static_cast<unsigned long long>(fe.blocks));
    std::printf("instructions fetched:     %llu\n",
                static_cast<unsigned long long>(fe.instructions));
    std::printf("line predictor accuracy:  %.2f%%  (simple indexing -- "
                "deliberately modest, Section 2)\n",
                100.0 * fe.lineAccuracy());
    std::printf("cond. branch accuracy:    %.3f%%  (%llu / %llu wrong)\n",
                100.0 * (1.0 - double(cond_wrong) / double(cond)),
                static_cast<unsigned long long>(cond_wrong),
                static_cast<unsigned long long>(cond));
    std::printf("bank port conflicts:      %llu  (zero by construction, "
                "Section 6.2)\n",
                static_cast<unsigned long long>(port_conflicts));
    std::printf("estimated fetch IPC:      %.2f of 16 peak\n",
                fe.fetchIpc());
    std::printf("cycles modelled:          %llu (line redirect 2, "
                "branch penalty 14)\n",
                static_cast<unsigned long long>(fe.cycles));
    std::printf("return-address stack:     %.2f%% of %llu returns "
                "correct (depth 16)\n",
                100.0 * ras.accuracy(),
                static_cast<unsigned long long>(ras.returnsSeen()));
    std::printf("indirect-jump predictor:  %.2f%% of %llu indirects "
                "correct\n",
                100.0 * jumps.accuracy(),
                static_cast<unsigned long long>(jumps.lookups()));
    return 0;
}
