/**
 * @file
 * Fig. 6 reproduction: additional mispredictions when each scheme's
 * history length is forced to the conventional log2(table size) instead
 * of its best length -- Section 5.3's point that large predictors want
 * history longer than log2 of their entry count.
 *
 * Faithful to the Section 8.2 methodology, the best length is found by
 * sweeping at the current trace scale (the optimum grows with trace
 * length; the paper swept its 100M-instruction traces).
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/table.hh"
#include "predictors/factory.hh"
#include "predictors/twobcgskew.hh"
#include "sim/sweep.hh"

using namespace ev8;

namespace
{

struct Scheme
{
    const char *label;
    unsigned log2Size;       //!< the conventional history length
    HistoryFactory make;     //!< predictor at a candidate history length
};

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv,
                     "Fig. 6", "Additional mispredictions with history "
                               "length = log2(table size) instead of "
                               "best");

    SuiteRunner &runner = ctx.runner();
    const SimConfig ghist = ctx.instrument(SimConfig::ghist());
    const std::vector<unsigned> lengths{8, 12, 16, 20, 24, 28};

    // For 2Bc-gskew, one length parameter scales all three history
    // lengths with the paper's proportions (G0 ~ 0.62 L, Meta ~ 0.74 L,
    // G1 = L; e.g. L=27 gives 17/20/27, the paper's 512Kb lengths).
    auto gskew = [](unsigned log2_entries) {
        return [log2_entries](unsigned len) -> PredictorPtr {
            const unsigned g0 = std::max(2u, len * 62 / 100);
            const unsigned meta = std::max(2u, len * 74 / 100);
            return std::make_unique<TwoBcGskewPredictor>(
                TwoBcGskewConfig::symmetric(log2_entries, 0, g0, meta,
                                            len, "2bcgskew"));
        };
    };

    const std::vector<Scheme> schemes = {
        {"2Bc-gskew 256Kb", 15, gskew(15)},
        {"2Bc-gskew 512Kb", 16, gskew(16)},
        {"gshare 2Mb", 20,
         [](unsigned len) {
             return makePredictor("gshare:20:" + std::to_string(len));
         }},
        {"YAGS 288Kb", 14,
         [](unsigned len) {
             return makePredictor("yags:14:14:" + std::to_string(len));
         }},
        {"bi-mode 544Kb", 17,
         [](unsigned len) {
             return makePredictor("bimode:17:14:" + std::to_string(len));
         }},
    };

    TextTable table;
    std::vector<std::string> header{"configuration", "best len",
                                    "best misp/KI", "log2-size len",
                                    "log2 misp/KI", "extra misp/KI"};
    table.header(std::move(header));

    std::vector<std::string> extra_labels;
    std::vector<double> extra_values;
    for (const auto &scheme : schemes) {
        if (!benchQuiet())
            std::fprintf(stderr, "  sweeping %s ...\n", scheme.label);
        // The log2(size) point rides in the same sweep -- and so in
        // the same fused lane group -- as the candidate lengths: one
        // more lane on the shared suite walk, where a separate sweep
        // call would walk the whole suite again for that single
        // configuration. Appending keeps the point order (and every
        // artifact) identical to the two-call form.
        // Reserved before the copy: GCC 12 reports a push_back past a
        // copied vector's exact capacity as out of bounds
        // (-Warray-bounds).
        std::vector<unsigned> sweep_lengths;
        sweep_lengths.reserve(lengths.size() + 1);
        sweep_lengths.assign(lengths.begin(), lengths.end());
        bool have_log2 = false;
        for (unsigned len : lengths)
            have_log2 |= len == scheme.log2Size;
        if (!have_log2)
            sweep_lengths.push_back(scheme.log2Size);
        auto points = sweepHistoryLengths(runner, scheme.make,
                                          sweep_lengths, ghist);

        const SweepPoint &best = bestPoint(points);
        double log2_value = 0;
        for (const auto &p : points) {
            if (p.histLen == scheme.log2Size)
                log2_value = p.avgMispKI;
        }
        const double extra = log2_value - best.avgMispKI;
        table.row({scheme.label, std::to_string(best.histLen),
                   fmt(best.avgMispKI, 3), std::to_string(scheme.log2Size),
                   fmt(log2_value, 3), fmt(extra, 3)});
        ctx.recordRow(scheme.label, 0,
                      {"best_len", "best_mispki", "log2_len",
                       "log2_mispki", "extra_mispki"},
                      {double(best.histLen), best.avgMispKI,
                       double(scheme.log2Size), log2_value, extra});
        extra_labels.push_back(scheme.label);
        extra_values.push_back(extra);
    }

    if (!benchQuiet()) {
        std::printf("Best (swept) history length vs. the conventional "
                    "log2(table size) choice:\n\n%s\n",
                    table.render().c_str());
        std::printf("%s\n",
                    renderBarChart("ADDITIONAL misp/KI from the "
                                   "log2(size) history length:",
                                   extra_labels, extra_values)
                        .c_str());
    }

    printShapeNotes({
        "the best history length meets or exceeds log2(table size) for "
        "the large schemes; for 2Bc-gskew the optimum G1 length sits "
        "clearly above it (Section 5.3)",
        "forcing log2(size) costs extra mispredictions (non-negative "
        "bars by construction of the sweep)",
        "the optimum grows with trace length: at the paper's 100M-"
        "instruction scale the best lengths were 23-27 bits for the "
        "256-512 Kbit 2Bc-gskew",
    });
    return ctx.finish();
}
