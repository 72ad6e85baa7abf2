/**
 * @file
 * The Section 8 methodology artifact: the history-length sweep used to
 * find every scheme's "best history length". Prints the sweep curve for
 * a gshare and for the 2Bc-gskew G1 length, demonstrating that the
 * optimum sits beyond log2(table size) for large predictors as the
 * trace grows (Section 5.3).
 *
 * Lengths can be overridden: EV8_SWEEP_LENGTHS="4,8,12,16" (comma
 * separated).
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench_common.hh"
#include "common/table.hh"
#include "predictors/factory.hh"
#include "predictors/twobcgskew.hh"
#include "sim/sweep.hh"

using namespace ev8;

namespace
{

std::vector<unsigned>
sweepLengths()
{
    if (const char *env = std::getenv("EV8_SWEEP_LENGTHS")) {
        std::vector<unsigned> lengths;
        std::istringstream in(env);
        std::string tok;
        while (std::getline(in, tok, ','))
            lengths.push_back(unsigned(std::stoul(tok)));
        if (!lengths.empty())
            return lengths;
    }
    return {4, 8, 12, 16, 20, 24};
}

void
printCurve(BenchContext &ctx, const char *label, const char *title,
           const std::vector<SweepPoint> &points)
{
    std::vector<std::string> labels;
    std::vector<std::string> columns;
    std::vector<double> values;
    for (const auto &p : points) {
        // Appended, not prepended: GCC 12 misreads `"h" +
        // std::string&&` as an overlapping memcpy (-Wrestrict).
        const std::string len = std::to_string(p.histLen);
        labels.push_back(std::string("h=").append(len));
        columns.push_back(std::string("h").append(len));
        values.push_back(p.avgMispKI);
    }
    if (!benchQuiet()) {
        std::printf("%s\n",
                    renderBarChart(title, labels, values).c_str());
        std::printf("  best length: %u (%.3f misp/KI)\n\n",
                    bestPoint(points).histLen,
                    bestPoint(points).avgMispKI);
    }
    columns.push_back("best_len");
    values.push_back(bestPoint(points).histLen);
    ctx.recordRow(label, 0, std::move(columns), std::move(values));
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx(argc, argv,
                     "Methodology (Section 8)", "History-length sweeps");

    SuiteRunner &runner = ctx.runner();
    const auto lengths = sweepLengths();
    const SimConfig ghist = ctx.instrument(SimConfig::ghist());

    if (!benchQuiet())
        std::fprintf(stderr, "  sweeping gshare 64K ...\n");
    const auto gshare = sweepHistoryLengths(
        runner,
        [](unsigned len) {
            return makePredictor("gshare:16:" + std::to_string(len));
        },
        lengths, ghist);
    printCurve(ctx, "gshare-64K",
               "gshare 64K entries, suite-average misp/KI by history "
               "length:",
               gshare);

    if (!benchQuiet())
        std::fprintf(stderr, "  sweeping 2Bc-gskew G1 length ...\n");
    const auto g1 = sweepHistoryLengths(
        runner,
        [](unsigned len) {
            return std::make_unique<TwoBcGskewPredictor>(
                TwoBcGskewConfig::symmetric(
                    16, 0, 13, 15, len,
                    "2bcgskew-G1h" + std::to_string(len)));
        },
        lengths, ghist);
    printCurve(ctx, "2bcgskew-G1",
               "2Bc-gskew 4*64K, G1 history length sweep (G0=13, "
               "Meta=15):",
               g1);

    printShapeNotes({
        "the gshare curve is U-shaped: too little history misses "
        "correlations, too much dilutes training",
        "the 2Bc-gskew G1 optimum sits ABOVE log2(entries)=16 -- "
        "Section 5.3's \"very long history\" observation (the effect "
        "strengthens with longer traces)",
    });
    return ctx.finish();
}
