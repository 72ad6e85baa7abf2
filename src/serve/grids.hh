/**
 * @file
 * Named experiment grids: the shared vocabulary between the batch
 * figure binaries and the serve protocol.
 *
 * A served client opens a session by grid *name* ("fig5"), not by
 * shipping predictor constructors over the wire. For the served
 * artifacts to be byte-identical to the batch binary's, both sides must
 * agree on everything that feeds the export rows: the row labels, the
 * row order, the predictor specs (hence storage bits) and the base
 * SimConfig preset. This registry is that agreement -- the batch binary
 * (bench_fig5_schemes) builds its rows from the same GridSpec the
 * server resolves a session's grid name against.
 *
 * Rows reference predictors by factory spec string (makePredictor), so
 * the registry stays a data table and the predictor zoo keeps one
 * constructor surface.
 */

#ifndef EV8_SERVE_GRIDS_HH
#define EV8_SERVE_GRIDS_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/suite_runner.hh"

namespace ev8
{

/** One labelled row of a named grid. */
struct GridRowSpec
{
    std::string label; //!< export/report label, identical batch & served
    std::string spec;  //!< makePredictor() spec string

    /**
     * Direct factory for rows the spec grammar cannot express (the EV8
     * hardware predictor, non-default update policies). When set it
     * wins over @ref spec; the factory must be a pure function so the
     * batch binary and the server build identical predictors.
     */
    PredictorFactory make;

    /**
     * Per-row SimConfig preset override ("ghist", "ev8", or one of
     * the fig7 ladder presets "lghist-nopath" / "lghist-path" /
     * "lghist-3old"); empty means the grid's preset. Lets one grid
     * ablate across information vectors (the update-policy grid runs
     * EV8 rows under the EV8 vector and the unconstrained rows under
     * ideal ghist; the fig7 grid walks the whole ladder).
     */
    std::string preset;
};

/** One named grid: an id, its banner identity, and its rows in order. */
struct GridSpec
{
    std::string id;      //!< wire / --grid name ("fig5")
    std::string benchId; //!< experiment id for the banner ("Fig. 5")
    std::string title;   //!< experiment title for the banner
    std::vector<GridRowSpec> rows;

    /**
     * SimConfig preset name: "ghist" (SimConfig::ghist()), "ev8"
     * (SimConfig::ev8()), or an information-vector ladder point
     * ("lghist-nopath" / "lghist-path" / "lghist-3old").
     * baseConfig() resolves it.
     */
    std::string preset;
};

/** The registry. @returns null for an unknown id. */
const GridSpec *findGrid(const std::string &id);

/** Registered grid ids, for --help / error messages. */
std::vector<std::string> knownGrids();

/** Resolves @p grid's preset to an uninstrumented SimConfig. */
SimConfig baseConfig(const GridSpec &grid);

/**
 * Resolves @p row's effective preset (its own, else the grid's) to an
 * uninstrumented SimConfig -- the per-row analogue of baseConfig(),
 * used by registry-driven batch binaries.
 */
SimConfig rowBaseConfig(const GridSpec &grid, const GridRowSpec &row);

/** @p row's predictor: the direct factory when set, else the spec. */
PredictorPtr makeRowPredictor(const GridRowSpec &row);

/**
 * @p grid's rows as uninstrumented engine GridRows, in row order: each
 * row's label, a makeRowPredictor() factory and its rowBaseConfig().
 * The registry-driven batch binaries run these through their own
 * instrumentation.
 */
std::vector<GridRow> gridRows(const GridSpec &grid);

/**
 * gridRows() carrying @p config's observability hooks (the
 * instrumented per-caller config -- batch and served callers attach
 * different sinks but identical simulation fields). Every row keeps
 * its own preset's simulation fields.
 */
std::vector<GridRow> buildGridRows(const GridSpec &grid,
                                   const SimConfig &config);

/** Storage bits of each row's predictor, in row order. */
std::vector<uint64_t> gridStorageBits(const GridSpec &grid);

} // namespace ev8

#endif // EV8_SERVE_GRIDS_HH
