/**
 * @file
 * Measurement binary of the repository benchmark (see NOTES.md).
 *
 * Runs one workload from outside the program: the batch workloads time
 * calls to the libraries' public functions (SuiteRunner, the
 * ExperimentEngine accessors, simulateStreamFused), the serve workload
 * drives a bench_serve daemon over its AF_UNIX ev8-serve-v1 protocol.
 * Every grid comes from the serve/grids registry by id, so batch and
 * served runs do identical work.
 *
 * This binary only measures. It prints one JSON document of raw samples
 * (set-up times, pass walls, session and RPC latencies, per-grid result
 * digests, layer probes) on stdout; run.py turns those into the
 * benchmark's metrics and checks the digests against expected.json.
 *
 * Usage:
 *
 *     ev8_perfbench --workload=<grid-warm|grid-observed|ev8-cold|
 *                   serve-sessions> --seed=<n> --seconds=<s>
 *                   --trace=<0|1> --branches=<n> --jobs=<n>
 *                   --work=<dir> --serve-bin=<path>
 *                   [--setup-reps=<n>] [--daemon-fault-spec=<spec>]
 *
 * --daemon-fault-spec sets EV8_FAULT_SPEC for the bench_serve daemon
 * only, so a test can make served sessions fail.
 *
 * With --trace=1 it also records spans around every library
 * call and RPC it makes (written to <work>/spans.json) and runs the
 * layer probes.
 */

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hh"
#include "core/ev8_predictor.hh"
#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/grids.hh"
#include "serve/protocol.hh"
#include "serve/transport.hh"
#include "sim/block_stream.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"
#include "workloads/suite.hh"

extern char **environ;

using namespace ev8;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kEpoch)
        .count();
}

double
secondsSince(int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------
// Spans: recorded only in traced runs, kept in memory, written at exit.

struct SpanRecord
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  //!< 0 = root
    uint64_t session = 0; //!< shared by every span of one session/pass
    int64_t startNs = 0;
    int64_t endNs = 0;
};

class SpanLog
{
  public:
    uint64_t nextId() { return next_.fetch_add(1) + 1; }

    void
    add(SpanRecord rec)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(rec));
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        JsonWriter w(out);
        std::lock_guard<std::mutex> lock(mutex_);
        w.beginArray();
        for (const SpanRecord &s : spans_) {
            w.beginObject();
            w.key("name");
            w.value(s.name);
            w.key("id");
            w.value(s.id);
            w.key("parent");
            w.value(s.parent);
            w.key("session");
            w.value(s.session);
            w.key("start_ns");
            w.value(static_cast<uint64_t>(s.startNs));
            w.key("end_ns");
            w.value(static_cast<uint64_t>(s.endNs));
            w.endObject();
        }
        w.endArray();
        out << '\n';
        if (!out)
            throw std::runtime_error("cannot write " + path);
    }

  private:
    std::atomic<uint64_t> next_{0};
    mutable std::mutex mutex_; //!< guards spans_
    std::vector<SpanRecord> spans_;
};

SpanLog *g_spans = nullptr; //!< null = tracing off
thread_local uint64_t t_parent = 0;
thread_local uint64_t t_session = 0;

/** RAII span; a no-op when tracing is off. */
class Span
{
  public:
    /** @param session 0 inherits the enclosing span's session id. */
    explicit Span(std::string name, uint64_t session = 0)
    {
        if (!g_spans)
            return;
        rec_.name = std::move(name);
        rec_.id = g_spans->nextId();
        rec_.parent = t_parent;
        savedSession_ = t_session;
        rec_.session = session ? session : t_session;
        t_parent = rec_.id;
        t_session = rec_.session;
        rec_.startNs = nowNs();
    }

    ~Span()
    {
        if (!g_spans)
            return;
        rec_.endNs = nowNs();
        t_parent = rec_.parent;
        t_session = savedSession_;
        g_spans->add(std::move(rec_));
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecord rec_;
    uint64_t savedSession_ = 0;
};

// ------------------------------------------------------------------
// Output check: a digest of per-cell misprediction counts keyed and
// sorted by (grid, row label, benchmark) -- independent of submission
// order, so it holds for every seed.

struct CellCount
{
    std::string row;
    std::string bench;
    uint64_t mispredictions = 0;
};

std::string
gridDigest(const std::string &grid, std::vector<CellCount> cells)
{
    std::sort(cells.begin(), cells.end(),
              [](const CellCount &a, const CellCount &b) {
                  return std::tie(a.row, a.bench)
                      < std::tie(b.row, b.bench);
              });
    uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a 64
    const auto feed = [&h](const std::string &text) {
        for (unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    };
    for (const CellCount &c : cells) {
        feed(grid + '\x1f' + c.row + '\x1f' + c.bench + '\x1f'
             + std::to_string(c.mispredictions) + '\n');
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** One runGrid call or one served session. */
struct GridRun
{
    std::string grid;
    std::string digest;
    uint64_t cells = 0;
    uint64_t failedCells = 0;
    uint64_t laneBranches = 0;
    double ms = 0.0;
    std::string error; //!< a served session that failed: why
};

// ------------------------------------------------------------------
// Options and the collected report.

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    uint64_t branches = 250000;
    unsigned jobs = 1;
    std::string work;
    std::string serveBin;
    std::string daemonFaultSpec; //!< EV8_FAULT_SPEC of the daemon only
    unsigned setupReps = 5;
};

struct Report
{
    std::vector<double> setupS;
    std::vector<double> passS;           //!< one traversal of the grid set
    std::vector<uint64_t> passBranches;  //!< lane-branches per pass
    std::vector<double> sessionMs;
    std::vector<double> rpcMs;
    std::map<std::string, std::vector<double>> rpcByOp;
    std::vector<GridRun> runs;
    double peakRssMb = 0.0;
    std::map<std::string, double> layers; //!< traced runs only
    std::vector<double> untracedPassS;    //!< traced runs only
};

const std::vector<std::string> &
workloadGrids(const std::string &workload)
{
    // grid-observed runs fig5, not fig6: an observed fig6 pass takes
    // about 5 s, so a run would hold only four passes and their median
    // would follow every burst of host load. The fig6 observed walk is
    // still measured, by the obs.* probes.
    static const std::map<std::string, std::vector<std::string>> grids = {
        {"grid-warm", {"fig5", "fig6"}},
        {"grid-observed", {"fig5"}},
        {"ev8-cold",
         {"fig7", "fig8", "ablation-update-policy", "ablation-banking"}},
        {"serve-sessions", {"fig5", "fig8", "ablation-banking"}},
    };
    const auto it = grids.find(workload);
    if (it == grids.end())
        throw std::invalid_argument("unknown workload '" + workload + "'");
    return it->second;
}

const std::vector<std::string> kAllGrids = {
    "fig5", "fig6", "fig7", "fig8", "ablation-update-policy",
    "ablation-banking"};

const GridSpec &
gridOf(const std::string &id)
{
    const GridSpec *g = findGrid(id);
    if (!g)
        throw std::runtime_error("grid '" + id + "' is not registered");
    return *g;
}

double
vmHwmMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/** utime + stime of @p pid, seconds (from /proc/<pid>/stat). */
double
procCpuS(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string f;
    double ticks = 0.0;
    // Fields after the command: state is field 3; utime/stime are 14/15.
    for (int idx = 3; fields >> f && idx <= 15; ++idx) {
        if (idx == 14 || idx == 15)
            ticks += std::stod(f);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
selfCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
        + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec
                                     + ru.ru_stime.tv_usec);
}

double
dirMb(const std::string &dir)
{
    uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec)) {
        if (e.is_regular_file())
            bytes += e.file_size();
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/** Points the next SuiteRunner's trace cache at @p dir ("" = memory). */
void
useCacheDir(const std::string &dir)
{
    if (dir.empty())
        unsetenv("EV8_TRACE_CACHE_DIR");
    else
        setenv("EV8_TRACE_CACHE_DIR", dir.c_str(), 1);
}

/** Loads every suite stream in parallel, one span per benchmark. */
void
loadAllStreams(SuiteRunner &runner)
{
    ExperimentEngine *engine = nullptr;
    {
        Span span("suite_runner.engine");
        engine = &runner.engine();
    }
    const uint64_t parent = t_parent;
    const uint64_t session = t_session;
    engine->parallelFor(runner.size(), [&](size_t i) {
        t_parent = parent;
        t_session = session;
        Span span("trace_cache.blockStream");
        runner.blockStream(i);
    });
}

// ------------------------------------------------------------------
// Batch workloads.

/** Sink-free null stream for the observed workload's event sampler. */
class NullBuf : public std::streambuf
{
  protected:
    int_type overflow(int_type c) override { return c; }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** trace_cache.* layer metrics of a runner's cache after set-up. */
void
cacheLayers(const TraceCache &cache, const std::string &dir, Report &rep)
{
    const double requests = static_cast<double>(cache.streamRequestCount());
    rep.layers["trace_cache.stream_hit_ratio"] = requests > 0
        ? 1.0 - static_cast<double>(cache.decodedCount()) / requests
        : 0.0;
    rep.layers["trace_cache.stream_requests"] = requests;
    rep.layers["trace_cache.disk_mb"] = dirMb(dir);
    rep.layers["trace_cache.errors"] = static_cast<double>(
        cache.readErrorCount() + cache.writeErrorCount());
}

/** One batch runGrid of @p id with shuffled rows; returns its record. */
GridRun
runBatchGrid(SuiteRunner &runner, const std::string &id, bool observed,
             std::mt19937_64 &rng)
{
    const GridSpec &grid = gridOf(id);
    Span span("grid." + id);
    NullBuf nullBuf;
    std::ostream nullOut(&nullBuf);
    MetricRegistry registry;
    EventTraceSink events(nullOut, 64);
    SimConfig config = baseConfig(grid);
    if (observed) {
        config.metrics = &registry;
        config.events = &events;
        config.profileTiming = true;
    }

    const int64_t t0 = nowNs();
    std::vector<GridRow> rows;
    {
        Span s("grids.buildGridRows");
        rows = buildGridRows(grid, config);
    }
    std::shuffle(rows.begin(), rows.end(), rng);
    GridOutcome outcome;
    {
        Span s("experiment.runGrid");
        outcome = runner.runGrid(rows);
    }
    GridRun run;
    run.ms = secondsSince(t0) * 1e3;
    run.grid = id;
    run.failedCells = outcome.failures.size();
    std::vector<CellCount> cells;
    for (size_t r = 0; r < rows.size(); ++r) {
        for (const BenchResult &res : outcome.results[r]) {
            ++run.cells;
            if (res.failed)
                continue;
            run.laneBranches += res.sim.condBranches;
            cells.push_back({rows[r].label, res.bench,
                             res.sim.stats.mispredictions()});
        }
    }
    run.digest = gridDigest(id, std::move(cells));
    return run;
}

/** Passes over the workload's grids until @p seconds elapse. */
void
measureBatch(SuiteRunner &runner, const Options &opt, double seconds,
             size_t min_passes, size_t max_passes, std::mt19937_64 &rng,
             Report &rep, std::vector<double> &pass_s)
{
    const bool observed = opt.workload == "grid-observed";
    std::vector<std::string> order = workloadGrids(opt.workload);
    const int64_t start = nowNs();
    for (size_t pass = 0; pass < max_passes; ++pass) {
        if (pass >= min_passes && secondsSince(start) >= seconds)
            break;
        Span span("pass", g_spans ? g_spans->nextId() : 0);
        std::shuffle(order.begin(), order.end(), rng);
        const int64_t t0 = nowNs();
        uint64_t branches = 0;
        for (const std::string &id : order) {
            GridRun run = runBatchGrid(runner, id, observed, rng);
            branches += run.laneBranches;
            rep.sessionMs.push_back(run.ms);
            rep.rpcMs.push_back(run.ms);
            rep.runs.push_back(std::move(run));
        }
        pass_s.push_back(secondsSince(t0));
        rep.passBranches.push_back(branches);
    }
}

/**
 * Set-up of a batch workload: a fresh runner with every suite stream
 * in memory. ev8-cold starts each repetition from an empty cache
 * directory (synthesis + decode + disk write); the warm workloads load
 * from a disk cache filled once, untimed, before the first repetition.
 */
std::unique_ptr<SuiteRunner>
setupBatch(const Options &opt, Report &rep)
{
    const std::string dir = opt.work + "/cache";
    const bool cold = opt.workload == "ev8-cold";
    fs::remove_all(dir);
    useCacheDir(dir);
    if (!cold) {
        // The fill runs in a child process, so its synthesis memory
        // stays out of this process's peak RSS. No thread exists yet.
        Span span("setup.fill");
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("cannot fork the cache fill");
        if (pid == 0) {
            try {
                SuiteRunner fill(opt.branches, opt.jobs);
                loadAllStreams(fill);
            } catch (const std::exception &err) {
                std::fprintf(stderr, "ev8_perfbench: fill: %s\n",
                             err.what());
                _exit(1);
            }
            _exit(0);
        }
        int status = 0;
        if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)
            || WEXITSTATUS(status) != 0)
            throw std::runtime_error("the cache fill failed");
    }
    std::unique_ptr<SuiteRunner> runner;
    for (unsigned r = 0; r < opt.setupReps; ++r) {
        runner.reset();
        if (cold)
            fs::remove_all(dir);
        Span span("setup", g_spans ? g_spans->nextId() : 0);
        const int64_t t0 = nowNs();
        runner = std::make_unique<SuiteRunner>(opt.branches, opt.jobs);
        loadAllStreams(*runner);
        rep.setupS.push_back(secondsSince(t0));
    }
    if (opt.trace)
        cacheLayers(runner->traceCache(), dir, rep);
    return runner;
}

/** Bucket-interpolated quantile of an engine histogram. */
double
histogramQuantile(const Histogram &h, double q)
{
    const std::vector<uint64_t> counts = h.bucketCounts();
    const std::vector<double> &bounds = h.bounds();
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0.0;
    const double target = q * static_cast<double>(total);
    double seen = 0.0;
    for (size_t b = 0; b < counts.size(); ++b) {
        const double next = seen + static_cast<double>(counts[b]);
        if (next >= target && counts[b] > 0) {
            const double lo = b == 0 ? 0.0 : bounds[b - 1];
            const double hi = b < bounds.size() ? bounds[b] : lo * 2.0;
            return lo + (hi - lo) * (target - seen)
                / static_cast<double>(counts[b]);
        }
        seen = next;
    }
    return bounds.empty() ? 0.0 : bounds.back();
}

struct EngineMark
{
    uint64_t busyNs = 0;
    uint64_t wallNs = 0;
    uint64_t fusedJobs = 0;
    uint64_t fusedLaneCells = 0;
    uint64_t retried = 0;

    static EngineMark
    of(ExperimentEngine &engine)
    {
        MetricRegistry reg;
        engine.publishMetrics(reg, "experiment");
        return {engine.poolBusyNs(), engine.gridWallNs(),
                reg.counterValue("experiment.fused_jobs"),
                reg.counterValue("experiment.fused_lane_cells"),
                reg.counterValue("experiment.cells_retried")};
    }
};

/** experiment.* layer metrics over the interval since @p before. */
void
engineLayers(ExperimentEngine &engine, const EngineMark &before,
             Report &rep)
{
    const EngineMark after = EngineMark::of(engine);
    const double wall = static_cast<double>(after.wallNs - before.wallNs);
    rep.layers["experiment.busy_frac"] = wall > 0
        ? static_cast<double>(after.busyNs - before.busyNs)
            / (wall * engine.jobs())
        : 0.0;
    const uint64_t jobs = after.fusedJobs - before.fusedJobs;
    rep.layers["experiment.lanes_per_walk"] = jobs
        ? static_cast<double>(after.fusedLaneCells - before.fusedLaneCells)
            / static_cast<double>(jobs)
        : 1.0;
    rep.layers["experiment.cells_retried"] =
        static_cast<double>(after.retried - before.retried);
    rep.layers["experiment.cell_p50_ms"] =
        histogramQuantile(engine.cellDurations(), 0.50);
    rep.layers["experiment.cell_p90_ms"] =
        histogramQuantile(engine.cellDurations(), 0.90);
}

void
runBatchWorkload(const Options &opt, Report &rep)
{
    std::mt19937_64 rng(opt.seed);
    std::unique_ptr<SuiteRunner> runner = setupBatch(opt, rep);
    if (!opt.trace) {
        measureBatch(*runner, opt, opt.seconds, 3, 10000, rng, rep,
                     rep.passS);
        rep.peakRssMb = vmHwmMb(getpid());
        return;
    }

    // Traced run: an untraced half, then the same number of passes
    // with spans on; the ratio of their median pass walls is the
    // tracing overhead.
    SpanLog *log = g_spans;
    g_spans = nullptr;
    measureBatch(*runner, opt, opt.seconds / 2, 2, 10000, rng, rep,
                 rep.untracedPassS);
    g_spans = log;
    const size_t passes = rep.untracedPassS.size();
    ExperimentEngine &engine = runner->engine();
    const EngineMark before = EngineMark::of(engine);
    const double cpu0 = selfCpuS();
    const int64_t t0 = nowNs();
    measureBatch(*runner, opt, 0.0, passes, passes, rng, rep, rep.passS);
    rep.layers["host.cpu_util"] = (selfCpuS() - cpu0)
        / (secondsSince(t0) * opt.jobs);
    engineLayers(engine, before, rep);
}

// ------------------------------------------------------------------
// Serve workload: a bench_serve daemon and closed-loop clients.

/** A spawned bench_serve --socket daemon; killed if still up at exit. */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::string &socket)
        : socket_(socket)
    {
        fs::remove(socket_);
        const std::vector<std::string> args = {
            opt.serveBin,
            "--socket=" + socket_,
            "--jobs=" + std::to_string(opt.jobs),
            "--branches=" + std::to_string(opt.branches),
            "--max-sessions="
                + std::to_string(std::clamp(opt.jobs * 2, 8u, 256u)),
            "--quiet",
        };
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        std::vector<char *> envp;
        for (char **e = environ; *e; ++e)
            envp.push_back(*e);
        std::string fault = "EV8_FAULT_SPEC=" + opt.daemonFaultSpec;
        if (!opt.daemonFaultSpec.empty())
            envp.push_back(fault.data());
        envp.push_back(nullptr);
        if (posix_spawn(&pid_, opt.serveBin.c_str(), nullptr, nullptr,
                        argv.data(), envp.data())
            != 0) {
            throw std::runtime_error("cannot spawn " + opt.serveBin);
        }
        // Ready once the socket accepts a connection.
        std::string err;
        for (int i = 0; i < 3000; ++i) {
            const int fd = serveio::connectUnix(socket_, err);
            if (fd >= 0) {
                ::close(fd);
                return;
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("bench_serve exited at start-up");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        kill(pid_, SIGKILL);
        stop();
        throw std::runtime_error("bench_serve never listened: " + err);
    }

    /** An error path left the daemon up: drain it (SIGTERM) and reap. */
    ~Daemon()
    {
        if (pid_ > 0)
            kill(pid_, SIGTERM);
        stop();
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

    /** Kills (if needed) and reaps the daemon; returns its exit code. */
    int
    stop()
    {
        if (pid_ < 0)
            return exitCode_;
        int status = 0;
        for (int i = 0; i < 1000; ++i) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                exitCode_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
                return exitCode_;
            }
            if (i == 500)
                kill(pid_, SIGKILL);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return exitCode_;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    int exitCode_ = -1;
};

/** One client connection; every call is one timed RPC. */
class Client
{
  public:
    explicit Client(const std::string &socket)
    {
        std::string err;
        const int fd = serveio::connectUnix(socket, err);
        if (fd < 0)
            throw std::runtime_error("connect " + socket + ": " + err);
        channel_ = std::make_unique<serveio::LineChannel>(
            fd, serveio::kMaxReplyLine);
    }

    JsonValue
    call(const ServeRequest &req)
    {
        Span span("serve.rpc." + req.op);
        const int64_t t0 = nowNs();
        std::string reply;
        if (!channel_->writeLine(encodeRequest(req))
            || channel_->readLine(reply) != serveio::LineStatus::Ok) {
            throw std::runtime_error("connection lost during " + req.op);
        }
        const double ms = secondsSince(t0) * 1e3;
        rpcs.emplace_back(req.op, ms);
        JsonValue doc = parseJson(reply);
        const JsonValue *ok = doc.find("ok");
        if (!ok || ok->kind != JsonValue::Kind::Bool || !ok->boolean) {
            const JsonValue *error = doc.find("error");
            throw std::runtime_error(
                req.op + " refused: "
                + (error && error->isString() ? error->text : reply));
        }
        return doc;
    }

    std::vector<std::pair<std::string, double>> rpcs;

  private:
    std::unique_ptr<serveio::LineChannel> channel_;
};

ServeRequest
request(const std::string &op, const std::string &session = "")
{
    ServeRequest req;
    req.op = op;
    req.session = session;
    return req;
}

double
jsonNumber(const JsonValue &obj, const char *name)
{
    const JsonValue *v = obj.find(name);
    return v && v->isNumber() ? v->number : 0.0;
}

struct RingTally
{
    double pushStallNs = 0.0;
    double popStallNs = 0.0;
    double sessionNs = 0.0;
};

/**
 * One served session: open, start, snapshot polling until done, wait.
 * @p pings extra pings on the idle (opened, not started) session.
 */
GridRun
serveSession(Client &client, const std::string &name,
             const std::string &grid_id, RingTally &ring, unsigned pings,
             std::vector<double> *ping_ms)
{
    Span span("serve.session", g_spans ? g_spans->nextId() : 0);
    const int64_t t0 = nowNs();
    ServeRequest open = request("open", name);
    open.grid = grid_id;
    open.wantEvents = false;
    open.wantMetrics = false;
    open.timing = false;
    client.call(open);
    for (unsigned i = 0; i < pings; ++i) {
        const int64_t p0 = nowNs();
        client.call(request("ping", name));
        ping_ms->push_back(secondsSince(p0) * 1e3);
    }
    const int64_t run0 = nowNs();
    client.call(request("start", name));
    for (;;) {
        const JsonValue snap = client.call(request("snapshot", name));
        const JsonValue *state = snap.find("state");
        if (state && state->isString() && state->text == "done") {
            if (const JsonValue *r = snap.find("ring")) {
                ring.pushStallNs += jsonNumber(*r, "push_stall_ns");
                ring.popStallNs += jsonNumber(*r, "pop_stall_ns");
            }
            break;
        }
        // The poll interval of bench_serve_load's load mode.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ring.sessionNs += static_cast<double>(nowNs() - run0);
    const JsonValue done = client.call(request("wait", name));

    const GridSpec &grid = gridOf(grid_id);
    const auto &suite = specint95Suite();
    const size_t n = grid.rows.size() * suite.size();
    GridRun run;
    run.grid = grid_id;
    run.cells = n;
    run.failedCells = done.at("failures").items.size();
    std::vector<CellCount> cells;
    for (const JsonValue &item : done.at("cells").items) {
        GridCheckpoint::RestoredCell cell;
        const size_t idx = decodeCellRecord(item.text, n, cell);
        run.laneBranches += cell.result.sim.condBranches;
        cells.push_back({grid.rows[idx / suite.size()].label,
                         cell.result.bench,
                         cell.result.sim.stats.mispredictions()});
    }
    if (cells.size() + run.failedCells != n)
        throw std::runtime_error("wait reply for " + name
                                 + " has the wrong cell count");
    run.digest = gridDigest(grid_id, std::move(cells));
    run.ms = secondsSince(t0) * 1e3;
    return run;
}

/**
 * serveSession with its failure recorded rather than thrown: a refused
 * reply, a lost connection or a wait reply with the wrong cell count
 * fails every cell of the session. The client then reconnects for its
 * next session, keeping its RPC samples; when it cannot, the samples
 * move to @p lost_rpcs and @p client is left null.
 */
GridRun
trySession(std::unique_ptr<Client> &client, const std::string &socket,
           const std::string &name, const std::string &grid_id,
           RingTally &ring,
           std::vector<std::pair<std::string, double>> &lost_rpcs)
{
    try {
        return serveSession(*client, name, grid_id, ring, 0, nullptr);
    } catch (const std::exception &err) {
        GridRun run;
        run.grid = grid_id;
        run.cells = gridOf(grid_id).rows.size() * specint95Suite().size();
        run.failedCells = run.cells;
        run.error = name + ": " + err.what();
        std::vector<std::pair<std::string, double>> rpcs =
            std::move(client->rpcs);
        client.reset();
        try {
            client = std::make_unique<Client>(socket);
            client->rpcs = std::move(rpcs);
        } catch (const std::exception &) {
            lost_rpcs.insert(lost_rpcs.end(), rpcs.begin(), rpcs.end());
        }
        return run;
    }
}

/** Closed loop: one client per job, each waiting for every reply. */
struct ClientResult
{
    std::vector<GridRun> runs;
    std::vector<double> roundS;
    std::vector<uint64_t> roundBranches; //!< lane-branches per round
    std::vector<std::pair<std::string, double>> rpcs;
    RingTally ring;
    std::string error;
};

void
closedLoop(const Options &opt, Daemon &daemon, double seconds,
           size_t rounds_cap, uint64_t seed, const std::string &tag,
           std::vector<ClientResult> &out)
{
    const std::vector<std::string> &grids = workloadGrids(opt.workload);
    out.assign(opt.jobs, ClientResult{});
    const int64_t start = nowNs();
    const uint64_t parent = t_parent;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < opt.jobs; ++c) {
        threads.emplace_back([&, c] {
            t_parent = parent;
            ClientResult &res = out[c];
            try {
                std::mt19937_64 rng(seed * 1000003ULL + c);
                std::this_thread::sleep_for(std::chrono::microseconds(
                    std::uniform_int_distribution<int>(0, 20000)(rng)));
                auto client = std::make_unique<Client>(daemon.socket());
                std::vector<std::string> order = grids;
                size_t serial = 0;
                // A round is one session per grid, in a seeded order.
                // The deadline is checked before every session, so the
                // clients stop within one session of each other and the
                // measured window has no long tail of idle clients; a
                // round cut short records its sessions but no round wall.
                bool stopped = false;
                for (size_t round = 0; round < rounds_cap && !stopped;
                     ++round) {
                    std::shuffle(order.begin(), order.end(), rng);
                    const int64_t r0 = nowNs();
                    uint64_t branches = 0;
                    for (const std::string &g : order) {
                        stopped = !client || secondsSince(start) >= seconds;
                        if (stopped)
                            break;
                        const std::string name = tag + "-c"
                            + std::to_string(c) + "-"
                            + std::to_string(serial++);
                        res.runs.push_back(trySession(client,
                                                      daemon.socket(), name,
                                                      g, res.ring,
                                                      res.rpcs));
                        branches += res.runs.back().laneBranches;
                    }
                    if (!stopped) {
                        res.roundS.push_back(secondsSince(r0));
                        res.roundBranches.push_back(branches);
                    }
                }
                if (client)
                    res.rpcs.insert(res.rpcs.end(), client->rpcs.begin(),
                                    client->rpcs.end());
            } catch (const std::exception &err) {
                res.error = err.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
}

/**
 * Folds client results into @p rep. A failed session is kept as a run
 * whose cells all failed; a client that could not connect at all
 * throws.
 */
void
collectClients(std::vector<ClientResult> &clients, Report &rep,
               std::vector<double> &round_s,
               std::vector<uint64_t> &round_branches, RingTally &ring)
{
    for (ClientResult &c : clients) {
        if (!c.error.empty())
            throw std::runtime_error("serve client: " + c.error);
        for (GridRun &run : c.runs) {
            if (run.error.empty())
                rep.sessionMs.push_back(run.ms);
            rep.runs.push_back(std::move(run));
        }
        for (const auto &[op, ms] : c.rpcs) {
            rep.rpcMs.push_back(ms);
            rep.rpcByOp[op].push_back(ms);
        }
        round_s.insert(round_s.end(), c.roundS.begin(), c.roundS.end());
        round_branches.insert(round_branches.end(), c.roundBranches.begin(),
                              c.roundBranches.end());
        ring.pushStallNs += c.ring.pushStallNs;
        ring.popStallNs += c.ring.popStallNs;
        ring.sessionNs += c.ring.sessionNs;
    }
}

void
serveStatsLayers(Client &admin, const RingTally &ring,
                 double cpu_s, double wall_s, const Options &opt,
                 Report &rep)
{
    const JsonValue stats = admin.call(request("stats"));
    rep.layers["serve.sessions_shed"] = jsonNumber(stats, "sessions_shed");
    rep.layers["serve.sessions_expired"] =
        jsonNumber(stats, "sessions_expired");
    rep.layers["serve.daemon_cpu_util"] = cpu_s / (wall_s * opt.jobs);
    rep.layers["serve.push_stall_frac"] = ring.sessionNs > 0
        ? ring.pushStallNs / ring.sessionNs
        : 0.0;
    rep.layers["serve.pop_stall_frac"] = ring.sessionNs > 0
        ? ring.popStallNs / ring.sessionNs
        : 0.0;
}

bool
anySessionFailed(const Report &rep)
{
    return std::any_of(rep.runs.begin(), rep.runs.end(),
                       [](const GridRun &run) { return !run.error.empty(); });
}

/**
 * Starts the daemon and runs one warm-up session per grid. The warm-up
 * sessions run at once, one client each and at most one per job: one
 * served session keeps about one core busy, so sessions run one after
 * another timed that one core's share of a shared host, which moved by
 * 20 % from run to run.
 */
std::unique_ptr<Daemon>
setupServe(const Options &opt, Report &rep)
{
    const std::vector<std::string> &grids = workloadGrids(opt.workload);
    const size_t clients = std::min<size_t>(grids.size(), opt.jobs);
    const std::string socket = opt.work + "/serve.sock";
    std::unique_ptr<Daemon> daemon;
    for (unsigned r = 0; r < opt.setupReps; ++r) {
        if (daemon) {
            Client(daemon->socket()).call(request("shutdown"));
            if (daemon->stop() != 0 && !anySessionFailed(rep))
                throw std::runtime_error("bench_serve failed at shutdown");
            daemon.reset();
        }
        Span span("setup", g_spans ? g_spans->nextId() : 0);
        const int64_t t0 = nowNs();
        {
            Span s("serve.daemon_start");
            daemon = std::make_unique<Daemon>(opt, socket);
        }
        std::vector<GridRun> warm(grids.size());
        std::vector<std::string> errors(clients);
        std::atomic<size_t> next{0};
        const uint64_t parent = t_parent;
        std::vector<std::thread> threads;
        for (size_t c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                t_parent = parent;
                try {
                    auto client = std::make_unique<Client>(daemon->socket());
                    RingTally ring;
                    std::vector<std::pair<std::string, double>> lost;
                    for (size_t g; (g = next++) < grids.size();) {
                        if (!client)
                            throw std::runtime_error("bench_serve went away");
                        warm[g] = trySession(
                            client, daemon->socket(),
                            "warmup-" + std::to_string(r) + "-" + grids[g],
                            grids[g], ring, lost);
                    }
                } catch (const std::exception &err) {
                    errors[c] = err.what();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        rep.setupS.push_back(secondsSince(t0));
        for (const std::string &error : errors) {
            if (!error.empty())
                throw std::runtime_error("set-up: " + error);
        }
        for (GridRun &run : warm)
            rep.runs.push_back(std::move(run));
    }
    return daemon;
}

void
runServeWorkload(const Options &opt, Report &rep)
{
    std::unique_ptr<Daemon> daemon = setupServe(opt, rep);
    std::vector<ClientResult> clients;
    RingTally ring;
    SpanLog *log = g_spans;
    if (opt.trace) {
        g_spans = nullptr;
        closedLoop(opt, *daemon, opt.seconds / 2, 100000, opt.seed, "u",
                   clients);
        RingTally untracedRing;
        std::vector<uint64_t> untracedBranches;
        collectClients(clients, rep, rep.untracedPassS, untracedBranches,
                       untracedRing);
        g_spans = log;
    }
    const double cpu0 = procCpuS(daemon->pid());
    const double selfCpu0 = selfCpuS();
    const int64_t t0 = nowNs();
    const size_t cap = opt.trace
        ? std::max<size_t>(1, rep.untracedPassS.size() / opt.jobs)
        : 100000;
    closedLoop(opt, *daemon, opt.trace ? 1e9 : opt.seconds, cap,
               opt.seed + 7919, "m", clients);
    const double wall = secondsSince(t0);
    const double cpu = procCpuS(daemon->pid()) - cpu0;
    const double clientCpu = selfCpuS() - selfCpu0;
    collectClients(clients, rep, rep.passS, rep.passBranches, ring);

    Client admin(daemon->socket());
    if (opt.trace) {
        serveStatsLayers(admin, ring, cpu, wall, opt, rep);
        rep.layers["host.cpu_util"] = (cpu + clientCpu) / (wall * opt.jobs);
        for (const char *op : {"open", "start", "snapshot", "wait"}) {
            rep.layers[std::string("serve.rpc_p50_ms.") + op] =
                median(rep.rpcByOp[op]);
        }
    }
    rep.peakRssMb = vmHwmMb(daemon->pid());
    admin.call(request("shutdown"));
    // A daemon whose sessions failed may exit non-zero; those failures
    // are in the runs already.
    if (daemon->stop() != 0 && !anySessionFailed(rep))
        throw std::runtime_error("bench_serve exited non-zero");
}

// ------------------------------------------------------------------
// Layer probes (traced runs): each layer measured on its own.

/** Median lane-branch rate (Mbr/s) of repeated fused walks. */
double
fusedRate(const BlockStream &stream,
          const std::vector<const GridRowSpec *> &rows,
          const SimConfig &config, bool timed, bool events,
          double min_seconds)
{
    std::vector<double> rates;
    const int64_t start = nowNs();
    while (rates.size() < 3
           || (secondsSince(start) < min_seconds && rates.size() < 50)) {
        std::vector<PredictorPtr> preds;
        std::vector<BufferedEventSink> sinks(rows.size());
        std::vector<FusedLane> lanes;
        for (size_t i = 0; i < rows.size(); ++i) {
            preds.push_back(makeRowPredictor(*rows[i]));
            FusedLane lane;
            lane.predictor = preds.back().get();
            lane.events = events ? &sinks[i] : nullptr;
            lanes.push_back(lane);
        }
        SimConfig cfg = config;
        cfg.profileTiming = timed;
        Span span("kernel.simulateStreamFused");
        const int64_t t0 = nowNs();
        const std::vector<SimResult> out =
            simulateStreamFused(stream, lanes, cfg);
        const double s = secondsSince(t0);
        uint64_t branches = 0;
        for (const SimResult &r : out)
            branches += r.condBranches;
        rates.push_back(static_cast<double>(branches) / s * 1e-6);
    }
    return median(rates);
}

/** Median rate (Mbr/s) of repeated per-cell simulateStream() walks. */
double
cellRate(const BlockStream &stream, const GridRowSpec &row,
         SimConfig config, bool generic)
{
    config.forceGenericKernel = generic;
    std::vector<double> rates;
    const int64_t start = nowNs();
    while (rates.size() < 3
           || (secondsSince(start) < 0.3 && rates.size() < 50)) {
        PredictorPtr pred = makeRowPredictor(row);
        Span span("kernel.simulateStream");
        const int64_t t0 = nowNs();
        const SimResult out = simulateStream(stream, *pred, config);
        rates.push_back(static_cast<double>(out.condBranches)
                        / secondsSince(t0) * 1e-6);
    }
    return median(rates);
}

std::vector<const GridRowSpec *>
rowsWhere(const GridSpec &grid,
          const std::function<bool(const GridRowSpec &)> &keep)
{
    std::vector<const GridRowSpec *> rows;
    for (const GridRowSpec &row : grid.rows) {
        if (keep(row))
            rows.push_back(&row);
    }
    return rows;
}

void
probeTraceCache(const Options &opt, Report &rep)
{
    Span span("probe.trace_cache");
    const std::string dir = opt.work + "/probe-cache";
    fs::remove_all(dir);
    double synthS = 0, decodeS = 0, loadS = 0, branches = 0;
    {
        useCacheDir("");
        SuiteRunner runner(opt.branches, 1);
        for (size_t i = 0; i < runner.size(); ++i) {
            int64_t t0 = nowNs();
            {
                Span s("trace_cache.trace");
                runner.trace(i);
            }
            synthS += secondsSince(t0);
            t0 = nowNs();
            {
                Span s("block_stream.decode");
                branches += static_cast<double>(
                    runner.blockStream(i).branches());
            }
            decodeS += secondsSince(t0);
        }
    }
    useCacheDir(dir);
    {
        SuiteRunner fill(opt.branches, 1);
        for (size_t i = 0; i < fill.size(); ++i)
            fill.blockStream(i);
    }
    {
        SuiteRunner warm(opt.branches, 1);
        const int64_t t0 = nowNs();
        for (size_t i = 0; i < warm.size(); ++i) {
            Span s("trace_cache.load");
            warm.blockStream(i);
        }
        loadS = secondsSince(t0);
        // The daemon keeps its cache in memory; for the serve workload
        // the cache view comes from this warm-disk load instead.
        if (opt.workload == "serve-sessions")
            cacheLayers(warm.traceCache(), dir, rep);
    }
    fs::remove_all(dir);
    rep.layers["trace_cache.synth_mbr_s"] = branches / synthS * 1e-6;
    rep.layers["block_stream.decode_mbr_s"] = branches / decodeS * 1e-6;
    rep.layers["trace_cache.load_mbr_s"] = branches / loadS * 1e-6;
}

void
probeKernels(SuiteRunner &runner, Report &rep)
{
    Span span("probe.kernel");
    // The smallest suite stream: the timed walk is ~8x slower than the
    // plain one, and every probe repeats its walk at least three times.
    size_t pick = 0;
    for (size_t i = 1; i < runner.size(); ++i) {
        if (runner.blockStream(i).branches()
            < runner.blockStream(pick).branches())
            pick = i;
    }
    const BlockStream &stream = runner.blockStream(pick);
    const GridSpec &fig6 = gridOf("fig6");
    const SimConfig ghist = baseConfig(fig6);
    const auto family = [&](const char *prefix) {
        return rowsWhere(fig6, [prefix](const GridRowSpec &row) {
            return row.label.rfind(prefix, 0) == 0;
        });
    };
    rep.layers["kernel.gskew_mbr_s"] =
        fusedRate(stream, family("2Bc-gskew"), ghist, false, false, 0.3);
    rep.layers["kernel.gshare_mbr_s"] =
        fusedRate(stream, family("gshare"), ghist, false, false, 0.3);
    rep.layers["kernel.yags_mbr_s"] =
        fusedRate(stream, family("YAGS"), ghist, false, false, 0.3);
    rep.layers["kernel.bimode_mbr_s"] =
        fusedRate(stream, family("bi-mode"), ghist, false, false, 0.3);

    // One 2Bc-gskew lane on the per-cell kernel, devirtualized and
    // forced generic (ROADMAP item 2: the devirtualized one measured
    // slower).
    const auto gskew512 = rowsWhere(gridOf("fig5"), [](const auto &r) {
        return r.spec == "fig5-2bcgskew512";
    });
    rep.layers["kernel.gskew_cell_mbr_s"] =
        cellRate(stream, *gskew512.at(0), ghist, false);
    rep.layers["kernel.gskew_cell_generic_mbr_s"] =
        cellRate(stream, *gskew512.at(0), ghist, true);

    // EV8 lanes: every Ev8Predictor row of the ev8-cold grids that
    // walks the full EV8 information vector.
    std::vector<const GridRowSpec *> ev8Rows;
    for (const char *id : {"ablation-update-policy", "ablation-banking"}) {
        const GridSpec &grid = gridOf(id);
        for (const GridRowSpec *row : rowsWhere(grid, [&](const auto &r) {
                 const SimConfig c = rowBaseConfig(grid, r);
                 return c.history == HistoryMode::LghistPath
                     && c.historyAge == 3 && c.assignBanks
                     && dynamic_cast<Ev8Predictor *>(
                            makeRowPredictor(r).get());
             }))
            ev8Rows.push_back(row);
    }
    rep.layers["kernel.ev8_mbr_s"] =
        fusedRate(stream, ev8Rows, SimConfig::ev8(), false, false, 0.3);

    // The observability cost: the whole fig6 walk, plain / timed /
    // with an event sink on every lane.
    const auto all = rowsWhere(fig6, [](const GridRowSpec &) {
        return true;
    });
    rep.layers["obs.plain_mbr_s"] =
        fusedRate(stream, all, ghist, false, false, 0.5);
    rep.layers["obs.timed_mbr_s"] =
        fusedRate(stream, all, ghist, true, false, 0.0);
    rep.layers["obs.events_mbr_s"] =
        fusedRate(stream, all, ghist, false, true, 0.0);
}

void
probeGrids(SuiteRunner &runner, Report &rep, std::mt19937_64 &rng)
{
    Span span("probe.experiment");
    for (const std::string &id : kAllGrids) {
        GridRun run = runBatchGrid(runner, id, false, rng);
        rep.layers["experiment.grid_s." + id] = run.ms * 1e-3;
        rep.runs.push_back(std::move(run));
    }
}

/**
 * Serve layer probe: 200 pings of an opened, idle session on a fresh
 * daemon, then one session per serve grid. The session-level layer view
 * is kept only for the batch workloads; serve-sessions measured it under
 * its own load.
 */
void
probeServe(const Options &opt, Report &rep)
{
    Span span("probe.serve");
    Options serveOpt = opt;
    serveOpt.workload = "serve-sessions";
    Daemon daemon(serveOpt, opt.work + "/probe.sock");
    Client client(daemon.socket());
    RingTally ring;
    std::vector<double> pings;
    const double cpu0 = procCpuS(daemon.pid());
    const int64_t t0 = nowNs();
    unsigned pingCount = 200;
    for (const std::string &g : workloadGrids(serveOpt.workload)) {
        rep.runs.push_back(serveSession(client, "probe-" + g, g, ring,
                                        pingCount, &pings));
        pingCount = 0;
    }
    rep.layers["serve.ping_idle_ms"] = median(pings);
    if (opt.workload != "serve-sessions") {
        serveStatsLayers(client, ring, procCpuS(daemon.pid()) - cpu0,
                         secondsSince(t0), opt, rep);
        std::map<std::string, std::vector<double>> byOp;
        for (const auto &[op, ms] : client.rpcs)
            byOp[op].push_back(ms);
        for (const char *op : {"open", "start", "snapshot", "wait"}) {
            rep.layers[std::string("serve.rpc_p50_ms.") + op] =
                median(byOp[op]);
        }
    }
    client.call(request("shutdown"));
    if (daemon.stop() != 0)
        throw std::runtime_error("probe bench_serve exited non-zero");
}

void
runProbes(const Options &opt, Report &rep)
{
    std::mt19937_64 rng(opt.seed ^ 0x9e3779b97f4a7c15ULL);
    probeTraceCache(opt, rep);
    useCacheDir("");
    SuiteRunner runner(opt.branches, opt.jobs);
    {
        Span span("probe.setup");
        loadAllStreams(runner);
    }
    probeKernels(runner, rep);
    const EngineMark before = EngineMark::of(runner.engine());
    probeGrids(runner, rep, rng);
    // The served engine is out of reach; serve-sessions takes its engine
    // view from the probe's in-process run of the registry grids.
    if (opt.workload == "serve-sessions")
        engineLayers(runner.engine(), before, rep);
    probeServe(opt, rep);
}

// ------------------------------------------------------------------

void
writeDoubles(JsonWriter &w, const char *name, const std::vector<double> &v)
{
    w.key(name);
    w.beginArray();
    for (double x : v)
        w.value(x);
    w.endArray();
}

void
writeReport(const Options &opt, const Report &rep)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("workload");
    w.value(opt.workload);
    w.key("seed");
    w.value(opt.seed);
    w.key("branches");
    w.value(opt.branches);
    w.key("jobs");
    w.value(uint64_t{opt.jobs});
    w.key("simd_backend");
    w.value(simd::backendName(simd::activeBackend()));
    w.key("build_type");
    w.value(PB_BUILD_TYPE);
    w.key("cxx_flags");
    w.value(PB_CXX_FLAGS);
    w.key("compiler");
    w.value(PB_COMPILER);
    writeDoubles(w, "setup_s", rep.setupS);
    writeDoubles(w, "pass_s", rep.passS);
    writeDoubles(w, "untraced_pass_s", rep.untracedPassS);
    writeDoubles(w, "session_ms", rep.sessionMs);
    writeDoubles(w, "rpc_ms", rep.rpcMs);
    w.key("pass_branches");
    w.beginArray();
    for (uint64_t b : rep.passBranches)
        w.value(b);
    w.endArray();
    w.key("peak_rss_mb");
    w.value(rep.peakRssMb);
    w.key("runs");
    w.beginArray();
    for (const GridRun &run : rep.runs) {
        w.beginObject();
        w.key("grid");
        w.value(run.grid);
        w.key("digest");
        w.value(run.digest);
        w.key("cells");
        w.value(run.cells);
        w.key("failed_cells");
        w.value(run.failedCells);
        if (!run.error.empty()) {
            w.key("error");
            w.value(run.error);
        }
        w.endObject();
    }
    w.endArray();
    w.key("layers");
    w.beginObject();
    for (const auto &[name, value] : rep.layers) {
        w.key(name);
        w.value(value);
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", out.str().c_str());
}

bool
parseArg(const char *arg, const char *name, std::string &out)
{
    const size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return false;
    out = arg + len + 1;
    return true;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (parseArg(argv[i], "--workload", v))
            opt.workload = v;
        else if (parseArg(argv[i], "--seed", v))
            opt.seed = std::stoull(v);
        else if (parseArg(argv[i], "--seconds", v))
            opt.seconds = std::stod(v);
        else if (parseArg(argv[i], "--trace", v))
            opt.trace = v == "1";
        else if (parseArg(argv[i], "--branches", v))
            opt.branches = std::stoull(v);
        else if (parseArg(argv[i], "--jobs", v))
            opt.jobs = static_cast<unsigned>(std::stoul(v));
        else if (parseArg(argv[i], "--work", v))
            opt.work = v;
        else if (parseArg(argv[i], "--serve-bin", v))
            opt.serveBin = v;
        else if (parseArg(argv[i], "--daemon-fault-spec", v))
            opt.daemonFaultSpec = v;
        else if (parseArg(argv[i], "--setup-reps", v))
            opt.setupReps = static_cast<unsigned>(std::stoul(v));
        else
            throw std::invalid_argument(std::string("unknown argument ")
                                        + argv[i]);
    }
    workloadGrids(opt.workload); // validates the name
    if (opt.work.empty() || opt.serveBin.empty() || opt.jobs == 0
        || opt.setupReps == 0)
        throw std::invalid_argument("--work, --serve-bin, --jobs and "
                                    "--setup-reps are required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parseOptions(argc, argv);
        fs::create_directories(opt.work);
        SpanLog spans;
        if (opt.trace)
            g_spans = &spans;
        Report rep;
        if (opt.workload == "serve-sessions")
            runServeWorkload(opt, rep);
        else
            runBatchWorkload(opt, rep);
        if (opt.trace) {
            runProbes(opt, rep);
            spans.write(opt.work + "/spans.json");
        }
        g_spans = nullptr;
        writeReport(opt, rep);
        return 0;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ev8_perfbench: %s\n", err.what());
        return 1;
    }
}
