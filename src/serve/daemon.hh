/**
 * @file
 * The serve accept loop: listeners, connection threads, and the
 * network-facing failure semantics that PredictionServer::handle()
 * (pure request -> reply) deliberately knows nothing about.
 *
 * A ServeDaemon binds an AF_UNIX listener, a TCP listener, or both at
 * once over one PredictionServer, then accepts connections until a
 * client sends {"op":"shutdown"} or the embedding process requests a
 * stop (bench_serve points stopFlag at its SIGTERM/SIGINT flag). Each
 * connection gets its own thread pumping request lines to replies.
 *
 * Hostile-peer behavior, per connection:
 *
 *  - framing violations are terminal: an overlong request line or one
 *    embedding NUL gets a typed {"ok":false,...} reply and the
 *    connection is closed. The violating client's sessions are NOT
 *    touched -- if it reconnects before its lease lapses it can still
 *    wait on them.
 *  - reads tick every ~200 ms, so a vanished peer cannot wedge its
 *    thread: with EV8_SERVE_IDLE_TIMEOUT_MS armed, a connection idle
 *    for that long (including one that never completes the first
 *    request -- the handshake timeout) is closed; the session lease
 *    reaper then reclaims whatever the client abandoned.
 *  - a stop request drains: the server stops admitting sessions
 *    (typed "draining" refusals), in-flight sessions finish inside the
 *    drain deadline (stragglers are force-expired past it), and every
 *    connection thread is joined before run() returns.
 *
 * Fault injection (EV8_FAULT_SPEC, keys "<session>/<op>" with "-" for
 * a session-less request): conn_drop closes the connection after the
 * request is handled but before the reply is written -- the client
 * observes a mid-run connection loss; slow_peer sleeps before the
 * reply -- timing only, artifacts unchanged.
 */

#ifndef EV8_SERVE_DAEMON_HH
#define EV8_SERVE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hh"

namespace ev8
{

/**
 * The external stop flag: written from a signal handler (or another
 * thread) and polled by the accept loop. A lock-free atomic is both
 * async-signal-safe to store and race-free to read across threads,
 * which a volatile sig_atomic_t is not.
 */
using DaemonStopFlag = std::atomic<int>;
static_assert(DaemonStopFlag::is_always_lock_free,
              "the stop flag must be async-signal-safe");

struct DaemonOptions
{
    /** AF_UNIX listener path; "" binds none. */
    std::string unixPath;

    /** TCP listener "host" ("" binds none) and port (0 = ephemeral). */
    std::string tcpHost;
    uint16_t tcpPort = 0;

    /**
     * Drain deadline in ms once a stop is requested: in-flight sessions
     * get this long to finish before being force-expired
     * (EV8_SERVE_DRAIN_MS in bench_serve).
     */
    uint64_t drainMs = 5000;

    /** Accept-loop poll tick in ms (also the read tick granularity). */
    int pollMs = 200;

    /**
     * Optional external stop flag, polled every tick -- bench_serve
     * points this at the flag its SIGTERM/SIGINT handler sets.
     * Non-zero requests a graceful drain.
     */
    const DaemonStopFlag *stopFlag = nullptr;
};

class ServeDaemon
{
  public:
    ServeDaemon(PredictionServer &server, DaemonOptions opts);

    /** run() must have returned (it joins); the dtor only closes fds. */
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /**
     * Binds every configured listener. False + @p err on failure (the
     * daemon is then unusable). At least one listener must be
     * configured.
     */
    bool listen(std::string &err);

    /** The TCP port actually bound (resolves an ephemeral port 0). */
    uint16_t boundTcpPort() const { return boundTcpPort_; }

    /**
     * Accepts and serves connections until a protocol shutdown or an
     * external stop, then drains and joins every connection thread.
     * Returns true on a clean exit, false on a hard accept error.
     */
    bool run();

    /** Did the last run() drain without force-expiring a session? */
    bool drainedClean() const { return drainedClean_; }

  private:
    void serveConnection(int fd);
    bool stopRequested() const;

    PredictionServer &server_;
    const DaemonOptions opts_;
    std::vector<int> listenFds_;
    uint16_t boundTcpPort_ = 0;
    std::vector<std::thread> connections_;
    std::atomic<bool> closing_{false}; //!< tells conn threads to exit
    bool drainedClean_ = true;
};

} // namespace ev8

#endif // EV8_SERVE_DAEMON_HH
