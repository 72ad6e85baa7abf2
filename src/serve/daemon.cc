#include "serve/daemon.hh"

#include <chrono>
#include <thread>

#include <unistd.h>

#include "obs/trace_span.hh"
#include "serve/protocol.hh"
#include "serve/transport.hh"
#include "sim/fault_injection.hh"

namespace ev8
{

namespace
{

/** Deterministic pause of an injected slow_peer fault. */
constexpr auto kSlowPeerPause = std::chrono::milliseconds(50);

/**
 * The fault key of a request line: "<session>/<op>", "-" standing in
 * for a session-less request. A line that does not even decode offers
 * no key; fault hooks skip it (the server's error reply covers it).
 */
bool
requestFaultKey(const std::string &line, std::string &key)
{
    try {
        const ServeRequest req = decodeRequest(line);
        key = (req.session.empty() ? std::string("-") : req.session)
            + "/" + req.op;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace

ServeDaemon::ServeDaemon(PredictionServer &server, DaemonOptions opts)
    : server_(server), opts_(std::move(opts))
{
}

ServeDaemon::~ServeDaemon()
{
    for (const int fd : listenFds_)
        ::close(fd);
    if (!opts_.unixPath.empty())
        ::unlink(opts_.unixPath.c_str());
}

bool
ServeDaemon::listen(std::string &err)
{
    if (opts_.unixPath.empty() && opts_.tcpHost.empty()) {
        err = "no listener configured";
        return false;
    }
    if (!opts_.unixPath.empty()) {
        const int fd = serveio::listenUnix(opts_.unixPath, err);
        if (fd < 0)
            return false;
        listenFds_.push_back(fd);
    }
    if (!opts_.tcpHost.empty()) {
        const int fd = serveio::listenTcp(opts_.tcpHost, opts_.tcpPort,
                                          boundTcpPort_, err);
        if (fd < 0)
            return false;
        listenFds_.push_back(fd);
    }
    return true;
}

bool
ServeDaemon::stopRequested() const
{
    return opts_.stopFlag != nullptr
        && opts_.stopFlag->load(std::memory_order_relaxed) != 0;
}

void
ServeDaemon::serveConnection(int fd)
{
    SpanTracer::global().setThreadName("serve:conn");
    serveio::LineChannel channel(fd, serveio::kMaxRequestLine);
    FaultInjector &faults = FaultInjector::global();
    const uint64_t idleTimeoutMs = server_.limits().idleTimeoutMs;
    const uint64_t tickMs =
        opts_.pollMs > 0 ? static_cast<uint64_t>(opts_.pollMs) : 200;
    uint64_t idleMs = 0;

    std::string line;
    for (;;) {
        const serveio::LineStatus st =
            channel.readLine(line, static_cast<int>(tickMs));
        if (st == serveio::LineStatus::Timeout) {
            if (closing_.load(std::memory_order_relaxed)
                || server_.shutdownRequested())
                return;
            // One clock covers both the handshake (first request never
            // completes) and idle-between-requests cases: a connection
            // is as stale as its unfinished read.
            idleMs += tickMs;
            if (idleTimeoutMs > 0 && idleMs >= idleTimeoutMs) {
                channel.writeLine(errorReply(
                    "connection idle timeout after "
                    + std::to_string(idleTimeoutMs) + " ms"));
                return;
            }
            continue;
        }
        if (st == serveio::LineStatus::Eof
            || st == serveio::LineStatus::Error)
            return;
        if (st == serveio::LineStatus::TooLong) {
            // Terminal framing violation: answer typed, then hang up
            // (the buffered garbage makes the channel unusable).
            channel.writeLine(errorReply(
                "request line exceeds "
                + std::to_string(serveio::kMaxRequestLine) + " bytes"));
            return;
        }
        if (st == serveio::LineStatus::BadByte) {
            channel.writeLine(
                errorReply("request line embeds a NUL byte"));
            return;
        }
        idleMs = 0;

        // Consult the connection-level fault hooks before handling so
        // conn_drop means "handled, but the reply never made it" --
        // the worst case for a client (work done, ack lost).
        bool connDrop = false;
        bool slowPeer = false;
        std::string key;
        if (faults.enabled() && requestFaultKey(line, key)) {
            connDrop = faults.fires(FaultPoint::ConnDrop, key);
            slowPeer = faults.fires(FaultPoint::SlowPeer, key);
        }

        const std::string reply = server_.handle(line);

        if (connDrop)
            return; // vanish without a reply
        if (slowPeer)
            std::this_thread::sleep_for(kSlowPeerPause);
        if (!channel.writeLine(reply))
            return;
        if (server_.shutdownRequested())
            return;
    }
}

bool
ServeDaemon::run()
{
    bool ok = true;
    while (!server_.shutdownRequested() && !stopRequested()) {
        const int fd =
            serveio::acceptWithTimeout(listenFds_, opts_.pollMs);
        if (fd == -1)
            continue; // tick: re-check shutdown/stop
        if (fd == -2) {
            ok = false;
            break;
        }
        connections_.emplace_back([this, fd] { serveConnection(fd); });
    }

    // External stop -> graceful drain: admission closes first, then
    // in-flight sessions get the deadline to finish. A protocol
    // shutdown keeps its simpler contract (stop accepting, answer the
    // in-flight waits) -- the client asking for it sequences its own
    // waits before the shutdown op.
    if (stopRequested() && !server_.shutdownRequested())
        drainedClean_ = server_.drainWait(opts_.drainMs);

    // Now the connection threads: each notices closing_ within one
    // read tick once its in-flight request (if any) has been answered.
    closing_.store(true, std::memory_order_relaxed);
    for (std::thread &t : connections_)
        t.join();
    connections_.clear();
    return ok;
}

} // namespace ev8
