/**
 * @file
 * rex_soak: a c10k soak driver for rexd's event loop.
 *
 * Opens --conns concurrent keep-alive connections (ramped in batches of
 * --ramp nonblocking connects), then pumps --requests-per-conn GET
 * /check/<builtin> requests down each, --pipeline of them back-to-back
 * per batch. Every response is framed by Content-Length and compared
 * byte-for-byte against a reference body fetched once up front: the
 * point of the soak is not just that the server survives 10k sockets
 * but that every verdict served under that load is identical to the
 * verdict served to a single polite client.
 *
 * Failure conditions (exit 1):
 *   - any transport error (reset, refused, short write);
 *   - any response other than 200 — unless --allow-sheds, which
 *     tolerates 503 (deliberate load-shedding) but still fails on
 *     other 5xx;
 *   - any 200 body differing from the reference;
 *   - responses out of order within a pipelined batch (caught by the
 *     byte comparison: all bodies are identical only per-request).
 *
 * A final summary line reports connections, requests, responses by
 * status, wall time, and requests/second. Linux-only (epoll); on other
 * platforms it prints a notice and exits 0 so smoke harnesses can call
 * it unconditionally.
 *
 * Usage:
 *   example_rex_soak --port P [--host H] [--conns N] [--ramp N]
 *                    [--requests-per-conn N] [--pipeline N]
 *                    [--builtin NAME] [--allow-sheds]
 */

#ifdef __linux__

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/client.hh"

namespace {

struct Options {
    std::string host = "127.0.0.1";
    int port = 8643;
    int conns = 10000;
    int ramp = 500;
    int requestsPerConn = 3;
    int pipeline = 1;
    std::string builtin = "SB+pos";
    bool allowSheds = false;
};

/** One soak connection's life: connect → send batch → read batch →
 *  repeat until its request budget is spent → close. */
struct SoakConn {
    int fd = -1;
    bool connecting = false;
    std::string out;         //!< unsent request bytes
    std::size_t outOff = 0;
    std::string in;          //!< unparsed response bytes
    int sent = 0;            //!< requests written so far
    int answered = 0;        //!< responses fully parsed so far
    bool done = false;
};

struct Stats {
    long requests = 0;
    long ok = 0;
    long sheds = 0;
    long otherStatus = 0;
    long mismatches = 0;
    long transportErrors = 0;
};

int
soakError(const char *what)
{
    std::fprintf(stderr, "rex_soak: %s: %s\n", what,
                 std::strerror(errno));
    return 1;
}

/** Zero the schedule-dependent verdict fields (wall_us, cache_hit) so
 *  bodies compare byte-for-byte across cache misses and hits. */
std::string
stabilise(std::string body)
{
    static const char kWall[] = "\"wall_us\":";
    std::size_t pos = 0;
    while ((pos = body.find(kWall, pos)) != std::string::npos) {
        std::size_t digits = pos + sizeof(kWall) - 1;
        std::size_t end = digits;
        while (end < body.size() && body[end] >= '0' && body[end] <= '9')
            ++end;
        body.replace(digits, end - digits, 1, '0');
        pos = digits;
    }
    static const char kHit[] = "\"cache_hit\":true";
    while ((pos = body.find(kHit)) != std::string::npos)
        body.replace(pos, sizeof(kHit) - 1, "\"cache_hit\":false");
    return body;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--host")
            opt.host = value();
        else if (arg == "--port")
            opt.port = std::atoi(value());
        else if (arg == "--conns")
            opt.conns = std::atoi(value());
        else if (arg == "--ramp")
            opt.ramp = std::atoi(value());
        else if (arg == "--requests-per-conn")
            opt.requestsPerConn = std::atoi(value());
        else if (arg == "--pipeline")
            opt.pipeline = std::atoi(value());
        else if (arg == "--builtin")
            opt.builtin = value();
        else if (arg == "--allow-sheds")
            opt.allowSheds = true;
        else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return 2;
        }
    }
    if (opt.conns < 1 || opt.requestsPerConn < 1 || opt.pipeline < 1) {
        std::fprintf(stderr, "rex_soak: counts must be positive\n");
        return 2;
    }
    opt.pipeline = std::min(opt.pipeline, opt.requestsPerConn);

    const std::string target = "/check/" + opt.builtin + "?variants=base";
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: soak\r\n\r\n";

    // Reference body from one polite blocking request: every soak
    // response must match it byte for byte.
    std::string reference;
    try {
        rex::server::Client warm(opt.host,
                                 static_cast<std::uint16_t>(opt.port));
        rex::server::ClientResponse r = warm.get(target);
        if (r.status != 200) {
            std::fprintf(stderr,
                         "rex_soak: warm-up GET %s answered %d\n",
                         target.c_str(), r.status);
            return 1;
        }
        reference = stabilise(r.body);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rex_soak: warm-up failed: %s\n", e.what());
        return 1;
    }

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
    if (::inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
        std::fprintf(stderr, "rex_soak: bad host %s\n",
                     opt.host.c_str());
        return 2;
    }

    int epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd < 0)
        return soakError("epoll_create1");

    std::vector<SoakConn> conns(static_cast<std::size_t>(opt.conns));
    Stats stats;
    int peakOpen = 0;
    int open = 0;
    int launched = 0;
    int finished = 0;
    bool pumping = false;  //!< all handshakes done; requests flowing
    const auto start = std::chrono::steady_clock::now();

    auto setInterest = [&](std::size_t id, bool add) {
        SoakConn &c = conns[id];
        struct epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.data.u64 = id;
        ev.events = EPOLLIN;
        if (c.connecting || c.outOff < c.out.size())
            ev.events |= EPOLLOUT;
        ::epoll_ctl(epollFd, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD,
                    c.fd, &ev);
    };

    auto queueBatch = [&](SoakConn &c) {
        int batch = std::min(opt.pipeline, opt.requestsPerConn - c.sent);
        for (int k = 0; k < batch; ++k)
            c.out += request;
        c.sent += batch;
        stats.requests += batch;
    };

    auto launchOne = [&](std::size_t id) -> bool {
        SoakConn &c = conns[id];
        c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
        if (c.fd < 0)
            return false;
        int one = 1;
        ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        int rc = ::connect(
            c.fd, reinterpret_cast<struct sockaddr *>(&addr),
            sizeof(addr));
        if (rc < 0 && errno != EINPROGRESS) {
            ::close(c.fd);
            c.fd = -1;
            return false;
        }
        c.connecting = rc < 0;
        setInterest(id, true);
        ++open;
        peakOpen = std::max(peakOpen, open);
        ++launched;
        return true;
    };

    auto finishConn = [&](std::size_t id, bool failed) {
        SoakConn &c = conns[id];
        if (c.fd >= 0) {
            ::epoll_ctl(epollFd, EPOLL_CTL_DEL, c.fd, nullptr);
            ::close(c.fd);
            c.fd = -1;
            --open;
        }
        if (!c.done) {
            c.done = true;
            ++finished;
        }
        if (failed)
            ++stats.transportErrors;
    };

    // Parse complete responses out of c.in; false on a hard failure.
    auto drainResponses = [&](SoakConn &c) -> bool {
        for (;;) {
            std::size_t headEnd = c.in.find("\r\n\r\n");
            if (headEnd == std::string::npos)
                return true;
            int status = 0;
            if (c.in.compare(0, 9, "HTTP/1.1 ") == 0)
                status = std::atoi(c.in.c_str() + 9);
            std::size_t bodyLen = 0;
            {
                // Case-sensitive match is fine: it is our own server.
                std::size_t cl = c.in.find("Content-Length: ");
                if (cl != std::string::npos && cl < headEnd)
                    bodyLen = static_cast<std::size_t>(
                        std::atol(c.in.c_str() + cl + 16));
            }
            std::size_t total = headEnd + 4 + bodyLen;
            if (c.in.size() < total)
                return true;
            std::string body = c.in.substr(headEnd + 4, bodyLen);
            c.in.erase(0, total);
            ++c.answered;
            if (status == 200) {
                ++stats.ok;
                if (stabilise(std::move(body)) != reference)
                    ++stats.mismatches;
            } else if (status == 503) {
                ++stats.sheds;
            } else {
                ++stats.otherStatus;
                std::fprintf(stderr,
                             "rex_soak: unexpected HTTP %d\n", status);
            }
            if (c.answered == c.sent) {
                if (c.sent >= opt.requestsPerConn)
                    return false;  // budget spent; close cleanly
                queueBatch(c);
            }
        }
    };

    std::vector<struct epoll_event> events(1024);
    while (finished < opt.conns) {
        // Keep the ramp topped up: at most `ramp` connections are ever
        // mid-handshake, the rest pipeline requests steadily.
        int connecting = 0;
        for (const SoakConn &c : conns)
            if (c.fd >= 0 && c.connecting)
                ++connecting;
        while (launched < opt.conns && connecting < opt.ramp) {
            std::size_t id = static_cast<std::size_t>(launched);
            if (!launchOne(id)) {
                ++stats.transportErrors;
                ++launched;
                conns[id].done = true;
                ++finished;
                continue;
            }
            if (conns[id].connecting)
                ++connecting;
        }

        // The c10k moment: every connection is up and held open
        // simultaneously — only now do requests start flowing, on all
        // of them at once.
        if (!pumping && launched == opt.conns && connecting == 0) {
            pumping = true;
            for (std::size_t id = 0; id < conns.size(); ++id) {
                if (conns[id].fd < 0)
                    continue;
                queueBatch(conns[id]);
                setInterest(id, false);
            }
        }

        int n = ::epoll_wait(epollFd, events.data(),
                             static_cast<int>(events.size()), 1000);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return soakError("epoll_wait");
        }
        for (int i = 0; i < n; ++i) {
            std::size_t id = static_cast<std::size_t>(events[i].data.u64);
            SoakConn &c = conns[id];
            if (c.fd < 0)
                continue;
            if (c.connecting &&
                (events[i].events & (EPOLLOUT | EPOLLERR))) {
                int err = 0;
                socklen_t len = sizeof(err);
                ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
                if (err != 0) {
                    finishConn(id, true);
                    continue;
                }
                c.connecting = false;
            }
            if (events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) {
                while (c.outOff < c.out.size()) {
                    ssize_t sent = ::send(c.fd, c.out.data() + c.outOff,
                                          c.out.size() - c.outOff,
                                          MSG_NOSIGNAL);
                    if (sent > 0) {
                        c.outOff += static_cast<std::size_t>(sent);
                    } else if (sent < 0 && (errno == EAGAIN ||
                                            errno == EWOULDBLOCK)) {
                        break;
                    } else {
                        finishConn(id, true);
                        break;
                    }
                }
                if (c.fd < 0)
                    continue;
                if (c.outOff == c.out.size()) {
                    c.out.clear();
                    c.outOff = 0;
                }
            }
            if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
                char buf[16384];
                for (;;) {
                    ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
                    if (got > 0) {
                        c.in.append(buf,
                                    static_cast<std::size_t>(got));
                    } else if (got < 0 && (errno == EAGAIN ||
                                           errno == EWOULDBLOCK)) {
                        break;
                    } else {
                        // EOF (or reset) with requests outstanding is
                        // a failure; after the budget it is normal.
                        finishConn(id, c.answered < c.sent);
                        break;
                    }
                }
                if (c.fd < 0)
                    continue;
                if (!drainResponses(c)) {
                    finishConn(id, false);
                    continue;
                }
            }
            if (c.fd >= 0)
                setInterest(id, false);
        }
    }
    ::close(epollFd);

    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    long answered = stats.ok + stats.sheds + stats.otherStatus;
    std::printf(
        "rex_soak: conns=%d peak_open=%d requests=%ld answered=%ld "
        "ok=%ld sheds=%ld other=%ld mismatches=%ld transport_errors=%ld "
        "seconds=%.2f rps=%.0f\n",
        opt.conns, peakOpen, stats.requests, answered, stats.ok,
        stats.sheds, stats.otherStatus, stats.mismatches,
        stats.transportErrors, seconds,
        seconds > 0 ? static_cast<double>(answered) / seconds : 0.0);

    bool failed = stats.mismatches > 0 || stats.otherStatus > 0 ||
        stats.transportErrors > 0 ||
        (!opt.allowSheds && stats.sheds > 0);
    return failed ? 1 : 0;
}

#else // !__linux__

#include <cstdio>

int
main()
{
    std::printf("rex_soak: epoll soak driver requires Linux; skipping\n");
    return 0;
}

#endif
