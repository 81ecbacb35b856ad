/**
 * @file
 * The rexd load: an in-process RexServer (2 handler threads, engine at
 * jobs 1 with an in-memory verdict cache of kCacheEntries) driven over
 * 3 keep-alive connections. Each request class runs on its own:
 *
 *   cold        POST /check of a freshly generated test — a cache miss
 *               that does checker work and inserts into the LRU cache;
 *   hit         POST /check of a builtin whose verdicts are cached;
 *   revalidate  GET /check/<builtin> with If-None-Match — a 304 the
 *               event loop answers without the engine.
 *
 * No traffic mix is assumed. Each class is sent open loop at a ladder
 * of fixed offered rates, every request timed from when it was due;
 * the class's latencies are reported at its base rate, and its highest
 * rate is the last rung whose p99 stays within kLimitMs with no failed
 * request. Every answer is checked against an in-process checkTest
 * reference; a 304 stands for the warm-up answer, which is checked at
 * set-up.
 *
 * The load runs only in the traced run and its figures are per-layer
 * metrics, without a bound: on the shared machine the benchmark was
 * tuned on, rexd throughput and latency moved by up to 2x between
 * stretches of tens of minutes.
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <thread>

#include "axiomatic/checker.hh"
#include "engine/batch.hh"
#include "gen/generator.hh"
#include "litmus/parser.hh"
#include "litmus/registry.hh"
#include "loads.hh"
#include "server/client.hh"
#include "server/server.hh"

namespace perfbench {

using namespace rex;

namespace {

constexpr unsigned kConnections = 3;

/** The server engine's in-memory verdict cache: the 24 cache-hit
 *  builtins stay hot while cold tests cycle through and are evicted. */
constexpr std::size_t kCacheEntries = 4096;
constexpr std::size_t kBuiltinsPerClass = 24;

enum Class { kCold = 0, kHit = 1, kRevalidate = 2 };
const char *const kClassNames[] = {"rexd.cold", "rexd.hit",
                                   "rexd.revalidate"};
const char *const kMetricPrefix[] = {"server.cold", "server.hit",
                                     "server.revalidate"};

/** Base offered rate per class, requests per second. The ladder
 *  doubles it kRungs - 1 times. */
constexpr double kBaseRate[] = {250, 1000, 1000};
constexpr int kRungs = 5;

/** The latency limit a rung must hold: p99 from due time. */
constexpr double kLimitMs = 10;

/** A rung's length in units of the load's time; the base rung is
 *  longer, for enough samples beyond its p99. */
constexpr double kBaseUnits = 4;

/**
 * Cold tests: two threads, at most one store per thread. With the
 * hammer's default generator a few tests in a thousand take 10-70 ms to
 * check; in an open loop over three connections each would hold up the
 * requests due behind it, and p99 would count outsized tests rather
 * than time the service. Those tests are the hammer's load.
 */
gen::GenConfig
coldConfig()
{
    gen::GenConfig config;
    config.threeThreadPercent = 0;
    config.maxStoresPerThread = 1;
    return config;
}

/** How long before a request's due time its sender stops sleeping. */
constexpr auto kSpinWindow = std::chrono::microseconds(300);

/** Cold tests the traced run times in-process (engine.* metrics). */
constexpr std::size_t kEngineSampleTests = 200;

std::vector<std::string>
paperVariantNames()
{
    std::vector<std::string> names;
    for (const ModelParams &params : ModelParams::paperVariants())
        names.push_back(params.name());
    return names;
}

std::vector<std::string>
referenceVerdicts(const LitmusTest &test)
{
    std::vector<std::string> out;
    for (const ModelParams &params : ModelParams::paperVariants()) {
        out.push_back(checkTest(test, params, true, false).observable
                          ? "Allowed"
                          : "Forbidden");
    }
    return out;
}

std::string
percentEncode(const std::string &text)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    for (unsigned char c : text) {
        if (std::isalnum(c) || c == '-' || c == '_' || c == '.' ||
                c == '~') {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 15];
        }
    }
    return out;
}

/** The verdicts of an x-ndjson /check body, in record order. */
std::vector<std::string>
bodyVerdicts(const std::string &body)
{
    static const std::string key = "\"verdict\":\"";
    std::vector<std::string> out;
    for (std::size_t at = body.find(key); at != std::string::npos;
         at = body.find(key, at)) {
        at += key.size();
        const std::size_t end = body.find('"', at);
        if (end == std::string::npos)
            break;
        out.push_back(body.substr(at, end - at));
    }
    return out;
}

/** A value of the /metrics exposition (0 when absent). */
double
scrape(const std::string &metrics, const std::string &series)
{
    const std::size_t at = metrics.find("\n" + series + " ");
    if (at == std::string::npos)
        return 0;
    return std::strtod(metrics.c_str() + at + series.size() + 2, nullptr);
}

/** The generated test of a cold request. */
std::string
coldSource(std::uint64_t seed)
{
    return gen::generate(seed, coldConfig()).source;
}

/** What rexd answered to a cold test; checked after the rung. */
struct ColdAnswer {
    std::uint64_t seed = 0;
    std::vector<std::string> verdicts;
};

/** One finished request. */
struct Sample {
    bool ok = false;  //!< status right (cold verdicts are checked later)
    double latencyMs = 0;  //!< from due time
    double lagMs = 0;      //!< send time minus due time
};

std::unique_ptr<server::Client>
connect(RexdServer &server)
{
    auto client = std::make_unique<server::Client>("127.0.0.1",
                                                   server.server->port());
    client->setKeepAlive(true);
    return client;
}

/** Concatenate per-thread vectors into @p out. */
template <typename T>
void
gather(std::vector<std::vector<T>> &parts, std::vector<T> &out)
{
    for (std::vector<T> &part : parts)
        out.insert(out.end(), part.begin(), part.end());
}

/** One rung: a class at one offered rate. */
struct Rung {
    Class cls = kHit;
    double rate = 0;
    std::vector<Sample> samples;
    std::vector<ColdAnswer> cold;
    std::uint64_t backlogMax = 0;
    double wallUs = 0;  //!< connection-thread time
    std::uint64_t failed = 0;

    double
    latency(double q) const
    {
        std::vector<double> out;
        for (const Sample &sample : samples)
            out.push_back(sample.latencyMs);
        return quantile(out, q);
    }

    bool holds() const { return failed == 0 && latency(0.99) <= kLimitMs; }
};

/** Climbs the rate ladders: the rexd load's state across rungs. */
class Ladder
{
  public:
    Ladder(RexdServer &server, std::uint64_t seed)
        : _server(server), _seed(seed),
          _nextCold(mix(seed ^ 0x636f6c64ull) % 1000000000ull),
          _variants(paperVariantNames())
    {}

    /**
     * Send @p cls open loop at @p rate for @p seconds over every
     * connection, then check the cold answers against their
     * references (after the rung, so they are not timed).
     */
    Rung
    run(Class cls, double rate, double seconds, Tracer &tracer)
    {
        Rung rung;
        rung.cls = cls;
        rung.rate = rate;
        const std::uint64_t key_base = ++_rungs << 32;
        const auto total = std::max<std::uint64_t>(
            kConnections, static_cast<std::uint64_t>(rate * seconds));
        const std::uint64_t first_cold = _nextCold;
        _nextCold += total;
        const Clock::time_point begin = Clock::now();
        const Clock::time_point start =
            begin + std::chrono::milliseconds(20);
        auto due = [&](std::uint64_t i) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / rate));
        };
        std::atomic<std::uint64_t> sent{0};
        std::atomic<std::uint64_t> backlog_max{0};
        std::vector<std::vector<Sample>> samples(kConnections);
        std::vector<std::vector<ColdAnswer>> cold(kConnections);
        std::vector<char> broken(kConnections, 0);
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                try {
                    const std::unique_ptr<server::Client> client =
                        connect(_server);
                    for (std::uint64_t i = c; i < total; i += kConnections) {
                        // A cold test is generated before the wait for its
                        // due time, which keeps it out of the latency.
                        std::string body;
                        if (cls == kCold) {
                            body = server::checkRequestJson(
                                coldSource(first_cold + i), _variants);
                        }
                        const Clock::time_point when = due(i);
                        Clock::time_point now = Clock::now();
                        if (now < when) {
                            const std::uint32_t idle =
                                tracer.open("client.idle", key_base | i);
                            // Sleep to just short of the due time, then
                            // spin: a sleeping thread can wake a millisecond
                            // late, which the latency would charge to the
                            // server.
                            std::this_thread::sleep_until(when - kSpinWindow);
                            while (Clock::now() < when) {
                            }
                            tracer.close(idle);
                            now = Clock::now();
                        }
                        // Requests due by now but not yet sent, this one
                        // included.
                        const double elapsed =
                            std::chrono::duration<double>(now - start).count();
                        const auto due_now = std::min<std::uint64_t>(
                            total,
                            static_cast<std::uint64_t>(elapsed * rate) + 1);
                        const std::uint64_t already = sent.fetch_add(1);
                        const std::uint64_t backlog =
                            due_now > already ? due_now - already : 0;
                        std::uint64_t seen = backlog_max.load();
                        while (backlog > seen &&
                               !backlog_max.compare_exchange_weak(seen,
                                                                  backlog)) {
                        }
                        Sample sample;
                        sample.ok = send(*client, cls, i, first_cold + i, body,
                                         cold[c]);
                        const Clock::time_point end = Clock::now();
                        tracer.record(kClassNames[cls], key_base | i, 0, now,
                                      end);
                        sample.lagMs = microsBetween(when, now) / 1e3;
                        sample.latencyMs = microsBetween(when, end) / 1e3;
                        samples[c].push_back(sample);
                    }
                } catch (const std::exception &) {
                    // The connection's remaining requests go unsent.
                    broken[c] = 1;
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
        rung.wallUs = microsBetween(begin, Clock::now()) * kConnections;
        gather(samples, rung.samples);
        gather(cold, rung.cold);
        rung.backlogMax = backlog_max.load();
        for (const Sample &sample : rung.samples) {
            if (!sample.ok)
                ++rung.failed;
        }
        for (char b : broken)
            rung.failed += b;
        for (const ColdAnswer &answer : rung.cold) {
            if (answer.verdicts !=
                    referenceVerdicts(parseLitmus(coldSource(answer.seed))))
                ++rung.failed;
        }
        return rung;
    }

  private:
    /** Send request @p i of @p cls and check its status, and for a hit
     *  its verdicts (a cold answer goes to @p cold). */
    bool
    send(server::Client &client, Class cls, std::uint64_t i,
         std::uint64_t cold_seed, const std::string &cold_body,
         std::vector<ColdAnswer> &cold)
    {
        const std::uint64_t pick = mix(_seed ^ i);
        try {
            if (cls == kRevalidate) {
                const RexdBuiltin &b =
                    _server.revalidations[pick %
                                          _server.revalidations.size()];
                return client.get(b.path, {{"If-None-Match", b.etag}})
                           .status == 304;
            }
            if (cls == kCold) {
                server::ClientResponse response =
                    client.post("/check", cold_body);
                cold.push_back({cold_seed, bodyVerdicts(response.body)});
                return response.status == 200;
            }
            const RexdBuiltin &b = _server.hits[pick % _server.hits.size()];
            server::ClientResponse response = client.post("/check", b.body);
            return response.status == 200 &&
                   bodyVerdicts(response.body) == b.expected;
        } catch (const std::exception &) {
            return false;
        }
    }

    RexdServer &_server;
    std::uint64_t _seed;
    std::uint64_t _nextCold;  //!< generator seed of the next cold test
    std::uint64_t _rungs = 0;
    std::vector<std::string> _variants;
};

} // namespace

RexdServer::RexdServer() = default;

RexdServer::~RexdServer()
{
    if (server) {
        server->requestDrain();
        server->join();
    }
}

std::unique_ptr<RexdServer>
rexdSetup(std::uint64_t seed)
{
    auto out = std::make_unique<RexdServer>();
    engine::EngineConfig config;
    config.jobs = 1;
    config.cacheMemMaxEntries = kCacheEntries;
    out->engine = std::make_unique<engine::Engine>(config);
    server::ServerConfig server_config;
    server_config.threads = 2;
    out->server =
        std::make_unique<server::RexServer>(*out->engine, server_config);
    out->server->start();

    // Every builtin is stored in the cache, so the warm-up's cost does
    // not depend on which builtins the seed picks; then the ETags of
    // the revalidation class are fetched.
    const TestRegistry &registry = TestRegistry::instance();
    std::vector<std::string> names = registry.names();
    seededShuffle(names, seed);
    const std::vector<std::string> variants = paperVariantNames();
    const std::unique_ptr<server::Client> client = connect(*out);
    for (std::size_t i = 0; i < names.size(); ++i) {
        RexdBuiltin builtin;
        builtin.name = names[i];
        builtin.body = server::checkRequestJson(
            registry.sourceText(builtin.name), variants);
        builtin.path =
            "/check/" + percentEncode(builtin.name) + "?variants=paper";
        server::ClientResponse response = client->post("/check", builtin.body);
        if (response.status == 200 && i >= kBuiltinsPerClass &&
                i < 2 * kBuiltinsPerClass)
            response = client->get(builtin.path);
        if (response.status != 200)
            throw std::runtime_error("rexd warm-up: " + builtin.name +
                                     " answered " +
                                     std::to_string(response.status));
        builtin.etag = response.headers["etag"];
        builtin.warmVerdicts = bodyVerdicts(response.body);
        if (i < kBuiltinsPerClass)
            out->hits.push_back(std::move(builtin));
        else if (i < 2 * kBuiltinsPerClass)
            out->revalidations.push_back(std::move(builtin));
    }
    return out;
}

void
rexdReference(RexdServer &server, LoadResult &out)
{
    const TestRegistry &registry = TestRegistry::instance();
    for (auto *builtins : {&server.hits, &server.revalidations}) {
        for (RexdBuiltin &builtin : *builtins) {
            builtin.expected = referenceVerdicts(registry.get(builtin.name));
            ++out.attempted;
            if (builtin.warmVerdicts != builtin.expected) {
                ++out.failed;
                out.problems.push_back("rexd: warm-up answer for " +
                                       builtin.name +
                                       " differs from checkTest");
            }
        }
    }
}

void
traceRexd(RexdServer &server, std::uint64_t seed, double seconds,
          LoadResult &out)
{
    Ladder ladder(server, seed);
    // Every class climbs at most kRungs rungs; an untraced base rung of
    // the hit class comes first, for the tracing overhead.
    const double unit =
        seconds / ((kBaseUnits + kRungs - 1) * 3 + kBaseUnits);
    auto account = [&](const Rung &rung) {
        out.attempted += rung.samples.size();
        out.failed += rung.failed;
    };
    Tracer off(false);
    const Rung untraced =
        ladder.run(kHit, kBaseRate[kHit], unit * kBaseUnits, off);
    account(untraced);

    const std::unique_ptr<server::Client> scraper = connect(server);
    const std::string before = scraper->get("/metrics").body;
    Tracer tracer(true);
    std::vector<Rung> base;  //!< per class
    double max_rps[3] = {0, 0, 0};
    std::vector<ColdAnswer> cold;
    double wall_us = 0;
    for (int cls = 0; cls < 3; ++cls) {
        for (int r = 0; r < kRungs; ++r) {
            const double rate = kBaseRate[cls] * static_cast<double>(1 << r);
            Rung rung = ladder.run(static_cast<Class>(cls), rate,
                                   unit * (r == 0 ? kBaseUnits : 1), tracer);
            account(rung);
            wall_us += rung.wallUs;
            const bool holds = rung.holds();
            if (holds)
                max_rps[cls] = rate;
            cold.insert(cold.end(), rung.cold.begin(), rung.cold.end());
            if (r == 0)
                base.push_back(std::move(rung));
            if (!holds)
                break;
        }
    }
    const std::string after = scraper->get("/metrics").body;

    // In-process engine time of the same work: a fresh engine checks
    // the first cold tests sent, answers them again from its cache, and
    // serializes every record.
    engine::EngineConfig config;
    config.jobs = 1;
    engine::Engine engine(config);
    const std::vector<ModelParams> variants = ModelParams::paperVariants();
    double verdict_us = 0, hit_us = 0, serialize_us = 0, bytes = 0;
    std::size_t records = 0;
    const std::size_t timed =
        std::min<std::size_t>(cold.size(), kEngineSampleTests);
    for (std::size_t i = 0; i < timed; ++i) {
        const std::string source = coldSource(cold[i].seed);
        LitmusTest test = parseLitmus(source);
        test.sourceText = source;
        for (const ModelParams &params : variants) {
            engine::JobRecord record;
            verdict_us += timedSpan(tracer, "engine.verdict", i, 0, [&] {
                record = engine.verdictRecord(test, params);
            });
            hit_us += timedSpan(tracer, "engine.cache_hit", i, 0, [&] {
                record = engine.verdictRecord(test, params);
            });
            std::string json;
            serialize_us += timedSpan(tracer, "engine.serialize", i, 0,
                                      [&] { json = record.toJson(); });
            bytes += static_cast<double>(json.size());
            ++records;
        }
    }
    const double n = static_cast<double>(std::max<std::size_t>(records, 1));
    verdict_us /= n;
    hit_us /= n;
    serialize_us /= n;

    // The wire: what a hit costs beyond its in-process engine work.
    const double nv = static_cast<double>(variants.size());
    const double hit_engine_us = nv * (hit_us + serialize_us);
    const double wire_us = base[kHit].latency(0.5) * 1e3 - hit_engine_us;
    std::vector<double> lags;
    std::uint64_t backlog_max = 0;
    for (const Rung &rung : base) {
        for (const Sample &sample : rung.samples)
            lags.push_back(sample.lagMs);
        backlog_max = std::max(backlog_max, rung.backlogMax);
    }
    const std::string enumerate =
        "rexd_stage_seconds_sum{stage=\"enumerate\"}";

    for (int cls = 0; cls < 3; ++cls) {
        const std::string prefix = kMetricPrefix[cls];
        out.perLayer.push_back(
            {prefix + "_p50_ms", base[cls].latency(0.5), "ms"});
        out.perLayer.push_back(
            {prefix + "_p99_ms", base[cls].latency(0.99), "ms"});
        out.perLayer.push_back({prefix + "_max_rps", max_rps[cls], "1/s"});
    }
    const std::vector<Metric> rest = {
        {"engine.verdict_us", verdict_us, "us"},
        {"engine.cache_hit_us", hit_us, "us"},
        {"engine.serialize_us", serialize_us, "us"},
        {"engine.record_bytes", bytes / n, "B"},
        {"server.wire_us", wire_us, "us"},
        {"server.generator_lag_ms", quantile(lags, 0.99), "ms"},
        {"server.backlog_max", static_cast<double>(backlog_max), "count"},
        {"server.stage_enumerate_s",
         scrape(after, enumerate) - scrape(before, enumerate), "s"},
        {"server.cache_mem_evictions",
         scrape(after, "rexd_cache_mem_evictions_total"), "count"},
    };
    out.perLayer.insert(out.perLayer.end(), rest.begin(), rest.end());

    // Reconciled against the rungs: the connection threads' time is idle
    // waits plus request spans (the engine timings come after).
    out.spans = tracer.spans();
    std::vector<Span> request_spans;
    for (const Span &span : out.spans) {
        if (std::string(span.name).rfind("engine.", 0) != 0)
            request_spans.push_back(span);
    }
    Reconciliation &report = out.report;
    report.load = "rexd";
    report.wallUs = wall_us;
    report.selfUs = selfTimes(request_spans);
    report.derivedUs = {{"rexd.hit.engine",
                         hit_engine_us *
                             static_cast<double>(base[kHit].samples.size())},
                        {"rexd.hit.wire",
                         wire_us *
                             static_cast<double>(base[kHit].samples.size())}};
    report.e2eMetric = "server.hit_p50_ms";
    report.e2eUntraced = untraced.latency(0.5);
    report.e2eTraced = base[kHit].latency(0.5);
}

} // namespace perfbench
