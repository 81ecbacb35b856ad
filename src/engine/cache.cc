#include "engine/cache.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "base/fsync.hh"
#include "base/logging.hh"
#include "base/strings.hh"
#include "engine/faultinject.hh"
#include "isa/register.hh"

namespace rex::engine {

namespace {

/** FNV-1a over @p text, seeded by @p hash. */
std::uint64_t
fnv1a(std::uint64_t hash, std::string_view text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/**
 * RAII flock(2) on `<dir>/.lock`, serialising eviction scans and
 * cap-trim deletions across *processes* sharing one cache directory
 * (supervised workers, parallel harness invocations, the cache-hammer
 * test). Entry reads and writes need no lock — O_EXCL temp files plus
 * atomic rename already make them safe — but two processes scanning
 * and deleting concurrently could double-delete or tally phantom
 * bytes. Never nested (flock with a second fd would self-deadlock):
 * take it before _diskMutex, at the call sites of scanDisk /
 * trimToCapLocked only.
 */
class FlockGuard
{
  public:
    explicit FlockGuard(const std::string &dir)
    {
        if (dir.empty())
            return;
        _fd = ::open((dir + "/.lock").c_str(),
                     O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (_fd < 0)
            return;
        while (::flock(_fd, LOCK_EX) < 0 && errno == EINTR) {
        }
    }

    ~FlockGuard()
    {
        if (_fd >= 0)
            ::close(_fd);  // closing the fd releases the lock
    }

    FlockGuard(const FlockGuard &) = delete;
    FlockGuard &operator=(const FlockGuard &) = delete;

  private:
    int _fd = -1;
};

void
appendProgram(std::string &out, const char *tag, int tid,
              const isa::Program &program)
{
    if (program.code.empty() && program.labels.empty())
        return;
    out += format("%s %d:\n", tag, tid);
    out += program.toString();
}

} // namespace

std::string
canonicalTestText(const LitmusTest &test)
{
    std::string out = "litmus-canonical-v1\n";
    out += "name " + test.name + "\n";
    out += "locations";
    for (std::size_t loc = 0; loc < test.locations.size(); ++loc) {
        out += format(" %s=%" PRIu64, test.locations[loc].c_str(),
                      test.initValues[loc]);
    }
    out += "\n";
    for (std::size_t t = 0; t < test.threads.size(); ++t) {
        const LitmusThread &thread = test.threads[t];
        out += format("thread %zu el=%d masked=%d eoimode1=%d sgirx=%d",
                      t, thread.initialEl, thread.initialMasked ? 1 : 0,
                      thread.eoiMode1 ? 1 : 0,
                      thread.sgiReceiver ? 1 : 0);
        if (thread.interruptAt) {
            out += format(" interrupt-at=%s intid=%u",
                          thread.interruptAt->c_str(),
                          thread.interruptIntid);
        }
        for (isa::RegId r = 0; r < isa::kNumRegs; ++r) {
            if (thread.initRegs[r] != 0) {
                out += format(" %s=%" PRIu64,
                              isa::regName(r).c_str(),
                              thread.initRegs[r]);
            }
        }
        out += "\n";
        appendProgram(out, "program", static_cast<int>(t),
                      thread.program);
        appendProgram(out, "handler", static_cast<int>(t),
                      thread.handler);
    }
    out += "final";
    for (const CondAtom &atom : test.finalCond.atoms) {
        if (atom.kind == CondAtom::Kind::Register) {
            out += format(" %d:%s=%" PRIu64, atom.tid,
                          isa::regName(atom.reg).c_str(), atom.value);
        } else {
            out += format(" *%s=%" PRIu64,
                          test.locations[atom.loc].c_str(), atom.value);
        }
    }
    out += "\n";
    return out;
}

std::string
canonicalParamsText(const ModelParams &params)
{
    return format("exs=%d eis=%d eos=%d seaR=%d seaW=%d ets2=%d gic=%d",
                  params.featExS ? 1 : 0, params.eis ? 1 : 0,
                  params.eos ? 1 : 0, params.seaR ? 1 : 0,
                  params.seaW ? 1 : 0, params.featEts2 ? 1 : 0,
                  params.gicExtension ? 1 : 0);
}

VerdictKey
VerdictKey::make(const LitmusTest &test, const ModelParams &params,
                 const std::string &revision)
{
    VerdictKey key;
    key.text = "revision " + revision + "\n" +
        "params " + canonicalParamsText(params) + "\n" +
        canonicalTestText(test);
    key.hash = fnv1a(kFnvOffset, key.text);
    return key;
}

std::string
VerdictKey::hashHex() const
{
    return format("%016" PRIx64, hash);
}

CachedVerdict
CachedVerdict::fromResult(const CheckResult &result)
{
    CachedVerdict verdict;
    verdict.observable = result.observable;
    verdict.candidates = result.candidates;
    verdict.consistent = result.consistent;
    verdict.witnesses = result.witnesses;
    verdict.constrainedUnpredictable = result.constrainedUnpredictable;
    verdict.unknownSideEffects = result.unknownSideEffects;
    verdict.forbiddingAxiom = result.forbiddingAxiom;
    verdict.forbiddingCycle = result.forbiddingCycle;
    return verdict;
}

CheckResult
CachedVerdict::toResult() const
{
    CheckResult result;
    result.observable = observable;
    result.candidates = candidates;
    result.consistent = consistent;
    result.witnesses = witnesses;
    result.constrainedUnpredictable = constrainedUnpredictable;
    result.unknownSideEffects = unknownSideEffects;
    result.forbiddingAxiom = forbiddingAxiom;
    result.forbiddingCycle = forbiddingCycle;
    return result;
}

std::string
CachedVerdict::forbiddingSummary() const
{
    if (observable || forbiddingAxiom.empty())
        return "";
    std::string out = forbiddingAxiom;
    for (std::size_t i = 0; i < forbiddingCycle.size(); ++i) {
        out += i ? "->" : ":";
        out += std::to_string(forbiddingCycle[i]);
    }
    return out;
}

VerdictCache::VerdictCache(bool enabled, std::string dir,
                           std::uint64_t maxBytes,
                           std::size_t memMaxEntries)
    : _enabled(enabled), _dir(std::move(dir)), _maxBytes(maxBytes),
      _memMaxEntries(memMaxEntries)
{
    if (_enabled && !_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(_dir, ec);
        if (ec) {
            warn("verdict cache: cannot create '" + _dir + "' (" +
                 ec.message() + "); persistence disabled");
            _dir.clear();
        }
    }
    if (_enabled && !_dir.empty()) {
        FlockGuard dirLock(_dir);
        std::lock_guard<std::mutex> lock(_diskMutex);
        scanDisk();
        trimToCapLocked();
    }
}

std::size_t
VerdictCache::entryCount()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::uint64_t
VerdictCache::diskBytes()
{
    std::lock_guard<std::mutex> lock(_diskMutex);
    return _diskBytes;
}

void
VerdictCache::scanDisk()
{
    _diskEntries.clear();
    _diskBytes = 0;
    std::error_code ec;
    for (const auto &entry :
             std::filesystem::directory_iterator(_dir, ec)) {
        if (!entry.is_regular_file() ||
                entry.path().extension() != ".rexv") {
            continue;  // skips .lock and any in-flight .tmp files too
        }
        DiskEntry tracked;
        tracked.path = entry.path().string();
        tracked.bytes = static_cast<std::uint64_t>(
            entry.file_size(ec));
        tracked.mtimeNanos =
            entry.last_write_time(ec).time_since_epoch().count();
        _diskEntries.push_back(std::move(tracked));
        _diskBytes += _diskEntries.back().bytes;
    }
}

void
VerdictCache::trimToCapLocked()
{
    if (_maxBytes == 0 || _diskBytes <= _maxBytes)
        return;
    // Oldest first; ties (same-nanosecond writes) break by path so the
    // trim order is deterministic.
    std::sort(_diskEntries.begin(), _diskEntries.end(),
              [](const DiskEntry &a, const DiskEntry &b) {
                  if (a.mtimeNanos != b.mtimeNanos)
                      return a.mtimeNanos < b.mtimeNanos;
                  return a.path < b.path;
              });
    std::size_t removed = 0;
    while (removed < _diskEntries.size() && _diskBytes > _maxBytes) {
        const DiskEntry &victim = _diskEntries[removed];
        std::error_code ec;
        std::filesystem::remove(victim.path, ec);
        _diskBytes -= std::min(_diskBytes, victim.bytes);
        ++_evictions;
        ++removed;
    }
    _diskEntries.erase(_diskEntries.begin(),
                       _diskEntries.begin() +
                           static_cast<std::ptrdiff_t>(removed));
}

std::string
VerdictCache::entryPath(const VerdictKey &key) const
{
    return _dir + "/" + key.hashHex() + ".rexv";
}

std::optional<CachedVerdict>
VerdictCache::lookup(const VerdictKey &key)
{
    if (!_enabled)
        return std::nullopt;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _entries.find(key.text);
        if (it != _entries.end()) {
            it->second.touch = ++_touchSeq;
            ++_hits;
            return it->second.verdict;
        }
    }
    if (!_dir.empty()) {
        std::optional<CachedVerdict> fromDisk = loadFromDisk(key);
        if (fromDisk) {
            std::lock_guard<std::mutex> lock(_mutex);
            _entries.insert_or_assign(key.text,
                                      MemEntry{*fromDisk, ++_touchSeq});
            trimMemLocked();
            ++_hits;
            return fromDisk;
        }
    }
    ++_misses;
    return std::nullopt;
}

void
VerdictCache::trimMemLocked()
{
    // Linear min-scan eviction: runs once per overflowing insert, and
    // the cap is large enough that an O(n) pass beats maintaining an
    // ordered index on the hot hit path.
    while (_memMaxEntries != 0 && _entries.size() > _memMaxEntries) {
        auto victim = _entries.begin();
        for (auto it = _entries.begin(); it != _entries.end(); ++it) {
            if (it->second.touch < victim->second.touch)
                victim = it;
        }
        _entries.erase(victim);
        _memEvictions.fetch_add(1, std::memory_order_relaxed);
    }
}

void
VerdictCache::store(const VerdictKey &key, const CachedVerdict &value)
{
    if (!_enabled)
        return;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _entries.insert_or_assign(key.text,
                                  MemEntry{value, ++_touchSeq});
        trimMemLocked();
    }
    if (!_dir.empty())
        writeToDisk(key, value);
}

void
VerdictCache::evictCorrupt(const std::string &path)
{
    ++_corrupt;
    warn("verdict cache: corrupt entry '" + path + "'; evicting");
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::lock_guard<std::mutex> lock(_diskMutex);
    for (auto it = _diskEntries.begin(); it != _diskEntries.end(); ++it) {
        if (it->path == path) {
            _diskBytes -= std::min(_diskBytes, it->bytes);
            _diskEntries.erase(it);
            break;
        }
    }
}

std::optional<CachedVerdict>
VerdictCache::loadFromDisk(const VerdictKey &key)
{
    if (faultInjector().shouldFail(FaultPoint::CacheRead))
        return std::nullopt;  // injected read failure: plain miss
    const std::string path = entryPath(key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();

    // Header: magic line + checksum line; everything after them is the
    // checksummed payload. Any deviation (old format, torn tail, bit
    // rot) is corruption: count it, delete the entry, miss.
    constexpr std::string_view magic = "rex-verdict-v2\n";
    std::size_t pos = magic.size();
    if (content.size() < pos ||
            std::string_view(content).substr(0, pos) != magic) {
        evictCorrupt(path);
        return std::nullopt;
    }
    std::size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
        evictCorrupt(path);
        return std::nullopt;
    }
    const std::string checksumLine = content.substr(pos, eol - pos);
    const std::string payload = content.substr(eol + 1);
    if (checksumLine.rfind("checksum ", 0) != 0 ||
            checksumLine != format("checksum %016" PRIx64,
                                   fnv1a(kFnvOffset, payload))) {
        evictCorrupt(path);
        return std::nullopt;
    }

    std::istringstream stream(payload);
    std::string line;
    CachedVerdict verdict;
    std::size_t keylen = 0;
    while (std::getline(stream, line)) {
        std::size_t space = line.find(' ');
        std::string field = line.substr(0, space);
        std::string rest =
            space == std::string::npos ? "" : line.substr(space + 1);
        if (field == "observable") {
            verdict.observable = rest == "1";
        } else if (field == "candidates") {
            verdict.candidates = std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "consistent") {
            verdict.consistent = std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "witnesses") {
            verdict.witnesses = std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "cu") {
            verdict.constrainedUnpredictable =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "unknown") {
            verdict.unknownSideEffects =
                std::strtoull(rest.c_str(), nullptr, 10);
        } else if (field == "axiom") {
            verdict.forbiddingAxiom = rest;
        } else if (field == "cycle") {
            for (const std::string &id : splitWhitespace(rest)) {
                verdict.forbiddingCycle.push_back(static_cast<EventId>(
                    std::strtoul(id.c_str(), nullptr, 10)));
            }
        } else if (field == "keylen") {
            keylen = std::strtoull(rest.c_str(), nullptr, 10);
            break;
        } else {
            evictCorrupt(path);  // unknown field despite a good checksum
            return std::nullopt;
        }
    }
    if (keylen == 0) {
        evictCorrupt(path);
        return std::nullopt;
    }
    const std::streampos keyStart = stream.tellg();
    if (keyStart == std::streampos(-1) ||
            payload.size() - static_cast<std::size_t>(keyStart) != keylen) {
        evictCorrupt(path);
        return std::nullopt;
    }
    // The checksum already vouches for integrity; a key-text mismatch
    // here is a content-hash collision, not corruption — miss without
    // deleting the (valid) colliding entry.
    if (payload.compare(static_cast<std::size_t>(keyStart), keylen,
                        key.text) != 0) {
        return std::nullopt;
    }
    return verdict;
}

void
VerdictCache::writeToDisk(const VerdictKey &key,
                          const CachedVerdict &value)
{
    static std::atomic<std::uint64_t> counter{0};
    std::string path = entryPath(key);

    std::string payload;
    payload += format("observable %d\n", value.observable ? 1 : 0);
    payload += format("candidates %" PRIu64 "\n", value.candidates);
    payload += format("consistent %" PRIu64 "\n", value.consistent);
    payload += format("witnesses %" PRIu64 "\n", value.witnesses);
    payload += format("cu %" PRIu64 "\n", value.constrainedUnpredictable);
    payload += format("unknown %" PRIu64 "\n", value.unknownSideEffects);
    if (!value.forbiddingAxiom.empty())
        payload += "axiom " + value.forbiddingAxiom + "\n";
    if (!value.forbiddingCycle.empty()) {
        payload += "cycle";
        for (EventId id : value.forbiddingCycle)
            payload += concat({" ", std::to_string(id)});
        payload += "\n";
    }
    payload += format("keylen %zu\n", key.text.size());
    payload += key.text;

    // The checksum covers the payload exactly, so a write cut short
    // anywhere (crash mid-write, injected fault below) is detected on
    // the next load and the entry self-evicts.
    std::string entry = "rex-verdict-v2\n";
    entry += format("checksum %016" PRIx64 "\n",
                    fnv1a(kFnvOffset, payload));
    entry += payload;
    if (faultInjector().shouldFail(FaultPoint::CacheWrite)) {
        // Injected torn write: publish only half the entry. The rename
        // below still happens — exactly what a crash between write and
        // fsync can leave behind.
        entry.resize(entry.size() / 2);
    }
    // The temp file is created O_EXCL under a name no other writer —
    // thread OR process — can hold: pid disambiguates across processes
    // (supervised workers, parallel harness runs on one directory),
    // the counter across threads, and O_EXCL turns any residual
    // collision (pid reuse over a crashed run's leftovers) into a
    // retry instead of two writers interleaving into one file.
    std::string tmp;
    int fd = -1;
    for (int attempt = 0; attempt < 16; ++attempt) {
        tmp = path + format(".tmp%d.%" PRIu64,
                            static_cast<int>(::getpid()),
                            counter.fetch_add(1) + 1);
        fd = ::open(tmp.c_str(),
                    O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
        if (fd >= 0 || errno != EEXIST)
            break;
    }
    if (fd < 0) {
        warn("verdict cache: cannot write '" + tmp + "'");
        return;
    }
    const char *data = entry.data();
    std::size_t remaining = entry.size();
    while (remaining > 0) {
        const ssize_t wrote = ::write(fd, data, remaining);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            warn("verdict cache: cannot write '" + tmp + "'");
            return;
        }
        data += wrote;
        remaining -= static_cast<std::size_t>(wrote);
    }
    // Durability before publication: the rename below must never point
    // at data the disk hasn't accepted yet.
    fsyncFd(fd);
    ::close(fd);
    // Atomic publication: concurrent writers of the same key race
    // benignly (identical content), and readers never see a torn file.
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        warn("verdict cache: cannot publish '" + path + "'");
        return;
    }
    // And the rename itself: without syncing the parent directory a
    // host crash right here can forget the entry this process now
    // believes is committed (and will report as a warm cache).
    fsyncParentDir(path);

    // Lock order: the cross-process flock strictly before _diskMutex
    // (matching the constructor), only when a cap can actually trim.
    std::optional<FlockGuard> dirLock;
    if (_maxBytes != 0)
        dirLock.emplace(_dir);
    std::lock_guard<std::mutex> lock(_diskMutex);
    DiskEntry tracked;
    tracked.path = path;
    tracked.bytes = static_cast<std::uint64_t>(
        std::filesystem::file_size(path, ec));
    tracked.mtimeNanos = std::filesystem::last_write_time(path, ec)
                             .time_since_epoch()
                             .count();
    // Same-key overwrites (benign racing writers) would double-count:
    // drop any stale index entry for this path first.
    for (auto it = _diskEntries.begin(); it != _diskEntries.end(); ++it) {
        if (it->path == path) {
            _diskBytes -= std::min(_diskBytes, it->bytes);
            _diskEntries.erase(it);
            break;
        }
    }
    _diskBytes += tracked.bytes;
    _diskEntries.push_back(std::move(tracked));
    trimToCapLocked();
}

} // namespace rex::engine
