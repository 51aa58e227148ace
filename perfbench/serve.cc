/**
 * @file
 * The serving workload: a real voltron-served process on a Unix socket,
 * with a fresh disk cache under a byte budget smaller than the cold set,
 * driven by a closed loop of clients (each sends its next request only
 * after the previous reply).
 *
 * One round:
 *   1. an "evict" op trims the disk tier to its budget and drops the
 *      daemon's in-memory caches, as a restart or memory pressure would;
 *   2. cold phase — kColdPerRound never-seen requests: fuzz-generator
 *      seeds and suite programs at new targetOps, Hybrid and Adaptive;
 *   3. warm phase — kWarmPerRound replays of this round's and the
 *      previous round's keys. The previous round's keys are no longer in
 *      the response cache, so their first replay is recomputed from the
 *      disk tier (or cold, where the budget evicted the entry).
 * Requests ask for the daemon's "timing" object in traced rounds only, so
 * untraced rounds measure the daemon's default path.
 * After each round, outside its timing, the benchmark checks the disk
 * budget and recomputes two of the round's cold responses in-process.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.hh"
#include "checks.hh"
#include "compiler/compile.hh"
#include "core/artifact_cache.hh"
#include "core/voltron.hh"
#include "fuzz/generator.hh"
#include "interp/interp.hh"
#include "server/client.hh"
#include "server/json.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"

extern char **environ;

namespace voltron::perfbench {

namespace {

/** Holds the artifacts of the last few rounds (a round stores about
 * 1 MB), so replays of the previous round's keys find theirs on disk,
 * while the run's cold set is many times larger and the tier evicts in
 * every round. */
constexpr u64 kDiskBudget = 4 * 1'048'576;
/** One request in 20 is new, as in bench/server_load's cold trickle
 * (kColdTrickle). */
constexpr size_t kColdPerRound = 8;
constexpr size_t kWarmPerRound = 19 * kColdPerRound;
constexpr u16 kCores = 4;

/** One request key and what its cold response said. */
struct Key
{
    bool fuzz = false;
    u64 seed = 0;          //!< fuzz generator seed
    std::string benchmark; //!< suite program
    u64 targetOps = 0;
    Strategy strategy = Strategy::Hybrid;
    std::string line;       //!< the request, without an id
    std::string timedLine;  //!< the same, asking for "timing"
    std::string coldResult; //!< raw "result" object of the cold reply
    bool answered = false;
};

std::string
request_line(const Key &k, bool timing)
{
    JsonWriter w;
    w.beginObject();
    w.field("op", "run");
    if (k.fuzz) {
        w.field("seed", k.seed);
    } else {
        w.field("benchmark", k.benchmark);
        w.field("targetOps", k.targetOps);
    }
    if (timing)
        w.field("timing", true);
    w.key("options");
    w.beginObject();
    w.field("strategy", strategy_name(k.strategy));
    w.field("cores", static_cast<u64>(kCores));
    w.endObject();
    w.endObject();
    return w.str();
}

/**
 * The cold keys of round @p round: four fuzz-generator programs (two
 * IlpOnly, two LlpOnly) and four suite programs (three Hybrid, one
 * Adaptive). Unique within a run: fuzz seeds and suite targetOps both
 * advance with the round. Fuzz programs are not compiled for Hybrid or
 * Adaptive: on about 1 % of seeds those compiles panic (see the
 * benchmark's README), and an operation that fails on some seeds only
 * cannot be part of the measured mix.
 */
std::vector<Key>
cold_keys(u64 seed, u64 round, bool small)
{
    const std::vector<std::string> &names = benchmark_names();
    std::vector<Key> keys(kColdPerRound);
    for (size_t i = 0; i < kColdPerRound; ++i) {
        Key &k = keys[i];
        const u64 serial = round * kColdPerRound + i;
        k.fuzz = i < 4;
        if (k.fuzz) {
            k.strategy = i < 2 ? Strategy::IlpOnly : Strategy::LlpOnly;
            k.seed = seed * 1'000'003 + serial;
        } else {
            // The run's suite keys walk the suite in turn; each pass
            // adds one op to targetOps, which keeps every key new while
            // a round's work stays the same however many rounds run.
            const u64 nth = round * (kColdPerRound - 4) + (i - 4);
            k.strategy = i < 7 ? Strategy::Hybrid : Strategy::Adaptive;
            k.benchmark = names[(seed + nth) % names.size()];
            k.targetOps = (small ? 8'000 : 16'000) + (seed % 97) * 16 +
                          nth / names.size();
        }
        k.line = request_line(k, false);
        k.timedLine = request_line(k, true);
    }
    return keys;
}

/** The raw text of member @p name's object value in @p line. */
std::string
raw_member(const std::string &line, const std::string &name)
{
    const std::string tag = "\"" + name + "\":";
    const size_t at = line.find(tag);
    if (at == std::string::npos)
        return {};
    const size_t begin = at + tag.size();
    int depth = 0;
    bool in_string = false;
    for (size_t i = begin; i < line.size(); ++i) {
        const char c = line[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}' && --depth == 0) {
            return line.substr(begin, i + 1 - begin);
        }
    }
    return {};
}

u64
disk_bytes(const std::string &dir)
{
    u64 total = 0;
    for_each_cache_file(dir, [&](const std::filesystem::directory_entry &e) {
        std::error_code ec;
        const u64 size = e.file_size(ec);
        if (!ec)
            total += size;
    });
    return total;
}

/** The voltron-served child process. Killed and reaped on destruction
 * if still running; it also dies with this process. */
class Daemon
{
  public:
    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (outFd_ >= 0)
            ::close(outFd_);
    }

    /** Spawn the daemon and wait (at most 60 s) for its ready line. */
    void
    start(const std::string &served, const std::string &socket,
          const std::string &cacheDir, const std::string &logPath,
          unsigned workers)
    {
        const std::vector<std::string> argv_s = {
            served,        "--socket",
            socket,        "--workers",
            std::to_string(workers), "--max-bytes",
            std::to_string(kDiskBudget)};
        std::vector<char *> argv;
        for (const std::string &a : argv_s)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        std::vector<std::string> env_s = {"VOLTRON_CACHE_DIR=" + cacheDir};
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "VOLTRON_", 8) != 0)
                env_s.push_back(*e);
        std::vector<char *> envp;
        for (const std::string &e : env_s)
            envp.push_back(const_cast<char *>(e.c_str()));
        envp.push_back(nullptr);

        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        const int logFd =
            ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            ::dup2(fds[1], 1);
            if (logFd >= 0)
                ::dup2(logFd, 2);
            ::close(fds[0]);
            ::execve(argv[0], argv.data(), envp.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        if (logFd >= 0)
            ::close(logFd);
        outFd_ = fds[0];

        std::string out;
        const auto deadline = Clock::now() + std::chrono::seconds(60);
        while (out.find('\n') == std::string::npos) {
            pollfd p{outFd_, POLLIN, 0};
            const int wait_ms = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count());
            if (wait_ms <= 0 || ::poll(&p, 1, wait_ms) <= 0)
                throw std::runtime_error("voltron-served did not start");
            char buf[256];
            const ssize_t n = ::read(outFd_, buf, sizeof(buf));
            if (n <= 0)
                throw std::runtime_error("voltron-served exited at start "
                                         "(see " + logPath + ")");
            out.append(buf, static_cast<size_t>(n));
        }
        if (out.rfind("ready", 0) != 0)
            throw std::runtime_error("voltron-served said: " + out);
    }

    /** After a shutdown request: wait for exit; returns peak RSS in MB
     * and whether the daemon exited cleanly. */
    double
    reap(bool &clean)
    {
        char buf[256];
        while (::read(outFd_, buf, sizeof(buf)) > 0) {
        }
        int status = 0;
        rusage ru{};
        ::wait4(pid_, &status, 0, &ru);
        pid_ = -1;
        clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }

  private:
    pid_t pid_ = -1;
    int outFd_ = -1;
};

/** A closed-loop client fleet over persistent connections. */
class Fleet
{
  public:
    Fleet(const std::string &socket, size_t clients) : clients_(clients)
    {
        for (Client &c : clients_) {
            std::string err;
            if (!c.connect(socket, &err))
                throw std::runtime_error("connect: " + err);
        }
    }

    /** Send line(i) for every i, each client taking the next index when
     * its previous reply is in; on_reply(i, ok, reply, sent, received). */
    template <typename F>
    void
    drive(size_t n, const std::function<const std::string &(size_t)> &line,
          F &&on_reply)
    {
        std::atomic<size_t> next{0};
        std::vector<std::thread> threads;
        for (Client &c : clients_) {
            threads.emplace_back([&, client = &c] {
                std::string reply;
                for (size_t i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1)) {
                    const auto t0 = Clock::now();
                    const bool ok = client->connected() &&
                                    client->request(line(i), reply);
                    on_reply(i, ok, reply, t0, Clock::now());
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    Client &first() { return clients_.front(); }

  private:
    std::vector<Client> clients_;
};

/** Recompute @p key through the library and compare with its cold
 * response; times every layer call when the log is on. */
void
recompute(SpanLog &log, const Key &key, u64 id, RunReport &report)
{
    JsonValue result;
    if (!JsonValue::parse(key.coldResult, result)) {
        report.fail("cold response result is not JSON");
        return;
    }
    Program prog;
    if (key.fuzz) {
        SpanLog::Scope s(log, "fuzz.generate", id);
        prog = generate_fuzz_program(key.seed);
    } else {
        SpanLog::Scope s(log, "workloads.build", id);
        SuiteScale scale;
        scale.targetOps = key.targetOps;
        prog = build_benchmark(key.benchmark, scale);
    }
    GoldenRun golden;
    GoldenImage goldenImage;
    {
        SpanLog::Scope s(log, "interp.golden", id);
        golden = run_golden(prog);
        goldenImage = extract_golden_image(prog, *golden.memory);
    }
    log.count("interp.ops", static_cast<double>(golden.result.dynamicOps));
    CompileOptions opts;
    opts.strategy = key.strategy;
    opts.numCores = kCores;
    MachineProgram mp;
    {
        SpanLog::Scope s(log, "compiler.compile", id);
        mp = compile_program(prog, golden.profile, opts);
    }

    // The artifacts as the cache tier would store them: serialize,
    // decode, and check the round trip is exact.
    ByteWriter w;
    {
        SpanLog::Scope s(log, "cache.serialize", id);
        serialize(w, golden.profile);
        serialize(w, golden.result);
        serialize(w, goldenImage);
        serialize(w, mp);
    }
    log.count("cache.artifact_bytes", static_cast<double>(w.size()));
    {
        SpanLog::Scope s(log, "cache.deserialize", id);
        ByteReader r(w.bytes());
        Profile profile;
        InterpResult ir;
        GoldenImage image;
        MachineProgram back;
        const bool ok = deserialize(r, profile) && deserialize(r, ir) &&
                        deserialize(r, image) && deserialize(r, back) &&
                        r.atEnd();
        ByteWriter again;
        serialize(again, profile);
        serialize(again, ir);
        serialize(again, image);
        serialize(again, back);
        if (!ok || again.bytes() != w.bytes())
            report.fail("artifact serialization does not round-trip");
    }

    const MeshShape shape = opts.meshShape();
    std::optional<Machine> machine;
    {
        SpanLog::Scope s(log, "sim.setup", id);
        machine.emplace(mp, MachineConfig::forMesh(shape.rows, shape.cols));
    }
    MachineResult r;
    {
        SpanLog::Scope s(log, "sim.run", id);
        r = machine->run();
    }
    log.count("sim.ops", static_cast<double>(r.dynamicOps));
    log.count("sim.cycles", static_cast<double>(r.cycles));
    log.count("sim.core_cycles", static_cast<double>(r.cycles) * kCores);
    std::string err;
    {
        SpanLog::Scope s(log, "core.verify", id);
        err = check_matches_golden(golden.result.exitValue, goldenImage,
                                   r.exitValue,
                                   extract_golden_image(prog,
                                                        machine->memory()));
    }
    if (err.empty())
        err = check_response(result.boolAt("correct"),
                             result.u64At("exitValue"),
                             result.u64At("cycles"),
                             result.u64At("dynamicOps"),
                             {r.exitValue, r.cycles, r.dynamicOps});
    if (!err.empty())
        report.fail(key.line + ": " + err);
}

/** Fold one reply's daemon-side timing into the per-layer sums. */
void
count_timing(SpanLog &log, const JsonValue &reply)
{
    const JsonValue *timing = reply.find("timing");
    const JsonValue *phases = timing ? timing->find("phases") : nullptr;
    if (!phases)
        return;
    log.count("server.parse_us.sum",
              static_cast<double>(phases->u64At("parse")));
    log.count("server.parse_us.n", 1);
    if (reply.str("source") != "cold")
        return;
    const std::pair<const char *, const char *> rows[] = {
        {"server.queue_wait_ms", "queueWait"},
        {"server.golden_ms", "goldenRun"},
        {"server.compile_ms", "compile"},
        {"server.simulate_ms", "simulate"},
    };
    for (const auto &[name, phase] : rows) {
        log.count(std::string(name) + ".sum",
                  static_cast<double>(phases->u64At(phase)) / 1e3);
        log.count(std::string(name) + ".n", 1);
    }
}

/** The daemon's counters ("stats" op). */
JsonValue
daemon_stats(Client &client)
{
    std::string reply;
    JsonValue v;
    if (!client.request("{\"op\":\"stats\"}", reply) ||
        !JsonValue::parse(reply, v) || !v.find("result"))
        throw std::runtime_error("stats request failed");
    return *v.find("result");
}

} // namespace

void
run_serve(const RunArgs &args, Clock::time_point &setupEnd, SpanLog &log,
          RunReport &report)
{
    const unsigned clients = worker_count();
    const std::filesystem::path runDir =
        std::filesystem::path(kOutDir) /
        ("serve-" + std::to_string(::getpid()));
    std::filesystem::remove_all(runDir);
    std::filesystem::create_directories(runDir / "cache");
    const std::string cacheDir = (runDir / "cache").string();
    const std::string socket = (runDir / "d.sock").string();

    std::optional<Daemon> daemon;
    daemon.emplace();
    daemon->start(args.servedPath, socket, cacheDir,
                  (runDir / "daemon.log").string(), clients);
    Fleet fleet(socket, clients);
    // The library's in-process recomputation must not share the
    // daemon's disk tier.
    ArtifactCache::instance().setDiskDir(std::string());
    setupEnd = Clock::now();

    // The small mode runs exactly two rounds traced or not, so the two
    // kinds of run can be compared on the same requests.
    const size_t minRounds = args.trace || args.small ? 2 : 1;
    const size_t maxRounds = args.small ? 2 : 100'000;
    std::vector<double> untracedWall, tracedWall, coldMs, warmUs;
    std::vector<double> hybridSpeedups, adaptiveSpeedups;
    std::vector<Key> previous;
    // Cold results of the first two rounds, for the run's digest.
    std::vector<std::string> firstResults(2 * kColdPerRound);
    double busy = 0;
    std::atomic<u64> ids{0};
    std::mutex mutex; // guards the vectors above during a phase
    const auto start = Clock::now();
    for (u64 round = 0; round < maxRounds; ++round) {
        if (round >= minRounds &&
            seconds_between(start, Clock::now()) >= args.seconds)
            break;
        const bool traced = args.trace && round % 2 == 1;
        std::optional<JsonValue> before;
        if (traced)
            before = daemon_stats(fleet.first());
        log.enable(traced);
        SpanLog::Scope roundSpan(log, "round", round);
        const i64 roundIndex = roundSpan.index();

        std::vector<Key> keys = cold_keys(args.seed, round, args.small);
        // Warm replays: this round's keys and the previous round's.
        std::vector<Key *> pool;
        for (Key &k : keys)
            pool.push_back(&k);
        for (Key &k : previous)
            pool.push_back(&k);
        Rng rng(args.seed * 7919 + round);
        std::vector<Key *> warm(kWarmPerRound);
        for (Key *&k : warm)
            k = pool[rng.next() % pool.size()];

        // Parse and account one reply; false when the request failed.
        auto on_reply = [&](const Key &key, bool ok,
                            const std::string &reply, JsonValue &v,
                            Clock::time_point t0, Clock::time_point t1) {
            if (!ok || !JsonValue::parse(reply, v) ||
                v.str("status") != "ok") {
                report.failOp(key.line + ": " + reply);
                return false;
            }
            if (traced) {
                log.add("request", ids++, roundIndex, t0, t1);
                count_timing(log, v);
            }
            return true;
        };

        const auto t0 = Clock::now();
        std::string evictReply;
        if (!fleet.first().request(
                "{\"op\":\"evict\",\"maxBytes\":" +
                    std::to_string(kDiskBudget) + "}",
                evictReply) ||
            evictReply.find("\"status\":\"ok\"") == std::string::npos)
            report.failOp("evict: " + evictReply);

        fleet.drive(
            keys.size(),
            [&](size_t i) -> const std::string & {
                return traced ? keys[i].timedLine : keys[i].line;
            },
            [&](size_t i, bool ok, const std::string &reply,
                Clock::time_point t0, Clock::time_point t1) {
                Key &key = keys[i];
                JsonValue v;
                if (!on_reply(key, ok, reply, v, t0, t1))
                    return;
                key.coldResult = raw_member(reply, "result");
                key.answered = true;
                if (round < 2)
                    firstResults[round * kColdPerRound + i] =
                        key.coldResult;
                const double speedup =
                    v.find("result")->f64At("speedup");
                std::lock_guard<std::mutex> lock(mutex);
                coldMs.push_back(seconds_between(t0, t1) * 1e3);
                if (v.str("source") != "cold")
                    report.fail(key.line + ": first request answered " +
                                v.str("source"));
                if (key.strategy == Strategy::Hybrid)
                    hybridSpeedups.push_back(speedup);
                else if (key.strategy == Strategy::Adaptive)
                    adaptiveSpeedups.push_back(speedup);
            });
        fleet.drive(
            warm.size(),
            [&](size_t i) -> const std::string & {
                return traced ? warm[i]->timedLine : warm[i]->line;
            },
            [&](size_t i, bool ok, const std::string &reply,
                Clock::time_point t0, Clock::time_point t1) {
                const Key &key = *warm[i];
                JsonValue v;
                if (!on_reply(key, ok, reply, v, t0, t1) || !key.answered)
                    return;
                const std::string err =
                    check_replay(key.coldResult, raw_member(reply, "result"));
                std::lock_guard<std::mutex> lock(mutex);
                warmUs.push_back(seconds_between(t0, t1) * 1e6);
                if (!err.empty())
                    report.fail(key.line + ": " + err);
            });
        const double wall = seconds_between(t0, Clock::now());
        (traced ? tracedWall : untracedWall).push_back(wall);
        busy += wall;
        report.attempted += 1 + keys.size() + warm.size();

        // Outside the round's timing: every reply is in, so no store is
        // in flight and the tier must be within its budget.
        const u64 bytes = disk_bytes(cacheDir);
        const std::string diskErr = check_disk_budget(bytes, kDiskBudget);
        if (!diskErr.empty())
            report.fail("round " + std::to_string(round) + ": " + diskErr);
        log.count("cache.disk.bytes", static_cast<double>(bytes));
        {
            SpanLog::Scope check(log, "check.recompute", round, roundIndex);
            for (size_t i : {size_t{0}, size_t{4}})
                if (keys[i].answered)
                    recompute(log, keys[i], round * kColdPerRound + i,
                              report);
        }
        if (traced) {
            const JsonValue after = daemon_stats(fleet.first());
            auto delta = [&](const char *name) {
                return static_cast<double>(after.u64At(name) -
                                           before->u64At(name));
            };
            log.count("cache.disk.hits", delta("cache.diskHits"));
            log.count("cache.disk.evictions", delta("cache.evictions"));
            log.count("server.response_hits",
                      delta("server.response_cache.hits"));
            log.count("server.response_lookups",
                      delta("server.response_cache.hits") +
                          delta("server.response_cache.misses"));
        }
        log.enable(false);
        previous = std::move(keys);
    }

    std::string reply;
    fleet.first().request("{\"op\":\"shutdown\"}", reply);
    bool clean = false;
    const double daemonRss = daemon->reap(clean);
    if (!clean)
        report.fail("voltron-served did not exit cleanly");
    daemon.reset();
    std::filesystem::remove_all(runDir);
    report.simDigest = kDigestSeed;
    for (const std::string &result : firstResults)
        for (char c : result)
            report.simDigest = digest_mix(report.simDigest,
                                          static_cast<u8>(c));

    if (args.trace) {
        report.metric("trace.overhead_pct",
                      100.0 * (median(tracedWall) / median(untracedWall) -
                               1.0),
                      "%");
        report.tracedRounds = tracedWall.size();
        return;
    }
    report.metric("wall_s", median(untracedWall), "s");
    report.metric("requests_per_s",
                  static_cast<double>(report.attempted) / busy, "1/s");
    report.metric("cold_p50_ms", quantile(coldMs, 0.5), "ms");
    report.metric("cold_p90_ms", quantile(coldMs, 0.9), "ms");
    report.metric("warm_p50_us", quantile(warmUs, 0.5), "us");
    report.metric("hybrid_speedup_geomean", geomean(hybridSpeedups), "x");
    report.metric("adaptive_speedup_geomean", geomean(adaptiveSpeedups),
                  "x");
    report.metric("peak_rss_mb", daemonRss, "MB");
}

} // namespace voltron::perfbench
