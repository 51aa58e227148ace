/**
 * @file
 * The Voltron benchmark binary, perfbench.
 *
 *   perfbench --workload paper_suite|serve_mixed --seed N
 *             --seconds S --trace 0|1 --spawn-time T [--served PATH]
 *             [--small]
 *   perfbench --selftest
 *
 * Prints "sim_digest <hex>" and then, as its last line, one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. perfbench/run.py
 * builds this binary and is the command to run.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench.hh"
#include "server/json.hh"
#include "sim/machineprog.hh"
#include "trace/trace.hh"

using namespace voltron;
using namespace voltron::perfbench;

namespace {

const char *const kWorkloads[] = {"paper_suite", "serve_mixed"};

/** Per-layer metrics timed as the total seconds of one span name. */
const char *const kTimedSpans[] = {
    "workloads.build", "ir.hash",          "interp.golden",
    "compiler.compile", "sim.setup",       "sim.run",
    "core.verify",     "adaptive.run",     "cache.serialize",
    "cache.deserialize", "fuzz.generate",
};

/** Per-layer counts, reported per round. */
std::vector<std::string>
counted_names()
{
    std::vector<std::string> names = {
        "interp.ops",       "compiler.machine_ops", "sim.ops",
        "sim.cycles",       "sim.core_cycles",      "sim.coupled_cycles",
        "sim.decoupled_cycles",
    };
    for (int m = 0; m <= static_cast<int>(ExecMode::Doall); ++m)
        names.push_back(std::string("compiler.regions.") +
                        exec_mode_name(static_cast<ExecMode>(m)));
    for (size_t s = 1; s < static_cast<size_t>(StallCat::NumCats); ++s)
        names.push_back(std::string("sim.stall.") +
                        stall_cat_name(static_cast<StallCat>(s)));
    for (const char *n :
         {"mem.l1d.misses", "mem.l1i.misses", "mem.l2.misses",
          "net.messages", "net.puts", "net.bcasts", "tm.begins",
          "tm.aborts", "adaptive.evaluations", "cache.artifact_bytes",
          "cache.disk.hits", "cache.disk.evictions", "cache.disk.bytes"})
        names.push_back(n);
    return names;
}

/** Per-layer means the serving workload records as .sum / .n pairs. */
const std::pair<const char *, const char *> kMeans[] = {
    {"server.parse_us", "us"},       {"server.queue_wait_ms", "ms"},
    {"server.golden_ms", "ms"},      {"server.compile_ms", "ms"},
    {"server.simulate_ms", "ms"},
};

std::string
unit_of_count(const std::string &name)
{
    if (name == "cache.artifact_bytes" || name == "cache.disk.bytes")
        return "bytes";
    return "count";
}

/** Fold the span log into the per-layer metrics (0 where a layer did
 * no work in this workload). */
void
report_layers(const SpanLog &log, RunReport &report)
{
    const double rounds =
        std::max<double>(1, static_cast<double>(report.tracedRounds));
    const std::map<std::string, double> secs = log.spanSeconds();
    const std::map<std::string, double> counts = log.counters();
    auto get = [](const std::map<std::string, double> &m,
                  const std::string &k) {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    for (const char *span : kTimedSpans)
        report.metric(std::string(span) + "_s", get(secs, span) / rounds,
                      "s");
    for (const std::string &name : counted_names())
        report.metric(name, get(counts, name) / rounds,
                      unit_of_count(name));
    report.metric("interp.ops_per_s",
                  ratio(get(counts, "interp.ops"),
                        get(secs, "interp.golden")),
                  "1/s");
    report.metric("sim.ops_per_s",
                  ratio(get(counts, "sim.ops"), get(secs, "sim.run")),
                  "1/s");
    report.metric("sim.core_cycles_per_s",
                  ratio(get(counts, "sim.core_cycles"),
                        get(secs, "sim.run")),
                  "1/s");
    report.metric("sim.idle_share",
                  ratio(get(counts, "sim.idle_cycles"),
                        get(counts, "sim.core_cycles")),
                  "ratio");
    report.metric("tm.commit_ratio",
                  ratio(get(counts, "tm.commits"),
                        get(counts, "tm.begins")),
                  "ratio");
    report.metric("adaptive.accept_ratio",
                  ratio(get(counts, "adaptive.accepted"),
                        get(counts, "adaptive.decided")),
                  "ratio");
    for (const auto &[name, unit] : kMeans)
        report.metric(name,
                      ratio(get(counts, std::string(name) + ".sum"),
                            get(counts, std::string(name) + ".n")),
                      unit);
    report.metric("server.response_hit_ratio",
                  ratio(get(counts, "server.response_hits"),
                        get(counts, "server.response_lookups")),
                  "ratio");
    if (!report.metrics.count("trace.overhead_pct"))
        report.metric("trace.overhead_pct", 0, "%");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_suite|serve_mixed "
                 "--seed N --seconds S --trace 0|1\n"
                 "                 --spawn-time T [--served PATH] "
                 "[--small]\n"
                 "       perfbench --selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest")
            return run_selftest();
        if (arg == "--small") {
            args.small = true;
        } else if (arg == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--served" && has_value) {
            args.servedPath = argv[++i];
        } else if (arg == "--spawn-time" && has_value) {
            args.spawnTime = std::strtod(argv[++i], nullptr);
        } else {
            return usage();
        }
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || args.workload == w;
    if (!known || !(args.seconds > 0) || !(args.spawnTime >= 0))
        return usage();

    SpanLog log;
    RunReport report;
    Clock::time_point setupEnd;
    try {
        std::filesystem::create_directories(kOutDir);
        if (args.workload == "serve_mixed")
            run_serve(args, setupEnd, log, report);
        else
            run_grid(args, setupEnd, log, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    if (args.trace) {
        report_layers(log, report);
        const std::string path =
            std::string(kOutDir) + "/spans-" + args.workload + ".json";
        if (!log.write(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
    } else {
        // Set-up is timed from the moment the caller spawned this process
        // (both clocks are CLOCK_MONOTONIC).
        const double setupEndMono =
            std::chrono::duration<double>(setupEnd.time_since_epoch())
                .count();
        report.metric("setup_s", setupEndMono - args.spawnTime, "s");
    }

    for (const std::string &err : report.errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", err.c_str());
    for (const std::string &why : report.failures)
        std::fprintf(stderr, "OPERATION FAILED: %s\n", why.c_str());
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(report.simDigest));
    std::printf("sim_digest %s\n", digest);

    // Metric values carry every digit as measured (%.17g).
    std::string line = std::string("{\"correct\": ") +
                       (report.errors.empty() ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : report.metrics) {
        char number[64];
        std::snprintf(number, sizeof(number), "%.17g", value.first);
        line += std::string(first ? "" : ", ") + "\"" + json_escape(name) +
                "\": {\"value\": " + number + ", \"unit\": \"" +
                json_escape(value.second) + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
