/**
 * @file
 * The grid workload, paper_suite: every suite benchmark through a grid of
 * (strategy, core count) points, the way the paper's Figs. 10-14 are
 * produced, with each layer called directly so the traced mode can time
 * it from here.
 *
 * One round:
 *   1. golden phase  — per benchmark: build the IR, hash it, run the
 *                      golden interpreter (pool of workers);
 *   2. cold phase    — per point: compile, build the machine, simulate,
 *                      verify; plus one Adaptive point per benchmark
 *                      (VoltronSystem::runAdaptive);
 *   3. warm phase    — the Hybrid headline point requested again, as
 *                      Figs. 12 and 14 do after Fig. 13: its compiled
 *                      program comes from the in-process artifact cache
 *                      and it is simulated again.
 * The in-process artifact cache is cleared at the start of each round
 * and the disk tier is off, so every round does the same work.
 *
 * An operation that throws (a compiler or simulator panic) is counted as
 * failed and the round goes on; a failed golden run fails every operation
 * of its benchmark. The checks skip a benchmark with a failed operation.
 */

#include <memory>
#include <optional>

#include "bench.hh"
#include "checks.hh"
#include "core/voltron.hh"
#include "ir/serialize.hh"
#include "workloads/suite.hh"

namespace voltron::perfbench {

namespace {

struct PointSpec
{
    Strategy strategy;
    u16 cores;
};

struct GridPlan
{
    std::vector<std::string> benchmarks;
    SuiteScale scale;
    /** points[0] is the serial 1-core baseline. */
    std::vector<PointSpec> points;
    /** Hybrid at this core count gives hybrid_speedup_geomean and is the
     * point re-requested warm; Adaptive runs at the same count. */
    u16 headlineCores = 4;
};

GridPlan
make_plan(const RunArgs &args)
{
    GridPlan plan;
    plan.benchmarks = benchmark_names();
    // The seed picks the suite's data and phase parameters; the program
    // shapes and sizes stay those of the named benchmarks.
    plan.scale.seed = 0xb0157a ^ (args.seed * 0x9e3779b97f4a7c15ULL);
    plan.points.push_back({Strategy::SerialOnly, 1});
    const Strategy kinds[] = {Strategy::IlpOnly, Strategy::TlpOnly,
                              Strategy::LlpOnly, Strategy::Hybrid};
    plan.scale.targetOps = 120'000;
    const u16 cores[] = {2, 4};
    for (u16 c : cores)
        for (Strategy s : kinds)
            plan.points.push_back({s, c});
    if (args.small) {
        plan.benchmarks.resize(3);
        plan.scale.targetOps = 20'000;
    }
    return plan;
}

/** One benchmark's golden-phase output. */
struct BenchData
{
    Program prog;
    u64 hash = 0;
    std::shared_ptr<const GoldenArtifact> golden;
};

/** One simulated point. */
struct PointOut
{
    MachineResult result;
    StatSet net, tm, mem;
};

/** Everything one round produced, per benchmark. */
struct RoundOut
{
    std::vector<BenchData> benches;
    std::vector<std::vector<PointOut>> points; //!< [bench][point]
    std::vector<RunOutcome> adaptive;
    std::vector<AdaptiveReport> adaptiveReport;
    std::vector<PointOut> warm;
    /** Latency of each cold task and each warm point, by its index in
     * the round (-1: not run or failed); the order is the same every
     * round, so an index names one operation across rounds. */
    std::vector<double> coldMs, warmMs;
    std::vector<char> goldenFailed; //!< written in the golden phase only
    std::vector<char> broken;       //!< some operation of it failed
};

CompileOptions
options_for(const PointSpec &p)
{
    CompileOptions o;
    o.strategy = p.strategy;
    o.numCores = p.cores;
    return o;
}

u64
static_ops(const MachineProgram &mp)
{
    u64 n = 0;
    for (const Program &core : mp.perCore)
        for (const Function &f : core.functions)
            for (const BasicBlock &bb : f.blocks)
                n += bb.ops.size();
    return n;
}

/** Per-layer counts of one simulation (traced rounds only). */
void
count_sim(SpanLog &log, const MachineResult &r, const PointOut &out,
          u16 cores)
{
    if (!log.enabled())
        return;
    log.count("sim.ops", static_cast<double>(r.dynamicOps));
    log.count("sim.cycles", static_cast<double>(r.cycles));
    log.count("sim.core_cycles", static_cast<double>(r.cycles) * cores);
    u64 idle = 0;
    for (u64 v : r.idleCycles)
        idle += v;
    log.count("sim.idle_cycles", static_cast<double>(idle));
    log.count("sim.coupled_cycles", static_cast<double>(r.coupledCycles));
    log.count("sim.decoupled_cycles",
              static_cast<double>(r.decoupledCycles));
    for (size_t s = 1; s < static_cast<size_t>(StallCat::NumCats); ++s) {
        u64 sum = 0;
        for (const auto &core : r.stalls)
            sum += core[s];
        log.count(std::string("sim.stall.") +
                      stall_cat_name(static_cast<StallCat>(s)),
                  static_cast<double>(sum));
    }
    auto ends_with = [](const std::string &s, const std::string &tail) {
        return s.size() >= tail.size() &&
               s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
    };
    for (const auto &[name, v] : out.mem.counters())
        for (const char *tail : {"l1d.misses", "l1i.misses", "l2.misses"})
            if (ends_with(name, std::string(".") + tail) || name == tail)
                log.count(std::string("mem.") + tail,
                          static_cast<double>(v));
    for (const char *name : {"net.messages", "net.puts", "net.bcasts"})
        log.count(name, static_cast<double>(out.net.get(name)));
    for (const char *name : {"tm.begins", "tm.aborts", "tm.commits"})
        log.count(name, static_cast<double>(out.tm.get(name)));
}

/** Simulate @p mp and verify it against the golden run. */
PointOut
simulate(SpanLog &log, const BenchData &b, const MachineProgram &mp,
         const CompileOptions &opts, RunReport &report,
         const std::string &where, u64 id)
{
    const MeshShape shape = opts.meshShape();
    std::optional<Machine> machine;
    {
        SpanLog::Scope s(log, "sim.setup", id);
        machine.emplace(mp, MachineConfig::forMesh(shape.rows, shape.cols));
    }
    PointOut out;
    {
        SpanLog::Scope s(log, "sim.run", id);
        out.result = machine->run();
    }
    {
        SpanLog::Scope s(log, "core.verify", id);
        const std::string err = check_matches_golden(
            b.golden->result.exitValue, b.golden->image,
            out.result.exitValue,
            extract_golden_image(b.prog, machine->memory()));
        if (!err.empty())
            report.fail(where + ": " + err);
    }
    out.net = machine->netStats();
    out.tm = machine->tmStats();
    out.mem = machine->memStats();
    count_sim(log, out.result, out, opts.numCores);
    return out;
}

std::string
point_name(const std::string &bench, const PointSpec &p)
{
    return bench + "/" + strategy_name(p.strategy) + "@" +
           std::to_string(p.cores);
}

RoundOut
run_round(const GridPlan &plan, unsigned workers, SpanLog &log,
          RunReport &report, u64 round)
{
    ArtifactCache &cache = ArtifactCache::instance();
    cache.clearMemory();

    const size_t nb = plan.benchmarks.size();
    const size_t np = plan.points.size();
    RoundOut out;
    out.benches.resize(nb);
    out.points.assign(nb, std::vector<PointOut>(np));
    out.adaptive.resize(nb);
    out.adaptiveReport.resize(nb);
    out.warm.resize(nb);
    out.goldenFailed.assign(nb, 0);
    out.broken.assign(nb, 0);
    std::mutex latencyMutex;

    // Run body(); when it throws, count @p ops failed operations and
    // return false.
    auto guarded = [&](size_t bench, const std::string &what, u64 ops,
                       const std::function<void()> &body) {
        try {
            body();
            return true;
        } catch (const std::exception &e) {
            report.failOp(what + ": " + e.what(), ops);
            std::lock_guard<std::mutex> lock(latencyMutex);
            out.broken[bench] = 1;
            return false;
        }
    };

    SpanLog::Scope roundSpan(log, "round", round);
    {
        SpanLog::Scope phase(log, "grid.golden_phase", round);
        const i64 parent = phase.index();
        parallel_for(workers, nb, [&](size_t i) {
            BenchData &b = out.benches[i];
            SpanLog::Scope bench(log, "benchmark", i, parent);
            // Without a golden run none of the benchmark's operations can
            // run: all of them count as failed.
            const bool ok = guarded(i, plan.benchmarks[i] + " (golden)",
                                    np + 2, [&] {
                {
                    SpanLog::Scope s(log, "workloads.build", i);
                    b.prog = build_benchmark(plan.benchmarks[i], plan.scale);
                }
                {
                    SpanLog::Scope s(log, "ir.hash", i);
                    b.hash = program_content_hash(b.prog);
                }
                auto golden = std::make_shared<GoldenArtifact>();
                {
                    SpanLog::Scope s(log, "interp.golden", i);
                    GoldenRun run = run_golden(b.prog);
                    golden->result = run.result;
                    golden->profile = std::move(run.profile);
                    golden->image = extract_golden_image(b.prog, *run.memory);
                }
                log.count("interp.ops",
                          static_cast<double>(golden->result.dynamicOps));
                // Adaptive's VoltronSystem finds this golden run instead of
                // interpreting the program a second time.
                cache.putGolden(b.hash, golden);
                b.golden = std::move(golden);
            });
            out.goldenFailed[i] = !ok;
        });
    }

    // Adaptive points first: they are the longest tasks.
    struct Task
    {
        size_t bench;
        int point; //!< -1: the Adaptive point
    };
    std::vector<Task> tasks;
    for (size_t i = 0; i < nb; ++i)
        tasks.push_back({i, -1});
    std::vector<size_t> order(np);
    for (size_t p = 0; p < np; ++p)
        order[p] = p;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return plan.points[a].cores > plan.points[b].cores;
    });
    for (size_t p : order)
        for (size_t i = 0; i < nb; ++i)
            tasks.push_back({i, static_cast<int>(p)});

    out.coldMs.assign(tasks.size(), -1);
    out.warmMs.assign(nb, -1);
    // Each slot is written by the one task that owns it.
    auto record = [](double &into, Clock::time_point t0) {
        into = seconds_between(t0, Clock::now()) * 1e3;
    };

    {
        SpanLog::Scope phase(log, "grid.cold_phase", round);
        const i64 parent = phase.index();
        parallel_for(workers, tasks.size(), [&](size_t t) {
            const Task task = tasks[t];
            if (out.goldenFailed[task.bench])
                return;
            const BenchData &b = out.benches[task.bench];
            const std::string &name = plan.benchmarks[task.bench];
            const auto t0 = Clock::now();
            const u64 id = task.bench * 100 + static_cast<u64>(
                                                  task.point + 1);
            SpanLog::Scope point(log, "point", id, parent);
            const std::string where =
                task.point < 0
                    ? name + "/adaptive@" + std::to_string(plan.headlineCores)
                    : point_name(name, plan.points[static_cast<size_t>(
                                           task.point)]);
            guarded(task.bench, where, 1, [&] {
                if (task.point < 0) {
                    CompileOptions opts;
                    opts.strategy = Strategy::Adaptive;
                    opts.numCores = plan.headlineCores;
                    SpanLog::Scope s(log, "adaptive.run", id);
                    VoltronSystem sys(b.prog);
                    AdaptiveReport &rep = out.adaptiveReport[task.bench];
                    out.adaptive[task.bench] = sys.runAdaptive(opts, &rep);
                    log.count("adaptive.evaluations", rep.evaluations);
                    log.count("adaptive.accepted",
                              static_cast<double>(rep.accepted.size()));
                    log.count("adaptive.decided",
                              static_cast<double>(rep.accepted.size() +
                                                  rep.rejected.size()));
                    record(out.coldMs[t], t0);
                    return;
                }
                const PointSpec &spec = plan.points[static_cast<size_t>(
                    task.point)];
                const CompileOptions opts = options_for(spec);
                auto artifact = std::make_shared<MachineArtifact>();
                {
                    SpanLog::Scope s(log, "compiler.compile", id);
                    artifact->program = compile_program(
                        b.prog, b.golden->profile, opts, &artifact->selection);
                }
                if (log.enabled()) {
                    log.count("compiler.machine_ops",
                              static_cast<double>(
                                  static_ops(artifact->program)));
                    for (const auto &e : artifact->selection.entries)
                        log.count(std::string("compiler.regions.") +
                                      exec_mode_name(e.mode),
                                  1);
                }
                out.points[task.bench][static_cast<size_t>(task.point)] =
                    simulate(log, b, artifact->program, opts, report, where,
                             id);
                if (spec.strategy == Strategy::Hybrid &&
                    spec.cores == plan.headlineCores)
                    cache.putMachine(hash_combine(b.hash, options_hash(opts)),
                                     artifact);
                record(out.coldMs[t], t0);
            });
        });
    }

    {
        SpanLog::Scope phase(log, "grid.warm_phase", round);
        const i64 parent = phase.index();
        const PointSpec headline{Strategy::Hybrid, plan.headlineCores};
        const CompileOptions opts = options_for(headline);
        parallel_for(workers, nb, [&](size_t i) {
            if (out.goldenFailed[i])
                return;
            const BenchData &b = out.benches[i];
            const auto t0 = Clock::now();
            const u64 id = i * 100 + 99;
            const std::string where =
                point_name(plan.benchmarks[i], headline) + " (warm)";
            SpanLog::Scope point(log, "point", id, parent);
            std::shared_ptr<const MachineArtifact> artifact;
            {
                SpanLog::Scope s(log, "cache.lookup", id);
                artifact = cache.getMachine(
                    hash_combine(b.hash, options_hash(opts)));
            }
            if (!artifact) {
                // Only this task touches out.broken[i] in this phase.
                const std::string why =
                    "compiled Hybrid point missing from the artifact cache";
                if (out.broken[i])
                    report.failOp(where + ": " + why);
                else
                    report.fail(where + ": " + why);
                return;
            }
            guarded(i, where, 1, [&] {
                out.warm[i] = simulate(log, b, artifact->program, opts,
                                       report, where, id);
                record(out.warmMs[i], t0);
            });
        });
    }
    return out;
}

/** Check one round's outputs and fold them into the digest. */
u64
check_round(const GridPlan &plan, const RoundOut &r, RunReport &report,
            std::vector<double> &hybridSpeedups,
            std::vector<double> &adaptiveSpeedups)
{
    u64 h = kDigestSeed;
    size_t headline = 0;
    for (size_t p = 0; p < plan.points.size(); ++p)
        if (plan.points[p].strategy == Strategy::Hybrid &&
            plan.points[p].cores == plan.headlineCores)
            headline = p;
    for (size_t i = 0; i < plan.benchmarks.size(); ++i) {
        if (r.broken[i])
            continue;
        const std::string &name = plan.benchmarks[i];
        const auto &points = r.points[i];
        for (size_t p = 0; p < points.size(); ++p) {
            const PointOut &o = points[p];
            const std::string where = point_name(name, plan.points[p]);
            for (const std::string &err :
                 {check_region_tiling(o.result),
                  check_conservation(o.net, o.tm)})
                if (!err.empty())
                    report.fail(where + ": " + err);
            h = digest_mix(h, o.result.cycles);
            h = digest_mix(h, o.result.exitValue);
            h = digest_mix(h, o.result.dynamicOps);
            for (const auto &[region, cycles] : o.result.regionCycles)
                h = digest_mix(digest_mix(h, region), cycles);
            for (const auto &core : o.result.stalls)
                for (u64 v : core)
                    h = digest_mix(h, v);
            for (const StatSet *set : {&o.net, &o.tm, &o.mem})
                for (const auto &[k, v] : set->counters())
                    h = digest_mix(digest_mix(h, k.size()), v);
        }
        const std::string serialErr = check_serial_run(
            points[0].result, r.benches[i].golden->result.dynamicOps);
        if (!serialErr.empty())
            report.fail(name + "/serial@1: " + serialErr);

        const MachineResult &hybrid = points[headline].result;
        const RunOutcome &adaptive = r.adaptive[i];
        const std::string where =
            name + "/adaptive@" + std::to_string(plan.headlineCores);
        if (!adaptive.correct())
            report.fail(where + ": diverged from the golden model");
        for (const std::string &err :
             {check_region_tiling(adaptive.result),
              check_adaptive(adaptive.result.cycles, hybrid.cycles),
              check_same_run(r.warm[i].result, hybrid)})
            if (!err.empty())
                report.fail(where + ": " + err);
        h = digest_mix(h, adaptive.result.cycles);
        h = digest_mix(h, r.adaptiveReport[i].evaluations);

        const double serial = static_cast<double>(points[0].result.cycles);
        hybridSpeedups.push_back(serial /
                                 static_cast<double>(hybrid.cycles));
        adaptiveSpeedups.push_back(
            serial / static_cast<double>(adaptive.result.cycles));
    }
    return h;
}

/** Fold one round's per-operation latencies into the best so far
 * (-1: no latency yet). */
void
keep_best(std::vector<double> &best, const std::vector<double> &round)
{
    if (best.empty())
        best.assign(round.size(), -1);
    for (size_t i = 0; i < round.size(); ++i)
        if (round[i] >= 0 && (best[i] < 0 || round[i] < best[i]))
            best[i] = round[i];
}

/** The latencies of the operations that ran. */
std::vector<double>
measured(const std::vector<double> &best)
{
    std::vector<double> out;
    for (double v : best)
        if (v >= 0)
            out.push_back(v);
    return out;
}

} // namespace

void
run_grid(const RunArgs &args, Clock::time_point &setupEnd, SpanLog &log,
         RunReport &report)
{
    const GridPlan plan = make_plan(args);
    const unsigned workers = worker_count();
    // No disk tier: every round computes from the program IR up.
    ArtifactCache::instance().setDiskDir(std::string());
    setupEnd = Clock::now();

    const size_t opsPerRound = plan.benchmarks.size() *
                               (plan.points.size() + 2);
    // The small mode runs exactly two rounds traced or not.
    const size_t minRounds = args.trace || args.small ? 2 : 1;
    std::vector<double> untracedWall, tracedWall;
    // Per operation, its best latency over the untraced rounds.
    std::vector<double> bestColdMs, bestWarmMs;
    std::vector<double> hybridSpeedups, adaptiveSpeedups;
    u64 firstDigest = 0;
    const auto start = Clock::now();
    for (u64 round = 0;; ++round) {
        if (round >= minRounds &&
            (args.small || seconds_between(start, Clock::now()) >=
                               args.seconds))
            break;
        const bool traced = args.trace && round % 2 == 1;
        log.enable(traced);
        const auto t0 = Clock::now();
        RoundOut out = run_round(plan, workers, log, report, round);
        const double wall = seconds_between(t0, Clock::now());
        log.enable(false);
        (traced ? tracedWall : untracedWall).push_back(wall);
        report.attempted += opsPerRound;
        if (!traced) {
            keep_best(bestColdMs, out.coldMs);
            keep_best(bestWarmMs, out.warmMs);
        }

        std::vector<double> hs, as;
        const u64 digest = check_round(plan, out, report, hs, as);
        if (round == 0) {
            firstDigest = digest;
            hybridSpeedups = hs;
            adaptiveSpeedups = as;
        } else if (digest != firstDigest) {
            report.fail("round " + std::to_string(round) +
                        " simulated different results than round 0");
        }
    }
    report.simDigest = firstDigest;

    if (args.trace) {
        report.metric("trace.overhead_pct",
                      100.0 * (median(tracedWall) / median(untracedWall) -
                               1.0),
                      "%");
        report.tracedRounds = tracedWall.size();
        return;
    }
    // Timings are each operation's best round (the minimum filters out
    // the time other tenants of a shared host take from a run) and the
    // fastest whole round.
    const double bestWall =
        *std::min_element(untracedWall.begin(), untracedWall.end());
    const std::vector<double> cold = measured(bestColdMs);
    const std::vector<double> warm = measured(bestWarmMs);
    report.metric("wall_s", bestWall, "s");
    report.metric("requests_per_s",
                  static_cast<double>(opsPerRound) / bestWall, "1/s");
    report.metric("cold_p50_ms", quantile(cold, 0.5), "ms");
    report.metric("cold_p90_ms", quantile(cold, 0.9), "ms");
    report.metric("warm_p50_us", quantile(warm, 0.5) * 1e3, "us");
    report.metric("hybrid_speedup_geomean", geomean(hybridSpeedups), "x");
    report.metric("adaptive_speedup_geomean", geomean(adaptiveSpeedups),
                  "x");
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
}

} // namespace voltron::perfbench
