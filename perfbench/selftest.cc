/**
 * @file
 * The benchmark's self-test: every output check passes on a real run
 * and fails on a copy of that run with one fault planted in it.
 */

#include <cstdio>
#include <optional>

#include "bench.hh"
#include "checks.hh"
#include "compiler/compile.hh"
#include "interp/interp.hh"
#include "workloads/suite.hh"

namespace voltron::perfbench {

namespace {

struct Sim
{
    MachineResult result;
    GoldenImage image;
    StatSet net, tm;
};

Sim
simulate(const Program &prog, const Profile &profile, Strategy s, u16 cores)
{
    CompileOptions opts;
    opts.strategy = s;
    opts.numCores = cores;
    const MachineProgram mp = compile_program(prog, profile, opts);
    const MeshShape shape = opts.meshShape();
    Machine machine(mp, MachineConfig::forMesh(shape.rows, shape.cols));
    Sim out;
    out.result = machine.run();
    out.image = extract_golden_image(prog, machine.memory());
    out.net = machine.netStats();
    out.tm = machine.tmStats();
    return out;
}

} // namespace

int
run_selftest()
{
    int bad = 0;
    auto expect = [&](const char *what, const std::string &err,
                      bool shouldFail) {
        const bool failed = !err.empty();
        const bool ok = failed == shouldFail;
        std::printf("%s %s%s%s\n", ok ? "ok  " : "FAIL", what,
                    failed ? ": " : "", err.c_str());
        bad += ok ? 0 : 1;
    };

    SuiteScale scale;
    scale.targetOps = 20'000;
    const Program prog = build_benchmark(benchmark_names().front(), scale);
    const GoldenRun golden = run_golden(prog);
    const GoldenImage goldenImage =
        extract_golden_image(prog, *golden.memory);
    const u64 goldenExit = golden.result.exitValue;
    const Sim serial = simulate(prog, golden.profile, Strategy::SerialOnly, 1);
    const Sim hybrid = simulate(prog, golden.profile, Strategy::Hybrid, 4);

    // Real outputs pass.
    expect("golden agreement (hybrid)",
           check_matches_golden(goldenExit, goldenImage,
                                hybrid.result.exitValue, hybrid.image),
           false);
    expect("region tiling (hybrid)", check_region_tiling(hybrid.result),
           false);
    expect("conservation (hybrid)",
           check_conservation(hybrid.net, hybrid.tm), false);
    expect("serial issue count",
           check_serial_run(serial.result, golden.result.dynamicOps), false);
    expect("adaptive <= hybrid",
           check_adaptive(hybrid.result.cycles, hybrid.result.cycles),
           false);
    expect("repeat run", check_same_run(hybrid.result, hybrid.result),
           false);
    expect("replay", check_replay("{\"cycles\":1}", "{\"cycles\":1}"),
           false);
    expect("disk budget", check_disk_budget(100, 100), false);
    const Expected want{hybrid.result.exitValue, hybrid.result.cycles,
                        hybrid.result.dynamicOps};
    expect("response", check_response(true, want.exitValue, want.cycles,
                                      want.dynamicOps, want),
           false);

    // One planted fault each, and the check must catch it.
    GoldenImage flipped = hybrid.image;
    for (auto &object : flipped)
        if (!object.empty()) {
            object[object.size() / 2] ^= 0x01;
            break;
        }
    expect("golden agreement catches a flipped memory byte",
           check_matches_golden(goldenExit, goldenImage,
                                hybrid.result.exitValue, flipped),
           true);
    expect("golden agreement catches a wrong exit value",
           check_matches_golden(goldenExit, goldenImage,
                                hybrid.result.exitValue + 1, hybrid.image),
           true);

    MachineResult offByOne = hybrid.result;
    offByOne.cycles += 1;
    expect("region tiling catches an off-by-one cycle total",
           check_region_tiling(offByOne), true);

    StatSet net = hybrid.net;
    net.add("net.messages");
    expect("conservation catches a lost message",
           check_conservation(net, hybrid.tm), true);
    StatSet tm = hybrid.tm;
    tm.add("tm.begins");
    expect("conservation catches an unfinished transaction",
           check_conservation(hybrid.net, tm), true);

    MachineResult extraIssue = serial.result;
    extraIssue.issued.at(0) += 1;
    expect("serial issue count catches an extra op",
           check_serial_run(extraIssue, golden.result.dynamicOps), true);
    MachineResult tooFast = serial.result;
    tooFast.cycles = golden.result.dynamicOps - 1;
    expect("serial issue count catches fewer cycles than ops",
           check_serial_run(tooFast, golden.result.dynamicOps), true);

    expect("adaptive <= hybrid catches a loss",
           check_adaptive(hybrid.result.cycles + 1, hybrid.result.cycles),
           true);

    MachineResult drift = hybrid.result;
    drift.stalls.at(0).at(1) += 1;
    expect("repeat run catches a changed stall count",
           check_same_run(hybrid.result, drift), true);

    expect("replay catches a changed result",
           check_replay("{\"cycles\":1}", "{\"cycles\":2}"), true);
    expect("disk budget catches an overrun", check_disk_budget(101, 100),
           true);
    expect("response catches a cycle count that differs",
           check_response(true, want.exitValue, want.cycles + 1,
                          want.dynamicOps, want),
           true);
    expect("response catches correct=false",
           check_response(false, want.exitValue, want.cycles,
                          want.dynamicOps, want),
           true);

    std::printf("%s: %d check(s) misbehaved\n", bad ? "FAIL" : "PASS", bad);
    return bad ? 1 : 0;
}

} // namespace voltron::perfbench
