/**
 * @file
 * Output checks of the benchmark. None compares against a stored copy
 * of earlier output: each states a property the program's results must
 * have (agreement with the golden interpreter, conservation laws of the
 * simulated machine, the adaptive loop's no-loss guarantee, replay
 * equality, the disk budget). Every check returns an empty string when
 * it holds and a description of the violation otherwise; the benchmark's
 * self-test feeds each one a corrupted copy to show that it can fail.
 */

#ifndef VOLTRON_PERFBENCH_CHECKS_HH_
#define VOLTRON_PERFBENCH_CHECKS_HH_

#include <string>

#include "interp/serialize.hh"
#include "sim/machine.hh"
#include "support/stats.hh"

namespace voltron::perfbench {

/** A simulated run's exit value and data segment equal the golden
 * interpreter's. */
inline std::string
check_matches_golden(u64 goldenExit, const GoldenImage &golden,
                     u64 simExit, const GoldenImage &sim)
{
    if (simExit != goldenExit)
        return "exit value " + std::to_string(simExit) +
               " != golden " + std::to_string(goldenExit);
    if (sim.size() != golden.size())
        return "memory image has " + std::to_string(sim.size()) +
               " objects, golden has " + std::to_string(golden.size());
    for (size_t i = 0; i < golden.size(); ++i)
        if (sim[i] != golden[i])
            return "data object " + std::to_string(i) +
                   " differs from the golden image";
    return {};
}

/** Cycles attributed to regions tile the run. */
inline std::string
check_region_tiling(const MachineResult &r)
{
    u64 sum = 0;
    for (const auto &[region, cycles] : r.regionCycles)
        sum += cycles;
    if (sum != r.cycles)
        return "regionCycles sum " + std::to_string(sum) + " != cycles " +
               std::to_string(r.cycles);
    return {};
}

/** Every message sent is received or is a spawn; every transaction
 * begun commits or aborts. */
inline std::string
check_conservation(const StatSet &net, const StatSet &tm)
{
    const u64 messages = net.get("net.messages");
    const u64 received = net.get("net.receives") + net.get("net.spawns");
    if (messages != received)
        return "net.messages " + std::to_string(messages) +
               " != receives + spawns " + std::to_string(received);
    const u64 begins = tm.get("tm.begins");
    const u64 ended = tm.get("tm.commits") + tm.get("tm.aborts");
    if (begins != ended)
        return "tm.begins " + std::to_string(begins) +
               " != commits + aborts " + std::to_string(ended);
    return {};
}

/** The serial single-issue run issues exactly the golden op count and
 * needs at least one cycle per op. */
inline std::string
check_serial_run(const MachineResult &serial, u64 goldenOps)
{
    u64 issued = 0;
    for (u64 n : serial.issued)
        issued += n;
    if (issued != goldenOps)
        return "serial run issued " + std::to_string(issued) +
               " ops, golden ran " + std::to_string(goldenOps);
    if (serial.cycles < goldenOps)
        return "serial run took " + std::to_string(serial.cycles) +
               " cycles for " + std::to_string(goldenOps) + " ops";
    return {};
}

/** Adaptive selection never loses to static Hybrid. */
inline std::string
check_adaptive(Cycle adaptive, Cycle hybrid)
{
    if (adaptive > hybrid)
        return "adaptive " + std::to_string(adaptive) +
               " cycles > hybrid " + std::to_string(hybrid);
    return {};
}

/** Two simulations of one compiled program agree. */
inline std::string
check_same_run(const MachineResult &a, const MachineResult &b)
{
    if (a.cycles != b.cycles || a.exitValue != b.exitValue ||
        a.dynamicOps != b.dynamicOps || a.regionCycles != b.regionCycles ||
        a.stalls != b.stalls || a.issued != b.issued)
        return "repeat simulation differs: cycles " +
               std::to_string(a.cycles) + " vs " + std::to_string(b.cycles);
    return {};
}

/** A replayed response's result equals the first (cold) response's. */
inline std::string
check_replay(const std::string &cold, const std::string &replay)
{
    if (cold != replay)
        return "replayed result differs from its cold response";
    return {};
}

/** The disk tier holds no more than its budget once no store is in
 * flight. */
inline std::string
check_disk_budget(u64 bytes, u64 budget)
{
    if (bytes > budget)
        return "disk tier holds " + std::to_string(bytes) +
               " bytes over its budget of " + std::to_string(budget);
    return {};
}

/** What a run response must say, recomputed through the library. */
struct Expected
{
    u64 exitValue = 0;
    u64 cycles = 0;
    u64 dynamicOps = 0;
};

/** A server's run result (its "result" object) agrees with the
 * in-process recomputation. */
inline std::string
check_response(bool correct, u64 exitValue, u64 cycles, u64 dynamicOps,
               const Expected &want)
{
    if (!correct)
        return "response says the run did not match the golden model";
    if (exitValue != want.exitValue || cycles != want.cycles ||
        dynamicOps != want.dynamicOps)
        return "response (exit " + std::to_string(exitValue) + ", " +
               std::to_string(cycles) + " cycles, " +
               std::to_string(dynamicOps) + " ops) != recomputed (exit " +
               std::to_string(want.exitValue) + ", " +
               std::to_string(want.cycles) + " cycles, " +
               std::to_string(want.dynamicOps) + " ops)";
    return {};
}

} // namespace voltron::perfbench

#endif // VOLTRON_PERFBENCH_CHECKS_HH_
