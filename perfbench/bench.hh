/**
 * @file
 * Shared pieces of the Voltron benchmark binary: run arguments, the
 * report every workload fills in, the in-memory span log behind the
 * traced mode, and small statistics helpers.
 *
 * A run repeats whole rounds of one workload until --seconds have
 * passed. Untraced runs report the end-to-end metrics; traced runs
 * alternate untraced and traced rounds, report the per-layer metrics
 * from the traced rounds and the tracing overhead as the gap between
 * the two kinds of round.
 */

#ifndef VOLTRON_PERFBENCH_BENCH_HH_
#define VOLTRON_PERFBENCH_BENCH_HH_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/types.hh"

namespace voltron::perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line arguments of one run. */
struct RunArgs
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Few benchmarks, small programs, exactly two rounds: the
     * benchmark's own test uses it to run every workload quickly. */
    bool small = false;
    std::string servedPath; //!< voltron-served binary (serve_mixed)
    /** CLOCK_MONOTONIC seconds at which the caller spawned this process;
     * setup_s is timed from it. */
    double spawnTime = -1;
};

/** Where a run writes its span file and the daemon's scratch directory. */
inline constexpr const char *kOutDir = ".perfbench_out";

/** What one run hands back to main(). */
struct RunReport
{
    u64 attempted = 0;
    u64 failed = 0;
    /** Check failures (an empty list means every output was correct). */
    std::vector<std::string> errors;
    /** Why operations failed (the first few); they leave `correct` as
     * it is, since it speaks of the operations that did not fail. */
    std::vector<std::string> failures;
    /** name -> (value, unit); end-to-end or per-layer by run mode. */
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Hash of every simulated quantity the run produced; equal across
     * traced and untraced runs of one seed. */
    u64 simDigest = 0;
    /** Rounds recorded by the span log (traced runs). */
    u64 tracedRounds = 0;

    /** Record a check failure; callable from worker threads. */
    void
    fail(const std::string &what)
    {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (errors.size() < 20)
            errors.push_back(what);
        else if (errors.size() == 20)
            errors.push_back("... further check failures suppressed");
    }

    /** Count @p n failed operations; callable from worker threads. */
    void
    failOp(const std::string &what, u64 n = 1)
    {
        std::lock_guard<std::mutex> lock(errorMutex);
        failed += n;
        if (failures.size() < 20)
            failures.push_back(what);
    }

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    std::mutex errorMutex;
};

/**
 * In-memory host-span log. Each span has a name, a start and end
 * (seconds from the log's epoch), the index of its parent span (-1 for
 * none) and the point or request id it belongs to. Spans opened on a
 * thread nest under that thread's innermost open span unless a parent
 * is given. Recording is off until enable(true); a disabled log costs
 * one branch per span.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        u64 id = 0;
        i64 parent = -1;
        double start = 0;
        double end = 0;
        u64 thread = 0;
    };

    /** Parent argument meaning "this thread's innermost open span". */
    static constexpr i64 kThreadParent = -2;

    /** RAII span; inert when the log was disabled at open. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, u64 id,
              i64 parent = kThreadParent);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Index of this span (-1 when not recorded). */
        i64 index() const { return index_; }

      private:
        SpanLog &log_;
        i64 index_ = -1;
        i64 saved_ = -1;
    };

    SpanLog() : epoch_(Clock::now()) {}

    void enable(bool on) { on_ = on; }
    bool enabled() const { return on_; }

    /** Record a span that has already ended (e.g. a request timed by a
     * client thread). */
    void add(const char *name, u64 id, i64 parent, Clock::time_point start,
             Clock::time_point end);

    /** Add @p value to counter @p name (recorded only when enabled). */
    void count(const std::string &name, double value);

    /** Seconds per span name and counter totals, over recorded spans. */
    std::map<std::string, double> spanSeconds() const;
    std::map<std::string, double> counters() const;

    /** Write every span as one JSON document; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    i64 open(const char *name, u64 id, i64 parent);
    void close(i64 index);

    bool on_ = false;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::string, double> counters_;
};

/** Value at quantile @p q of @p values, interpolated linearly between
 * the two closest ranks (0 when empty). */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] * (1 - frac) + values[hi] * frac;
}

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** FNV-1a step, for the simulated-quantity digest. */
inline u64
digest_mix(u64 h, u64 v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline constexpr u64 kDigestSeed = 0xcbf29ce484222325ULL;

/** Worker threads (and serving clients): the host's cores, at most
 * two. */
unsigned worker_count();

/** Run fn(i) for i in [0, n) on @p workers threads, handing out
 * indices in order; rethrows the first exception after every worker has
 * stopped. */
void parallel_for(unsigned workers, size_t n,
                  const std::function<void(size_t)> &fn);

/** Peak resident set of this process, MB. */
double self_peak_rss_mb();

/**
 * The grid workload (paper_suite). Each workload runner sets
 * @p setupEnd when its set-up is done, just before the first round.
 */
void run_grid(const RunArgs &args, Clock::time_point &setupEnd,
              SpanLog &log, RunReport &report);

/** The serving workload (serve_mixed). */
void run_serve(const RunArgs &args, Clock::time_point &setupEnd,
               SpanLog &log, RunReport &report);

/** Show that each output check can fail; 0 when all behave. */
int run_selftest();

} // namespace voltron::perfbench

#endif // VOLTRON_PERFBENCH_BENCH_HH_
