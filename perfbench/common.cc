#include <sys/resource.h>

#include <atomic>
#include <exception>
#include <fstream>
#include <thread>

#include "bench.hh"
#include "server/json.hh"

namespace voltron::perfbench {

namespace {

/** Innermost open span of this thread (-1: none). */
thread_local i64 tls_current = -1;

u64
thread_tag()
{
    return static_cast<u64>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
}

} // namespace

SpanLog::Scope::Scope(SpanLog &log, const char *name, u64 id, i64 parent)
    : log_(log)
{
    if (!log_.on_)
        return;
    index_ = log_.open(name, id,
                       parent == kThreadParent ? tls_current : parent);
    saved_ = tls_current;
    tls_current = index_;
}

SpanLog::Scope::~Scope()
{
    if (index_ < 0)
        return;
    log_.close(index_);
    tls_current = saved_;
}

i64
SpanLog::open(const char *name, u64 id, i64 parent)
{
    const double start = seconds_between(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, id, parent, start, start, thread_tag()});
    return static_cast<i64>(spans_.size() - 1);
}

void
SpanLog::close(i64 index)
{
    const double end = seconds_between(epoch_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end = end;
}

void
SpanLog::add(const char *name, u64 id, i64 parent, Clock::time_point start,
             Clock::time_point end)
{
    if (!on_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, id, parent, seconds_between(epoch_, start),
                      seconds_between(epoch_, end), thread_tag()});
}

void
SpanLog::count(const std::string &name, double value)
{
    if (!on_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += value;
}

std::map<std::string, double>
SpanLog::spanSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += s.end - s.start;
    return out;
}

std::map<std::string, double>
SpanLog::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.beginObject();
    w.key("spans");
    w.beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.field("name", s.name);
        w.field("id", s.id);
        w.field("parent", static_cast<i64>(s.parent));
        w.field("start", s.start);
        w.field("end", s.end);
        w.field("thread", s.thread);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::ofstream out(path);
    out << w.str() << "\n";
    return static_cast<bool>(out);
}

unsigned
worker_count()
{
    // Two, not all the host's cores: on a 4-vCPU host four busy workers
    // made each simulated point about 30 % slower than two did and
    // roughly doubled the run-to-run spread of the timings, since the
    // simulator is memory-bound and its threads contend with each other.
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 2u);
}

void
parallel_for(unsigned workers, size_t n,
             const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    const size_t threads = std::min<size_t>(workers, n);
    for (size_t t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

double
self_peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace voltron::perfbench
