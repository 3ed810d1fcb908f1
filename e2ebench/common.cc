#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <spawn.h>
#include <unistd.h>
#include <sys/wait.h>

extern char **environ;

namespace rexbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void
Metrics::add(const std::string &name, double value, const std::string &unit)
{
    _entries.push_back({name, {value, unit}});
}

std::string
Metrics::json() const
{
    std::string out;
    for (const auto &[name, entry] : _entries) {
        char number[64];
        std::snprintf(number, sizeof(number), "%.17g",
                      std::isfinite(entry.first) ? entry.first : 0.0);
        if (!out.empty())
            out += ", ";
        out += "\"" + name + "\": {\"value\": " + number +
               ", \"unit\": \"" + entry.second + "\"}";
    }
    return out;
}

void
Gates::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    std::lock_guard<std::mutex> lock(_mutex);
    _failures.push_back(what);
    std::fprintf(stderr, "rexbench: GATE FAILED: %s\n", what.c_str());
}

void
Trace::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(span);
}

std::vector<Span>
Trace::named(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<Span> out;
    for (const Span &span : _spans) {
        if (name == span.name)
            out.push_back(span);
    }
    return out;
}

std::vector<double>
Trace::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : named(name))
        out.push_back(span.ns());
    return out;
}

std::size_t
Trace::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans.size();
}

void
Trace::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "rexbench: cannot write %s\n", path.c_str());
        return;
    }
    for (const Span &span : _spans) {
        std::fprintf(out,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"key\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"count\":%llu}\n",
                     span.name, static_cast<unsigned long long>(span.id),
                     static_cast<unsigned long long>(span.parent),
                     static_cast<unsigned long long>(span.key),
                     static_cast<long long>(span.startNs),
                     static_cast<long long>(span.endNs),
                     static_cast<unsigned long long>(span.count));
    }
    std::fclose(out);
}

ScopedSpan::ScopedSpan(Trace *trace, const char *name, std::uint64_t parent,
                       std::uint64_t key)
    : _trace(trace && trace->enabled() ? trace : nullptr)
{
    if (!_trace)
        return;
    _span.name = name;
    _span.id = _trace->nextId();
    _span.parent = parent;
    _span.key = key;
    _span.startNs = _trace->nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!_trace)
        return;
    _span.endNs = _trace->nowNs();
    _trace->record(_span);
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0;
}

void
probeReady()
{
    std::printf("ready\n");
    std::fflush(stdout);
}

void
probeRss()
{
    std::printf("rss %.6f\n", peakRssMb("self"));
    std::fflush(stdout);
}

void
SetupProbes::batch()
{
    std::string output;
    for (int i = 0; i < kSetupsPerSlice; ++i)
        _samples.push_back(spawn(false, output));
}

double
SetupProbes::peakRssMb()
{
    std::string output;
    spawn(true, output);
    std::size_t rss = output.find("rss ");
    return rss == std::string::npos ? 0 : std::stod(output.substr(rss + 4));
}

double
SetupProbes::spawn(bool rss, std::string &output)
{
    std::vector<std::string> args = {_options.self, "--setup-probe",
                                     _options.workload};
    if (rss)
        args.push_back("--probe-rss");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    int out[2];
    if (::pipe(out) != 0) {
        _gates.check(false, "cannot create the set-up probe pipe");
        return 0;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    posix_spawn_file_actions_addclose(&actions, out[0]);
    posix_spawn_file_actions_addclose(&actions, out[1]);
    Clock::time_point start = Clock::now();
    pid_t pid = 0;
    int rc = ::posix_spawn(&pid, _options.self.c_str(), &actions, nullptr,
                           argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (rc != 0) {
        ::close(out[0]);
        _gates.check(false, "cannot spawn the set-up probe");
        return 0;
    }
    // "ready" marks the first result; "rss <MB>" may follow.
    std::string text;
    double seconds = 0;
    char buf[256];
    ssize_t n;
    while ((n = ::read(out[0], buf, sizeof(buf))) > 0) {
        text.append(buf, static_cast<std::size_t>(n));
        if (seconds == 0 && text.find("ready\n") != std::string::npos)
            seconds = secondsSince(start);
    }
    ::close(out[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    _gates.check(WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                     seconds > 0,
                 "set-up probe failed");
    output = text;
    return seconds;
}

} // namespace rexbench
