/**
 * @file
 * perfbench_harness — one run of one benchmark workload.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                     --daemon PATH --workdir DIR [--scale tiny|small]
 *
 * With --trace 0 it prints the end-to-end metrics, with --trace 1 the
 * per-layer ones: first a human-readable table, then, as the last line
 * of stdout, one JSON object {correct, attempted, failed, metrics}.
 * perfbench/run.py builds this binary and is the command users run.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\n"
                 "usage: perfbench_harness --workload "
                 "sweep-exact|sweep-approx|sweep-alloc\n"
                 "       --seed N --seconds S --trace 0|1 --daemon PATH\n"
                 "       --workdir DIR [--scale tiny|small]\n",
                 why);
    std::exit(2);
}

u64
parseCount(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end)
        usage((std::string(flag) + " expects a whole number").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool seconds_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = parseCount(value, "--seed");
        } else if (arg == "--seconds") {
            char *end = nullptr;
            opt.seconds = std::strtod(value, &end);
            if (!*value || *end || !(opt.seconds > 0))
                usage("--seconds expects a positive number");
            seconds_set = true;
        } else if (arg == "--trace") {
            opt.trace = parseCount(value, "--trace") != 0;
        } else if (arg == "--daemon") {
            opt.daemon = value;
        } else if (arg == "--workdir") {
            opt.workdir = value;
        } else if (arg == "--scale") {
            if (std::strcmp(value, "tiny") == 0)
                opt.scale = cheri::workloads::Scale::Tiny;
            else if (std::strcmp(value, "small") == 0)
                opt.scale = cheri::workloads::Scale::Small;
            else
                usage("--scale expects tiny or small");
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (opt.workload.empty() || !seconds_set || opt.daemon.empty() ||
        opt.workdir.empty())
        usage("--workload, --seconds, --daemon and --workdir are required");
    return opt;
}

/** A JSON number with all its digits (JSON has no NaN/Inf). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
print(const Options &opt, const Report &report)
{
    std::printf("# cheriperf benchmark: workload %s, seed %llu, %s run\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced (per-layer)" : "untraced (end-to-end)");
    for (const auto &m : report.metrics)
        std::printf("  %-32s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(),
                    m.better.empty() ? ""
                                     : (m.better + " is better").c_str());
    const double share = report.attempted
                             ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 0.0;
    std::printf("  %-32s %16.6g %-8s lower is better (%llu of %llu "
                "operations failed)\n",
                "fail_share", share, "ratio",
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const auto &note : report.notes)
        std::printf("  %s\n", note.c_str());

    std::string json = "{\"correct\": ";
    json += report.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &m : report.metrics) {
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    Report report;
    try {
        runSweep(opt, report);
        if (opt.trace) {
            serveLayerProbe(opt, report);
            runProbes(opt, report);
        } else {
            scoreFidelity(opt, report);
        }
    } catch (const std::exception &e) {
        // Caught so that the daemon and scratch files are released by
        // their destructors before the harness exits.
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
    print(opt, report);
    return 0;
}
