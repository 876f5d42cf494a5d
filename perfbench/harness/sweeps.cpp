/**
 * @file
 * The three closed-loop sweep workloads. Each run builds one plan from
 * the seed and runs it one cell at a time, result cache off, as many
 * times as fit in the measuring window.
 *
 *  - sweep-exact:  every registered workload x 3 ABIs, exact timing.
 *  - sweep-approx: the same cells under 1-in-1000 epoch sampling.
 *  - sweep-alloc:  the allocator stressors x {hybrid, purecap} x four
 *                  allocator configurations.
 */

#include <algorithm>
#include <stdexcept>

#include "alloc/policy.hpp"
#include "common.hpp"
#include "serve/render.hpp"
#include "sim/machine.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using namespace cheri;

trace::ApproxConfig
sweepApprox()
{
    trace::ApproxConfig approx;
    approx.enabled = true;
    approx.rate = 1000;
    approx.epoch_insts = 10'000;
    return approx;
}

namespace {

struct SweepPlan
{
    runner::ExperimentPlan plan;
    bool approxColumns = false;
    bool allocColumn = false;
};

/** The workload's cells: the registry lookup plus the plan build. */
SweepPlan
buildPlan(const std::string &name, workloads::Scale scale, u64 seed)
{
    SweepPlan out;
    if (name == "sweep-exact") {
        out.plan = runner::ExperimentPlan::fullSweep({}, scale, seed);
    } else if (name == "sweep-approx") {
        out.approxColumns = true;
        for (const auto &w : workloads::allWorkloads())
            for (abi::Abi a : abi::kAllAbis) {
                runner::RunRequest request;
                request.workload = w->info().name;
                request.abi = a;
                request.scale = scale;
                request.seed = seed;
                request.approx = sweepApprox();
                out.plan.add(request);
            }
    } else if (name == "sweep-alloc") {
        out.allocColumn = true;
        // The registry's allocator-heavy proxies: the boxed-value
        // interpreter, the two object-graph SPEC workloads and SQLite.
        static const char *const kNames[] = {
            "Interp.boxvm", "520.omnetpp_r", "523.xalancbmk_r", "SQLite"};
        static const char *const kAllocators[] = {
            "freelist", "bump", "sizeclass", "sizeclass+revoke"};
        const auto pool = workloads::allWorkloads();
        for (const char *w : kNames) {
            if (!workloads::findWorkload(pool, w))
                throw std::runtime_error(std::string("no workload ") + w);
            for (const char *a : kAllocators) {
                const auto allocator = alloc::parseAllocator(a);
                if (!allocator)
                    throw std::runtime_error(std::string("no allocator ") +
                                             a);
                for (abi::Abi abi : {abi::Abi::Hybrid, abi::Abi::Purecap}) {
                    runner::RunRequest request;
                    request.workload = w;
                    request.abi = abi;
                    request.scale = scale;
                    request.seed = seed;
                    request.allocator = *allocator;
                    out.plan.add(request);
                }
            }
        }
    } else {
        throw std::runtime_error("unknown sweep workload " + name);
    }
    return out;
}

/** Compare every pass's CSV with the first one's. */
struct CsvCheck
{
    const SweepPlan &sweep;
    std::string first;

    void
    operator()(const Pass &pass, Report &report, const char *what)
    {
        const std::string csv = serve::sweepCsv(
            pass.results, sweep.approxColumns, sweep.allocColumn);
        if (first.empty())
            first = csv;
        else
            report.op(csv == first, what);
    }
};

/**
 * One set-up of @p sweep: the registry lookup, the plan build and the
 * first cell's Machine, i.e. until the first cell can issue. Returns
 * its seconds.
 */
double
setUp(const Options &opt, SweepPlan &sweep)
{
    const auto t0 = Clock::now();
    sweep = buildPlan(opt.workload, opt.scale, opt.seed);
    const sim::Machine first(sweep.plan.cells().front().resolvedConfig());
    return secondsSince(t0);
}

void
timedRun(const Options &opt, const SweepPlan &sweep, Report &report)
{
    CsvCheck csv{sweep, {}};
    std::vector<std::vector<double>> cellWalls(sweep.plan.size());
    std::vector<double> setups;
    double insts = 0;
    const auto start = Clock::now();
    do {
        // A set-up takes well under a millisecond, so its samples are
        // spread over the whole window: taken back to back at start-up,
        // one host stall moved their median by a third between runs.
        for (int i = 0; i < 8; ++i) {
            SweepPlan again;
            setups.push_back(setUp(opt, again));
        }
        const Pass pass = plainPass(sweep.plan);
        checkCells(pass.results, report);
        csv(pass, report, "sweep CSV differs between run sets");
        insts = 0;
        for (std::size_t i = 0; i < pass.results.size(); ++i) {
            const auto &r = pass.results[i];
            if (!r.ok())
                continue;
            insts += static_cast<double>(r.sim->instructions);
            cellWalls[i].push_back(r.wallSeconds);
        }
    } while (secondsSince(start) < opt.seconds);

    // A cell does the same deterministic work in every run set, and
    // other tenants of the host only ever add time to it, so each
    // cell's fastest run set is its least disturbed measurement. On a
    // shared host the per-cell median drifts with the neighbours' load
    // (a 30% spread across runs against 5% for the minimum).
    std::vector<double> cellTimes;
    for (const auto &walls : cellWalls)
        if (!walls.empty())
            cellTimes.push_back(*std::min_element(walls.begin(), walls.end()));
    double busy = 0;
    for (double t : cellTimes)
        busy += t;
    report.add("setup_s", median(setups), "s", "lower");
    report.add("sim_mips", insts / busy / 1e6, "Minst/s", "higher");
    report.add("peak_rss_mib", selfPeakRssMib(), "MiB", "lower");
    report.add("op_p50_s", quantile(cellTimes, 0.5), "s", "lower");
    report.add("op_p90_s", quantile(cellTimes, 0.9), "s", "lower");
    report.notes.push_back(
        std::to_string(cellWalls.front().size()) + " run sets of " +
        std::to_string(sweep.plan.size()) + " cells (" +
        std::to_string(cellTimes.size()) + " op_* samples), " +
        std::to_string(static_cast<unsigned long long>(insts)) +
        " simulated instructions each");
}

void
tracedRun(const Options &opt, const SweepPlan &sweep, Report &report)
{
    CsvCheck csv{sweep, {}};
    Tracer tracer;
    std::vector<double> plainWalls, tracedWalls;
    Pass traced;
    pmu::EventCounts firstCounts;
    const auto start = Clock::now();
    do {
        const Pass plain = plainPass(sweep.plan);
        checkCells(plain.results, report);
        csv(plain, report, "sweep CSV differs between run sets");
        plainWalls.push_back(plain.wallSeconds);

        tracer.clear();
        traced = tracedPass(sweep.plan, tracer);
        checkCells(traced.results, report);
        csv(traced, report,
            "sweep CSV differs between the timed and the traced run");
        tracedWalls.push_back(traced.wallSeconds);
        const pmu::EventCounts counts = sumCounts(traced.results);
        if (tracedWalls.size() == 1)
            firstCounts = counts;
        else
            report.op(counts == firstCounts,
                      "per-layer counts differ between traced passes");
    } while (secondsSince(start) < opt.seconds);

    traced.wallSeconds = median(tracedWalls);
    emitPassLayers(traced, tracer, median(plainWalls), report);
}

} // namespace

void
runSweep(const Options &opt, Report &report)
{
    SweepPlan sweep;
    setUp(opt, sweep);
    if (opt.trace)
        tracedRun(opt, sweep, report);
    else
        timedRun(opt, sweep, report);
}

} // namespace perfbench
