#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sys/resource.h>

#include "sim/machine.hpp"
#include "trace/approx.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using namespace cheri;

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
selfPeakRssMib()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            const std::string &better)
{
    metrics.push_back({name, value, unit, better});
}

void
Report::op(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (!what.empty())
            notes.push_back("FAILED: " + what);
    }
}

double
Tracer::total(const std::string &layer) const
{
    double sum = 0;
    for (const auto &r : records_)
        if (r.layer == layer)
            sum += r.seconds;
    return sum;
}

u64
Tracer::calls(const std::string &layer) const
{
    u64 n = 0;
    for (const auto &r : records_)
        n += r.layer == layer;
    return n;
}

namespace {

/**
 * Per-metric standard error across the sampled epochs, as the runner
 * attaches it to --approx cells (the CSV's *_err columns).
 */
analysis::DerivedMetrics
metricStderr(const std::vector<pmu::EventCounts> &epochs)
{
    analysis::DerivedMetrics out{};
    const std::size_t n = epochs.size();
    if (n < 2)
        return out;
    std::vector<analysis::DerivedMetrics> per;
    per.reserve(n);
    for (const auto &counts : epochs)
        per.push_back(analysis::DerivedMetrics::compute(counts));
    for (const auto &field : analysis::allMetricFields()) {
        double mean = 0;
        for (const auto &m : per)
            mean += m.*(field.member);
        mean /= static_cast<double>(n);
        double var = 0;
        for (const auto &m : per) {
            const double d = m.*(field.member) - mean;
            var += d * d;
        }
        var /= static_cast<double>(n - 1);
        out.*(field.member) = std::sqrt(var / static_cast<double>(n));
    }
    return out;
}

/**
 * The sampler's whole-run estimate replaces the raw counts of an
 * --approx cell, exactly as the registry's executor applies it.
 */
void
applyApproxEstimate(const trace::ApproxReport &rep,
                    const sim::MachineConfig &config, sim::SimResult &result)
{
    if (rep.estimated) {
        result.counts = rep.estimatedTotals;
    } else if (rep.sampledInsts > 0 && rep.sampledInsts < rep.totalInsts) {
        for (std::size_t i = 0; i < pmu::kNumEvents; ++i) {
            const auto event = static_cast<pmu::Event>(i);
            if (event == pmu::Event::InstRetired)
                continue;
            const u64 raw = result.counts.get(event);
            if (raw != 0)
                result.counts.set(event,
                                  static_cast<u64>(std::llround(
                                      static_cast<double>(raw) * rep.scale)));
        }
    }
    result.instructions = result.counts.get(pmu::Event::InstRetired);
    result.cycles = result.counts.get(pmu::Event::CpuCycles);
    result.seconds =
        static_cast<double>(result.cycles) / (config.clock_ghz * 1e9);
}

runner::RunResult
tracedCell(const runner::RunRequest &request,
           const workloads::Workload &workload, Tracer &tracer)
{
    runner::RunResult out;
    out.request = request;
    if (!workload.supports(request.abi))
        return out;

    const sim::MachineConfig config = request.resolvedConfig();
    std::optional<sim::Machine> machine;
    {
        Tracer::Span span(tracer, "sim.machine_ctor");
        machine.emplace(config);
    }
    std::optional<trace::ApproxSampler> sampler;
    if (request.approx.enabled) {
        sampler.emplace(request.approx, request.seed, machine->pipeline());
        machine->pipeline().attachHooks(&*sampler);
    }
    {
        Tracer::Span span(tracer, "workloads.run");
        workload.run(machine->core(0),
                     workloads::Scenario{request.abi, request.allocator},
                     request.scale, request.seed);
    }
    trace::ApproxReport report;
    if (sampler) {
        machine->pipeline().detachHooks(&*sampler);
        report = sampler->finish(machine->pipeline());
    }
    {
        Tracer::Span span(tracer, "sim.finalize");
        out.sim = machine->finalize();
    }
    if (sampler) {
        applyApproxEstimate(report, config, *out.sim);
        runner::ApproxOutcome approx;
        approx.stderr_ = metricStderr(report.epochCounts);
        approx.report = std::move(report);
        out.approx = std::move(approx);
    }
    {
        Tracer::Span span(tracer, "analysis.derive");
        out.metrics = analysis::DerivedMetrics::compute(out.sim->counts);
        out.topdownTruth = analysis::TopDown::fromModelTruth(out.sim->counts);
        out.topdownPaper =
            analysis::TopDown::fromPaperFormulas(out.sim->counts);
    }
    return out;
}

} // namespace

Pass
tracedPass(const runner::ExperimentPlan &plan, Tracer &tracer)
{
    const auto start = Clock::now();
    const auto pool = workloads::allWorkloads();
    Pass pass;
    pass.results.reserve(plan.size());
    for (const auto &planned : plan.cells()) {
        const runner::RunRequest cell = planned.normalized();
        const workloads::Workload *workload =
            workloads::findWorkload(pool, cell.workload);
        if (!workload) {
            runner::RunResult missing;
            missing.request = cell;
            pass.results.push_back(std::move(missing));
            continue;
        }
        pass.results.push_back(tracedCell(cell, *workload, tracer));
    }
    pass.wallSeconds = secondsSince(start);
    return pass;
}

Pass
plainPass(const runner::ExperimentPlan &plan)
{
    runner::RunnerOptions options;
    options.jobs = 1;
    options.cache = false;
    const auto start = Clock::now();
    auto outcome = runner::runPlan(plan, options);
    Pass pass;
    pass.wallSeconds = secondsSince(start);
    pass.results = std::move(outcome.results);
    return pass;
}

pmu::EventCounts
sumCounts(const std::vector<runner::RunResult> &results)
{
    pmu::EventCounts sum;
    for (const auto &r : results)
        if (r.ok())
            sum += r.sim->counts;
    return sum;
}

void
checkCells(const std::vector<runner::RunResult> &results, Report &report)
{
    const auto pool = workloads::allWorkloads();
    for (const auto &r : results) {
        const workloads::Workload *w =
            workloads::findWorkload(pool, r.request.workload);
        const bool expect_ok = w && w->supports(r.request.abi);
        report.op(r.ok() == expect_ok,
                  "unexpected NA status for " + r.request.workload + "/" +
                      abi::abiName(r.request.abi));
    }
}

void
emitPassLayers(const Pass &traced, const Tracer &tracer, double plain_wall_s,
               Report &report)
{
    const pmu::EventCounts counts = sumCounts(traced.results);
    const double insts =
        static_cast<double>(counts.get(pmu::Event::InstRetired));
    const auto perCallUs = [&](const char *layer) {
        const u64 n = tracer.calls(layer);
        return n ? tracer.total(layer) / static_cast<double>(n) * 1e6 : 0.0;
    };

    report.add("workloads.run_s", tracer.total("workloads.run"), "s");
    report.add("workloads.run.calls",
               static_cast<double>(tracer.calls("workloads.run")), "count");
    report.add("workloads.run_ns_per_inst",
               insts > 0 ? tracer.total("workloads.run") / insts * 1e9 : 0,
               "ns/inst");
    report.add("sim.machine_ctor_us", perCallUs("sim.machine_ctor"), "us");
    report.add("sim.machine_ctor.calls",
               static_cast<double>(tracer.calls("sim.machine_ctor")),
               "count");
    report.add("sim.finalize_us", perCallUs("sim.finalize"), "us");
    report.add("sim.finalize.calls",
               static_cast<double>(tracer.calls("sim.finalize")), "count");
    report.add("analysis.derive_us", perCallUs("analysis.derive"), "us");
    report.add("analysis.derive.calls",
               static_cast<double>(tracer.calls("analysis.derive")),
               "count");

    const auto count = [&](pmu::Event e) {
        return static_cast<double>(counts.get(e));
    };
    report.add("uarch.insts", count(pmu::Event::InstRetired), "count");
    report.add("uarch.cycles", count(pmu::Event::CpuCycles), "count");
    report.add("uarch.br_mispred", count(pmu::Event::BrMisPredRetired),
               "count");
    report.add("mem.l1d_accesses", count(pmu::Event::L1dCache), "count");
    report.add("mem.l1d_refills", count(pmu::Event::L1dCacheRefill),
               "count");
    report.add("mem.l2_refills", count(pmu::Event::L2dCacheRefill), "count");
    report.add("mem.llc_misses", count(pmu::Event::LlCacheMissRd), "count");
    report.add("mem.dtlb_walks", count(pmu::Event::DtlbWalk), "count");
    report.add("mem.ctag_accesses",
               count(pmu::Event::MemAccessRdCtag) +
                   count(pmu::Event::MemAccessWrCtag),
               "count");

    // Sampler accounting; exact cells run every instruction through the
    // timing model and measure no sampled epoch.
    double sampled = 0, total = 0, measured = 0;
    for (const auto &r : traced.results) {
        if (!r.ok())
            continue;
        if (r.approx) {
            sampled += static_cast<double>(r.approx->report.sampledInsts);
            total += static_cast<double>(r.approx->report.totalInsts);
            measured += static_cast<double>(r.approx->report.epochsSampled);
        } else {
            sampled += static_cast<double>(r.sim->instructions);
            total += static_cast<double>(r.sim->instructions);
        }
    }
    report.add("trace.sampled_inst_share", total > 0 ? sampled / total : 0,
               "ratio");
    report.add("trace.epochs_measured", measured, "count");

    report.add("trace_overhead", traced.wallSeconds - plain_wall_s, "s");
    report.notes.push_back("untraced pass " + std::to_string(plain_wall_s) +
                           " s, traced pass " +
                           std::to_string(traced.wallSeconds) + " s");
}

} // namespace perfbench
