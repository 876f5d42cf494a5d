/**
 * @file
 * Shared pieces of the benchmark harness: run options, the metric
 * report every workload fills, in-memory spans, and small statistics
 * helpers.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "support/types.hpp"

namespace perfbench {

using cheri::u32;
using cheri::u64;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    u64 seed = 42;
    double seconds = 10;
    bool trace = false;
    /** Cell scale of the sweeps; tiny only for the self-test. */
    cheri::workloads::Scale scale = cheri::workloads::Scale::Small;
    std::string daemon;  //!< Path of the `cheriperf` binary.
    std::string workdir; //!< Private scratch directory of this run.
};

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * Quantile @p q in [0, 1] by linear interpolation between closest
 * ranks (0 for an empty vector).
 */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process, MiB. */
double selfPeakRssMib();

/**
 * Everything one run reports: metrics in emission order plus the
 * operation accounting. Every cell, job and output check the harness
 * makes goes through op(), so a mismatch always counts as a failed
 * operation.
 */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0;
        std::string unit;
        std::string better; //!< "higher", "lower" or "" (per-layer).
    };

    std::vector<Metric> metrics;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> notes; //!< Extra human-readable lines.

    void add(const std::string &name, double value,
             const std::string &unit, const std::string &better = {});

    /**
     * One operation (a cell, a job, an output check) that did or did
     * not succeed; @p what names the failure.
     */
    void op(bool ok, const std::string &what = {});
};

/**
 * In-memory spans recorded around the calls the harness makes into
 * each layer, aggregated per layer when the run ends.
 */
class Tracer
{
  public:
    class Span
    {
      public:
        Span(Tracer &tracer, const char *layer)
            : tracer_(tracer), layer_(layer), start_(Clock::now())
        {
        }
        ~Span()
        {
            tracer_.records_.push_back({layer_, secondsSince(start_)});
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
        const char *layer_;
        Clock::time_point start_;
    };

    /** Total seconds and call count of @p layer. */
    double total(const std::string &layer) const;
    u64 calls(const std::string &layer) const;

    void clear() { records_.clear(); }

  private:
    struct Record
    {
        std::string layer;
        double seconds = 0;
    };
    std::vector<Record> records_;
};

/** Cells of one in-process pass with their provenance. */
struct Pass
{
    std::vector<cheri::runner::RunResult> results;
    double wallSeconds = 0;
};

/**
 * Run @p plan's cells one at a time on this thread through the same
 * public calls runner::runPlan makes (Machine construction, the
 * workload generator, finalize, the derived views), with a span around
 * each. The results render to the same CSV bytes as runPlan's.
 */
Pass tracedPass(const cheri::runner::ExperimentPlan &plan, Tracer &tracer);

/** The untraced pass: runner::runPlan on one thread, cache off. */
Pass plainPass(const cheri::runner::ExperimentPlan &plan);

/** Summed PMU counts of every ok cell in @p results. */
cheri::pmu::EventCounts sumCounts(
    const std::vector<cheri::runner::RunResult> &results);

/**
 * Check each cell's NA status against the registry (only a workload
 * that does not support its ABI may come back empty) and count every
 * cell as one operation in @p report.
 */
void checkCells(const std::vector<cheri::runner::RunResult> &results,
                Report &report);

/**
 * Emit the span, count and sampler metrics of one traced pass, plus
 * trace_overhead against @p plain_wall_s (the untraced pass over the
 * same cells).
 */
void emitPassLayers(const Pass &traced, const Tracer &tracer,
                    double plain_wall_s, Report &report);

/** One run of the sweep workload options.workload. */
void runSweep(const Options &options, Report &report);

/**
 * The serve layer's numbers: a seeded job mix sent over HTTP to a
 * `cheriperf serve` daemon started for the probe.
 */
void serveLayerProbe(const Options &options, Report &report);

/** The seeded layer probes (uarch, mem, alloc, cap, runner, serve). */
void runProbes(const Options &options, Report &report);

/**
 * The model-fidelity scorer: paper_rank_rho, paper_slowdown_err and
 * approx_cpi_err over the workloads with Table 3/4 times.
 */
void scoreFidelity(const Options &options, Report &report);

/** The approx knobs sweep-approx and the fidelity scorer use. */
cheri::trace::ApproxConfig sweepApprox();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
