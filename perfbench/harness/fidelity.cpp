/**
 * @file
 * Model fidelity against the paper: the Table 3 workloads (the SPEC
 * speed variants share their rate twins' times, so they would only
 * count twice) whose hybrid and purecap times WorkloadInfo records, each run
 * exact and sampled under both ABIs at the run's scale and seed. The
 * scorer is the same in every workload's run (it depends only on the
 * model and the seed), so every workload reports it.
 */

#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using namespace cheri;

namespace {

/** 1-based ranks, ties sharing their average rank. */
std::vector<double>
ranks(const std::vector<double> &v)
{
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> out(v.size());
    for (std::size_t i = 0; i < order.size();) {
        std::size_t j = i;
        while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]])
            ++j;
        const double rank = (static_cast<double>(i + j) / 2.0) + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            out[order[k]] = rank;
        i = j + 1;
    }
    return out;
}

/** Spearman's rho: Pearson correlation of the ranks. */
double
spearman(const std::vector<double> &x, const std::vector<double> &y)
{
    const auto rx = ranks(x), ry = ranks(y);
    const double n = static_cast<double>(x.size());
    double mx = 0, my = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        mx += rx[i];
        my += ry[i];
    }
    mx /= n;
    my /= n;
    double sxy = 0, sxx = 0, syy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sxy += (rx[i] - mx) * (ry[i] - my);
        sxx += (rx[i] - mx) * (rx[i] - mx);
        syy += (ry[i] - my) * (ry[i] - my);
    }
    return sxx > 0 && syy > 0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

} // namespace

void
scoreFidelity(const Options &opt, Report &report)
{
    runner::ExperimentPlan exact, approx;
    std::vector<double> paper;
    const auto pool = workloads::allWorkloads();
    for (const auto &name : workloads::table3Names()) {
        const workloads::Workload *w = workloads::findWorkload(pool, name);
        if (!w)
            continue;
        const auto &info = w->info();
        if (info.paperTimeHybrid <= 0 || info.paperTimePurecap <= 0)
            continue;
        paper.push_back(info.paperTimePurecap / info.paperTimeHybrid);
        for (abi::Abi a : {abi::Abi::Hybrid, abi::Abi::Purecap}) {
            runner::RunRequest request;
            request.workload = info.name;
            request.abi = a;
            request.scale = opt.scale;
            request.seed = opt.seed;
            exact.add(request);
            request.approx = sweepApprox();
            approx.add(request);
        }
    }
    const Pass e = plainPass(exact);
    const Pass a = plainPass(approx);
    checkCells(e.results, report);
    checkCells(a.results, report);

    std::vector<double> model, logErr;
    double cpiErr = 0;
    for (std::size_t i = 0; i < paper.size(); ++i) {
        const auto &hybrid = e.results[2 * i];
        const auto &purecap = e.results[2 * i + 1];
        if (!hybrid.ok() || !purecap.ok())
            continue;
        const double slowdown = purecap.sim->seconds / hybrid.sim->seconds;
        model.push_back(slowdown);
        logErr.push_back(std::fabs(std::log(slowdown / paper[i])));
    }
    std::size_t cells = 0;
    for (std::size_t i = 0; i < e.results.size(); ++i) {
        if (!e.results[i].ok() || !a.results[i].ok())
            continue;
        cpiErr += std::fabs(a.results[i].metrics.cpi /
                                e.results[i].metrics.cpi -
                            1.0);
        ++cells;
    }
    report.op(model.size() == paper.size() && cells > 0,
              "fidelity cells missing");
    report.add("paper_rank_rho", model.size() == paper.size()
                                     ? spearman(model, paper)
                                     : 0.0,
               "rho", "higher");
    report.add("paper_slowdown_err", median(logErr), "log", "lower");
    report.add("approx_cpi_err", cells ? cpiErr / static_cast<double>(cells)
                                       : 0.0,
               "ratio", "lower");
    report.notes.push_back("fidelity over " + std::to_string(paper.size()) +
                           " workloads with paper times, " +
                           std::to_string(cells) + " exact/approx cell pairs");
}

} // namespace perfbench
