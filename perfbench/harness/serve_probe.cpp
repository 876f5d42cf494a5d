/**
 * @file
 * The serve-layer probe of every traced run: a seeded job mix sent
 * open loop over HTTP to a `cheriperf serve` daemon the harness starts
 * on loopback, with a fresh result cache that holds a few prewarmed
 * jobs.
 *
 * Job k is due at (k + u_k) / rate for a seeded u_k in [0, 1). Jobs mix
 * four kinds in fixed proportions, dealt from a seeded shuffle of a
 * fixed deck: fresh cells, exact duplicates of a recent job (in-flight
 * or memo dedup), jobs whose cells were written to the disk cache
 * before the daemon started, and fresh jobs carrying knobs or
 * allocators; fresh jobs cycle through a seeded order of every
 * registered workload. Each job is submitted with POST /v1/jobs?wait=0
 * and collected with GET /v1/jobs/<id>/result, and every served CSV is
 * checked against runner::runPlan over the same cells.
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <spawn.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "runner/cache.hpp"
#include "serve/http.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "support/rng.hpp"
#include "workloads/registry.hpp"

extern char **environ;

namespace perfbench {

using namespace cheri;

namespace {

/** Daemon workers: nproc - 1 of the 4-core host, leaving the client one. */
constexpr u32 kWorkers = 3;
/** Client threads: each holds at most one job in flight. */
constexpr u32 kClients = 4;
/** Offered rate (jobs/s) and length (s) of the probe. */
constexpr double kRate = 20;
constexpr double kSeconds = 3;

/** A `cheriperf serve` child process on an ephemeral loopback port. */
class Daemon
{
  public:
    /** Spawn and wait for the port file; throws when it never shows. */
    Daemon(const Options &opt, const std::string &dir)
    {
        std::filesystem::create_directories(dir);
        const std::string portFile = dir + "/port";
        std::filesystem::remove(portFile);
        const std::string log = dir + "/daemon.log";
        const std::string workers = std::to_string(kWorkers);
        const std::string cacheDir = dir + "/cache";
        std::vector<std::string> args = {
            opt.daemon, "serve",    "--port",      "0",
            "--port-file", portFile, "--workers",  workers,
            "--cache-dir", cacheDir};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const auto start = Clock::now();
        const int rc = posix_spawn(&pid_, opt.daemon.c_str(), &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw std::runtime_error("cannot spawn " + opt.daemon + ": " +
                                     std::strerror(rc));
        for (;;) {
            std::ifstream in(portFile);
            unsigned port = 0;
            if (in >> port && port > 0) {
                port_ = static_cast<u16>(port);
                break;
            }
            const bool exited = waitpid(pid_, nullptr, WNOHANG) == pid_;
            if (exited || secondsSince(start) > 20) {
                if (exited)
                    pid_ = -1;
                stop(); // the destructor does not run for a failed ctor
                throw std::runtime_error("daemon did not come up; see " +
                                         log);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** SIGTERM, then wait for the drain; SIGKILL after 60 s. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        int status = 0;
        const auto start = Clock::now();
        for (;;) {
            const pid_t r = waitpid(pid_, &status, WNOHANG);
            if (r == pid_ || (r < 0 && errno != EINTR))
                break;
            if (secondsSince(start) > 60)
                kill(pid_, SIGKILL);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        exitedCleanly_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    u16 port() const { return port_; }
    bool exitedCleanly() const { return exitedCleanly_; }

  private:
    pid_t pid_ = -1;
    u16 port_ = 0;
    bool exitedCleanly_ = false;
};

enum class Kind { Fresh, Duplicate, Prewarmed, Knobs };

struct Job
{
    serve::JobSpec spec;
    double due = 0; //!< Seconds after the schedule start.

    // Filled by the client.
    double sent = 0, acked = 0, done = 0;
    bool ok = false;
    std::string csv;
    std::string error;
};

struct Schedule
{
    std::vector<Job> jobs;
    std::vector<serve::JobSpec> prewarm; //!< Specs cached before start.
};

Schedule
makeSchedule(u64 seed)
{
    const auto pool = workloads::allWorkloads();
    Xoshiro256StarStar rng(seed ^ 0x5e7eULL);
    std::vector<std::string> order;
    for (const auto &w : pool)
        order.push_back(w->info().name);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);

    static const char *const kAbis[] = {"purecap", "hybrid", "all"};
    u64 freshCount = 0;
    const auto fresh = [&] {
        serve::JobSpec spec;
        spec.workload = order[freshCount % order.size()];
        spec.abi = kAbis[(freshCount / order.size()) % 3];
        spec.scale = "tiny";
        spec.seed = seed * 1'000'003ULL + ++freshCount;
        return spec;
    };
    static const char *const kKnobs[] = {
        "mem.l1d_kib=32", "mem.l1d_kib=128,pipe.sq.entries=24",
        "pipe.width=2", "mem.dram_latency=250"};
    static const char *const kAllocators[] = {"bump",
                                              "sizeclass,freelist+revoke"};

    Schedule out;
    for (int i = 0; i < 8; ++i)
        out.prewarm.push_back(fresh());
    const auto n = static_cast<std::size_t>(kRate * kSeconds);
    std::vector<Kind> deck(n, Kind::Fresh);
    std::size_t at = 0;
    for (auto [kind, share] : {std::pair{Kind::Duplicate, 0.12},
                               std::pair{Kind::Prewarmed, 0.13},
                               std::pair{Kind::Knobs, 0.20}})
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(share * n + 0.5) && at < n; ++k)
            deck[at++] = kind;
    for (std::size_t i = n; i > 1; --i)
        std::swap(deck[i - 1], deck[rng.nextBelow(i)]);

    u64 knobbed = 0, prewarmed = rng.nextBelow(out.prewarm.size());
    for (std::size_t k = 0; k < n; ++k) {
        Job job;
        job.due = (static_cast<double>(k) + rng.nextDouble()) / kRate;
        switch (k < 8 && deck[k] == Kind::Duplicate ? Kind::Fresh
                                                     : deck[k]) {
        case Kind::Duplicate:
            job.spec = out.jobs[k - 1 - rng.nextBelow(8)].spec;
            break;
        case Kind::Prewarmed:
            job.spec = out.prewarm[prewarmed++ % out.prewarm.size()];
            break;
        case Kind::Knobs:
            job.spec = fresh();
            if (knobbed % 2 == 0)
                job.spec.knobs = kKnobs[(knobbed / 2) % 4];
            else
                job.spec.allocators = kAllocators[(knobbed / 2) % 2];
            ++knobbed;
            break;
        case Kind::Fresh:
            job.spec = fresh();
            break;
        }
        out.jobs.push_back(std::move(job));
    }
    return out;
}

/** The value of "key": in a flat JSON object (0 when absent). */
double
jsonField(const std::string &json, const std::string &key)
{
    const auto at = json.find("\"" + key + "\":");
    return at == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

/** One job: submit, then block on its result. */
void
sendJob(u16 port, Job &job, Clock::time_point origin)
{
    const auto since = [&] { return secondsSince(origin); };
    job.sent = since();
    std::string error;
    const auto ack = serve::httpRequest(port, "POST", "/v1/jobs?wait=0",
                                        serve::jobSpecJsonl(job.spec) + "\n",
                                        &error);
    job.acked = since();
    if (!ack || ack->status != 202) {
        job.error = ack ? "submit answered " + std::to_string(ack->status)
                        : "submit failed: " + error;
        job.done = since();
        return;
    }
    const auto idAt = ack->body.find("\"job\":\"");
    const auto idEnd = ack->body.find('"', idAt + 7);
    if (idAt == std::string::npos || idEnd == std::string::npos) {
        job.error = "no job id in " + ack->body;
        job.done = since();
        return;
    }
    const std::string id = ack->body.substr(idAt + 7, idEnd - idAt - 7);
    const auto result =
        serve::httpRequest(port, "GET", "/v1/jobs/" + id + "/result", "",
                           &error);
    job.done = since();
    if (!result || result->status != 200) {
        job.error = result ? "result answered " +
                                 std::to_string(result->status)
                           : "result failed: " + error;
        return;
    }
    job.csv = result->body;
    job.ok = true;
}

/**
 * Every served job's CSV against runner::runPlan (one thread, cache
 * off) over each distinct served cell, rendered by serve::sweepCsv.
 */
void
checkServed(const std::vector<Job> &jobs, Report &report)
{
    runner::ExperimentPlan plan;
    std::map<u64, std::size_t> index; // fingerprint -> plan slot
    std::map<std::string, std::vector<runner::RunRequest>> cellsOf;
    for (const auto &job : jobs) {
        const std::string line = serve::jobSpecJsonl(job.spec);
        if (cellsOf.count(line))
            continue;
        std::string error;
        auto cells = serve::expandJobSpec(job.spec, &error);
        for (const auto &cell : cells)
            if (index.emplace(runner::cellFingerprint(cell), plan.size())
                    .second)
                plan.add(cell);
        cellsOf[line] = std::move(cells);
    }
    const Pass pass = plainPass(plan);
    checkCells(pass.results, report);
    for (const auto &job : jobs) {
        if (!job.ok)
            continue;
        std::vector<runner::RunResult> rows;
        for (const auto &cell : cellsOf[serve::jobSpecJsonl(job.spec)]) {
            runner::RunResult row =
                pass.results[index[runner::cellFingerprint(cell)]];
            row.request = cell;
            rows.push_back(std::move(row));
        }
        report.op(serve::sweepCsv(rows, job.spec.approxColumns(),
                                  job.spec.allocColumns()) == job.csv,
                  "served CSV differs from runPlan for " +
                      serve::jobSpecJsonl(job.spec));
    }
}

} // namespace

void
serveLayerProbe(const Options &opt, Report &report)
{
    Schedule schedule = makeSchedule(opt.seed);
    const std::string dir = opt.workdir + "/serve";
    std::filesystem::remove_all(dir);
    runner::ExperimentPlan prewarm;
    for (const auto &spec : schedule.prewarm) {
        std::string error;
        for (auto &cell : serve::expandJobSpec(spec, &error))
            prewarm.add(cell);
        report.op(error.empty(), "prewarm spec rejected: " + error);
    }
    runner::RunnerOptions cached;
    cached.jobs = kWorkers;
    cached.cache_dir = dir + "/cache";
    runner::runPlan(prewarm, cached);

    std::string stats;
    {
        Daemon daemon(opt, dir);
        std::atomic<std::size_t> next{0};
        auto &jobs = schedule.jobs;
        const auto origin = Clock::now() + std::chrono::milliseconds(20);
        std::vector<std::thread> clients;
        for (u32 c = 0; c < kClients; ++c)
            clients.emplace_back([&] {
                for (std::size_t i = next.fetch_add(1); i < jobs.size();
                     i = next.fetch_add(1)) {
                    std::this_thread::sleep_until(
                        origin +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(jobs[i].due)));
                    sendJob(daemon.port(), jobs[i], origin);
                }
            });
        for (auto &t : clients)
            t.join();

        std::string error;
        const auto reply = serve::httpRequest(daemon.port(), "GET",
                                              "/v1/stats", "", &error);
        report.op(reply && reply->status == 200, "GET /v1/stats failed");
        if (reply)
            stats = reply->body;
        daemon.stop();
        report.op(daemon.exitedCleanly(), "daemon did not drain cleanly");
    }
    std::filesystem::remove_all(dir);
    for (const auto &job : schedule.jobs)
        report.op(job.ok, "job " + serve::jobSpecJsonl(job.spec) + ": " +
                              job.error);
    checkServed(schedule.jobs, report);

    const double cells = jsonField(stats, "cells");
    std::vector<double> submit, wait, late;
    for (const auto &job : schedule.jobs) {
        submit.push_back(job.acked - job.sent);
        wait.push_back(job.done - job.acked);
        late.push_back(job.sent - job.due);
    }
    report.add("serve.submit_rtt_s", median(submit), "s");
    report.add("serve.submit.calls", static_cast<double>(submit.size()),
               "count");
    report.add("serve.result_wait_s", median(wait), "s");
    report.add("serve.result_wait.calls", static_cast<double>(wait.size()),
               "count");
    report.add("serve.queue_wait_p50_s", jsonField(stats, "queue_p50_s"),
               "s");
    report.add("serve.queue_wait_p99_s", jsonField(stats, "queue_p99_s"),
               "s");
    report.add("serve.dedup_ratio",
               cells > 0 ? jsonField(stats, "simulated") / cells : 0,
               "ratio");
    report.add("serve.rejected",
               jsonField(stats, "rejected_full") +
                   jsonField(stats, "rejected_draining"),
               "count");
    report.add("serve.gen_late_p99_s", quantile(late, 0.99), "s");
    report.add("runner.cache_hit_ratio",
               cells > 0 ? jsonField(stats, "cache_hits") / cells : 0,
               "ratio");
}

} // namespace perfbench
