/**
 * @file
 * Layer probes: each layer's public function called directly on inputs
 * generated from the run's seed, timed from here. Every probe reports
 * the median over a few repetitions of a fixed amount of work.
 */

#include <filesystem>

#include "alloc/allocator.hpp"
#include "cap/bounds.hpp"
#include "common.hpp"
#include "mem/backing_store.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "support/rng.hpp"
#include "uarch/pipeline.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using namespace cheri;

namespace {

constexpr int kReps = 5;

/** Keeps probe results observable so the work is not optimized out. */
volatile u64 gSink = 0;

/** Median over kReps of @p body's seconds per op, scaled by @p unit. */
template <class Body>
double
perOp(double ops, double unit, Body &&body)
{
    std::vector<double> samples;
    for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        body();
        samples.push_back(secondsSince(t0) / ops * unit);
    }
    return median(samples);
}

/**
 * The dynamic-op mix of sweep-exact (all registered workloads x 3 ABIs,
 * small scale, seed 42) as shares of retired instructions: the summed
 * MEM_ACCESS_RD/WR, CAP_MEM_ACCESS_RD/WR and BR_RETIRED counts, and the
 * VFP+ASE share of the *_SPEC counts. The rest are integer DP ops.
 */
struct OpMix
{
    double load = 0.215;
    double store = 0.110;
    double capShareOfMem = 0.32; //!< Loads/stores that are 16-byte caps.
    double fp = 0.072;
    double branch = 0.108;
};

std::vector<uarch::DynOp>
opBuffer(u64 seed, bool with_memory)
{
    Xoshiro256StarStar rng(seed);
    const OpMix mix;
    std::vector<uarch::DynOp> ops;
    Addr pc = 0x10'0000;
    constexpr Addr kHeap = 0x4000'0000;
    constexpr u64 kFootprint = 256 * kKiB; // fits the private L2
    for (std::size_t i = 0; i < 8192; ++i) {
        double u = rng.nextDouble();
        uarch::DynOp op;
        if (!with_memory) {
            // alu_branch: integer DP plus conditional branches only.
            op = u < 0.2 ? uarch::DynOp::condBranch(pc, rng.chance(0.7),
                                                    pc + 64)
                         : uarch::DynOp::alu(pc, rng.chance(0.1)
                                                     ? isa::Opcode::Mul
                                                     : isa::Opcode::Add);
        } else {
            const bool cap = rng.chance(mix.capShareOfMem);
            const Addr addr =
                kHeap + (rng.nextBelow(kFootprint) & ~Addr{cap ? 15u : 7u});
            if ((u -= mix.load) < 0) {
                op = uarch::DynOp::load(pc, addr, cap ? 16 : 8, cap,
                                        rng.chance(0.2));
            } else if ((u -= mix.store) < 0) {
                op = uarch::DynOp::store(pc, addr, cap ? 16 : 8, cap);
            } else if ((u -= mix.fp) < 0) {
                op = uarch::DynOp::alu(pc, isa::Opcode::FMadd);
            } else if ((u -= mix.branch) < 0) {
                op = uarch::DynOp::condBranch(pc, rng.chance(0.7), pc + 64);
            } else {
                op = uarch::DynOp::alu(pc, isa::Opcode::Add);
            }
        }
        ops.push_back(op);
        pc += 4;
        if (pc >= 0x10'0000 + 16 * kKiB)
            pc = 0x10'0000;
    }
    return ops;
}

void
uarchProbes(const Options &opt, Report &report)
{
    const sim::MachineConfig config =
        sim::MachineConfig::forAbi(abi::Abi::Purecap);
    for (const bool memory : {false, true}) {
        const auto ops = opBuffer(opt.seed ^ (memory ? 0x55 : 0xAA), memory);
        constexpr int kLoops = 32;
        pmu::EventCounts counts;
        mem::MemorySystem hierarchy(config.mem, counts);
        uarch::PipelineModel pipe(config.pipe, hierarchy, counts);
        const double ns = perOp(
            static_cast<double>(ops.size() * kLoops), 1e9, [&] {
                for (int l = 0; l < kLoops; ++l)
                    for (std::size_t i = 0; i < ops.size(); i += 128)
                        pipe.issueBlock(ops.data() + i,
                                        std::min<std::size_t>(
                                            128, ops.size() - i));
            });
        gSink = gSink + pipe.cycles();
        report.add(memory ? "uarch.issue_ns.mixed"
                          : "uarch.issue_ns.alu_branch",
                   ns, "ns");
    }
}

void
memProbes(const Options &opt, Report &report)
{
    const sim::MachineConfig config =
        sim::MachineConfig::forAbi(abi::Abi::Purecap);
    struct Stream
    {
        const char *name;
        u64 footprint;
    };
    // Footprints against the modelled 64 KiB L1D, 1 MiB L2, 1 MiB LLC.
    const Stream streams[] = {{"mem.data_ns.l1", 32 * kKiB},
                              {"mem.data_ns.l2", 512 * kKiB},
                              {"mem.data_ns.dram", 64 * kMiB}};
    Xoshiro256StarStar rng(opt.seed ^ 0x3e3);
    for (const Stream &s : streams) {
        std::vector<Addr> addrs(1 << 16);
        for (auto &a : addrs)
            a = 0x4000'0000 + (rng.nextBelow(s.footprint) & ~Addr{7});
        pmu::EventCounts counts;
        mem::PrivateHierarchy hierarchy(config.mem, counts);
        for (Addr a : addrs) // warm: caches and TLBs hold the footprint
            gSink = gSink + hierarchy.data(a, 8, false, false).latency;
        report.add(s.name,
                   perOp(static_cast<double>(addrs.size()), 1e9, [&] {
                       u64 sum = 0;
                       for (std::size_t i = 0; i < addrs.size(); ++i)
                           sum += hierarchy
                                      .data(addrs[i], 8, (i & 7) == 0,
                                            (i & 3) == 0)
                                      .latency;
                       gSink = gSink + sum;
                   }),
                   "ns");
    }

    // Instruction fetch: straight-line runs with seeded jumps over a
    // 32 KiB text footprint.
    std::vector<Addr> pcs(1 << 16);
    Addr pc = 0x10'0000;
    for (auto &p : pcs) {
        p = pc;
        pc = rng.chance(0.1) ? 0x10'0000 + (rng.nextBelow(32 * kKiB) & ~15ull)
                             : pc + 16;
        if (pc >= 0x10'0000 + 32 * kKiB)
            pc = 0x10'0000;
    }
    pmu::EventCounts counts;
    mem::PrivateHierarchy hierarchy(config.mem, counts);
    report.add("mem.fetch_ns",
               perOp(static_cast<double>(pcs.size()), 1e9, [&] {
                   u64 sum = 0;
                   for (Addr p : pcs)
                       sum += hierarchy.fetch(p).latency;
                   gSink = gSink + sum;
               }),
               "ns");
}

void
allocProbes(const Options &opt, Report &report)
{
    struct Config
    {
        const char *metric;
        const char *allocator;
    };
    const Config configs[] = {
        {"alloc.pair_ns.freelist", "freelist"},
        {"alloc.pair_ns.bump", "bump"},
        {"alloc.pair_ns.sizeclass", "sizeclass"},
        {"alloc.pair_ns.sizeclass_revoke", "sizeclass+revoke"},
    };
    // Sizes spread over [16 B, 8 KiB) (a seeded power of two plus up to
    // as much again), freed in seeded order from a window of live
    // blocks so free lists and quarantine see reuse.
    constexpr std::size_t kPairs = 20'000, kLive = 256;
    Xoshiro256StarStar rng(opt.seed ^ 0xa110c);
    std::vector<u64> sizes(kPairs), victims(kPairs);
    for (std::size_t i = 0; i < kPairs; ++i) {
        sizes[i] = u64{16} << rng.nextBelow(9);
        sizes[i] += rng.nextBelow(sizes[i]);
        victims[i] = rng.nextBelow(kLive);
    }
    for (const Config &c : configs) {
        const auto config = alloc::parseAllocator(c.allocator);
        std::vector<double> samples;
        for (int r = 0; r < kReps; ++r) {
            mem::BackingStore store;
            auto allocator =
                alloc::makeAllocator(*config, abi::Abi::Purecap, &store);
            std::vector<Addr> live(kLive, 0);
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < kPairs; ++i) {
                Addr &slot = live[victims[i]];
                if (slot)
                    allocator->free(slot);
                slot = allocator->allocate(sizes[i]);
            }
            samples.push_back(secondsSince(t0) / kPairs * 1e9);
            gSink = gSink + allocator->stats().reservedBytes;
        }
        report.add(c.metric, median(samples), "ns");
    }

    std::vector<u64> lengths(1 << 16);
    for (auto &len : lengths)
        len = rng.nextBelow(u64{1} << (4 + rng.nextBelow(36)));
    report.add("cap.representable_length_ns",
               perOp(static_cast<double>(lengths.size()), 1e9, [&] {
                   u64 sum = 0;
                   for (u64 len : lengths)
                       sum += cap::representableLength(len);
                   gSink = gSink + sum;
               }),
               "ns");
}

/** Seeded job specs of the shapes the daemon accepts. */
std::vector<serve::JobSpec>
specs(u64 seed, std::size_t n)
{
    const auto pool = workloads::allWorkloads();
    static const char *const kAbis[] = {"all", "hybrid", "purecap",
                                        "benchmark"};
    static const char *const kAllocs[] = {"", "", "bump",
                                          "sizeclass,freelist+revoke"};
    static const char *const kKnobs[] = {"", "", "mem.l1d_kib=32",
                                         "pipe.width=2,pipe.sq.entries=24"};
    Xoshiro256StarStar rng(seed);
    std::vector<serve::JobSpec> out(n);
    for (auto &spec : out) {
        spec.workload = pool[rng.nextBelow(pool.size())]->info().name;
        spec.abi = kAbis[rng.nextBelow(4)];
        spec.scale = rng.chance(0.5) ? "tiny" : "small";
        spec.seed = rng.nextBelow(1'000'000);
        spec.priority = static_cast<s64>(rng.nextBelow(5));
        spec.allocators = kAllocs[rng.nextBelow(4)];
        spec.knobs = kKnobs[rng.nextBelow(4)];
    }
    return out;
}

void
runnerAndServeProbes(const Options &opt, Report &report)
{
    const auto jobSpecs = specs(opt.seed ^ 0x5e7e, 512);
    std::vector<runner::RunRequest> requests;
    for (const auto &spec : jobSpecs) {
        std::string error;
        auto cells = serve::expandJobSpec(spec, &error);
        report.op(!cells.empty(), "probe job spec rejected: " + error);
        requests.insert(requests.end(), cells.begin(), cells.end());
    }
    report.add("runner.fingerprint_us",
               perOp(static_cast<double>(requests.size()), 1e6, [&] {
                   u64 sum = 0;
                   for (const auto &r : requests)
                       sum += runner::cellFingerprint(r);
                   gSink = gSink + sum;
               }),
               "us");

    // The .cpr cache: store one real tiny-cell result under many keys,
    // then load every one back and compare.
    runner::RunRequest cell;
    cell.workload = "519.lbm_r";
    cell.scale = workloads::Scale::Tiny;
    cell.seed = opt.seed;
    const runner::RunResult real = runner::run(cell);
    report.op(real.ok(), "probe cell did not simulate");
    std::vector<runner::RunRequest> keyed;
    std::vector<u64> keys;
    for (u64 i = 0; i < 256; ++i) {
        runner::RunRequest r = cell;
        r.seed = opt.seed + i + 1;
        keyed.push_back(r);
        keys.push_back(runner::cellFingerprint(r));
    }
    const std::string dir = opt.workdir + "/probe-cache";
    std::vector<double> stores, loads;
    bool same = real.ok();
    for (int rep = 0; rep < kReps && real.ok(); ++rep) {
        std::filesystem::remove_all(dir);
        const runner::ResultCache cache(dir);
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < keyed.size(); ++i)
            cache.store(keyed[i], keys[i], *real.sim);
        stores.push_back(secondsSince(t0) / keyed.size() * 1e6);
        t0 = Clock::now();
        for (std::size_t i = 0; i < keyed.size(); ++i) {
            const auto back = cache.load(keyed[i], keys[i]);
            same = same && back && back->counts == real.sim->counts &&
                   back->instructions == real.sim->instructions;
        }
        loads.push_back(secondsSince(t0) / keyed.size() * 1e6);
    }
    std::filesystem::remove_all(dir);
    report.op(same, "result cache returned a different record");
    report.add("runner.cache_load_us", median(loads), "us");
    report.add("runner.cache_store_us", median(stores), "us");

    std::vector<std::string> lines;
    for (const auto &spec : jobSpecs)
        lines.push_back(serve::jobSpecJsonl(spec));
    bool roundTrip = true;
    report.add("serve.parse_us",
               perOp(static_cast<double>(lines.size()), 1e6, [&] {
                   for (const auto &line : lines) {
                       serve::JobSpec back;
                       std::string error;
                       roundTrip = roundTrip &&
                                   serve::parseJobSpec(line, &back, &error) &&
                                   serve::jobSpecJsonl(back) == line;
                   }
               }),
               "us");
    report.op(roundTrip, "job spec does not survive render+parse");
    report.add("serve.expand_us",
               perOp(static_cast<double>(jobSpecs.size()), 1e6, [&] {
                   u64 sum = 0;
                   for (const auto &spec : jobSpecs) {
                       std::string error;
                       sum += serve::expandJobSpec(spec, &error).size();
                   }
                   gSink = gSink + sum;
               }),
               "us");

    // Rendering: a 63-row sweep-shaped result vector (the tiny cell
    // repeated across every workload name and ABI).
    std::vector<runner::RunResult> rows;
    for (const auto &w : workloads::allWorkloads())
        for (abi::Abi a : abi::kAllAbis) {
            runner::RunResult r = real;
            r.request.workload = w->info().name;
            r.request.abi = a;
            rows.push_back(r);
        }
    report.add("serve.render_us", perOp(64, 1e6, [&] {
                   u64 sum = 0;
                   for (int i = 0; i < 64; ++i)
                       sum += serve::sweepCsv(rows, false, i & 1).size();
                   gSink = gSink + sum;
               }),
               "us");
}

} // namespace

void
runProbes(const Options &opt, Report &report)
{
    uarchProbes(opt, report);
    memProbes(opt, report);
    allocProbes(opt, report);
    runnerAndServeProbes(opt, report);
}

} // namespace perfbench
