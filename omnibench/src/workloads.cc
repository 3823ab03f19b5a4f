/**
 * @file
 * The four omnibench workloads: set-up, measured loop and correctness
 * gate of cold_dataflow / cold_nb (cold OmniSim::run checked against
 * cosim), dse_anneal (dse::explore sessions, sampled evaluations
 * re-checked against fresh runs and resimulateReference) and serve_mix
 * (closed-loop SimService::submit traffic, sampled responses re-checked
 * the same way).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "cosim/cosim.hh"
#include "design/frontend.hh"
#include "designs/common.hh"
#include "dse/dse.hh"
#include "io/run_io.hh"
#include "io/run_store.hh"
#include "serve/json.hh"
#include "serve/service.hh"
#include "support/stopwatch.hh"

namespace omnibench
{

using namespace omnisim;
namespace fs = std::filesystem;

namespace
{

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Sampled dse evaluations re-checked per design and run. */
constexpr std::size_t kDseChecksPerDesign = 2;

/** Budget of the untimed dse_anneal warm-up session per design. */
constexpr std::size_t kDseWarmupBudget = 64;

/**
 * dse_anneal sessions per design and round, in workloadDesigns order.
 * A flowgnn_lite session (delta worklist) takes about 60 ms against
 * about 1 s for inr_arch_lite and 2-5 s for multicore; eight of them a
 * round time its rate over about half a second, so a host hiccup of a
 * few milliseconds does not swing it.
 */
const std::vector<std::size_t> kDseRepeats = {1, 8, 1};

/** A measured loop stops early once it has run this many times
 *  --seconds (a host stall must not push a run past its time limit). */
constexpr double kLoopCapFactor = 2.0;

/**
 * Whole rounds a run measures (serve_mix: request blocks), in
 * proportion to --seconds. On a 4-core host at the commit that defined
 * the benchmark, a cold_dataflow round and a serve_mix block take about
 * 0.7 s, a cold_nb round 0.4 s and a dse_anneal round (kDseRepeats
 * sessions) 7 s, so a run lasts about --seconds.
 *
 * Fixed work, rather than a time limit, keeps the sample count — and
 * with it the percentile lat_ms.tail stands for and fail_frac's basis —
 * the same on every run and on both sides of a comparison; a host stall
 * slows a run down instead of changing what it measured.
 */
std::uint64_t
measuredRounds(const Config &cfg)
{
    double roundsPerSecond = 1.0 / 0.7; // cold_dataflow, serve_mix
    if (cfg.workload == "cold_nb")
        roundsPerSecond = 1.0 / 0.4;
    else if (cfg.workload == "dse_anneal")
        roundsPerSecond = 1.0 / 7.0;
    return static_cast<std::uint64_t>(
        std::max(1.0, std::round(cfg.seconds * roundsPerSecond)));
}

/** @return true once a loop started at @p sw should stop early. */
bool
pastCap(const Config &cfg, const Stopwatch &sw)
{
    return sw.seconds() > kLoopCapFactor * cfg.seconds;
}

/** Sampled serve responses re-checked per run. */
constexpr std::size_t kServeChecks = 8;

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/** End-to-end figures of one measured loop. */
struct Loop
{
    double opsPerS = 0.0;
    std::vector<double> latMs;
    /** The same latencies split by design (cold and dse workloads).
     *  lat_ms.p50 and lat_ms.tail are then geomeans over designs of
     *  each design's median and tail. A pooled median lands on
     *  whichever design sits in the middle, and snaps between that
     *  design's fast and slow modes as the host's load shifts; a pooled
     *  tail is the slowest design's, or any op a host stall pushed past
     *  it. */
    std::vector<std::vector<double>> latMsByDesign;
};

void
addEndToEnd(const Loop &loop, const std::vector<double> &setupS,
            double rssMb, Report &out)
{
    double p50 = median(loop.latMs);
    std::vector<Tail> tails;
    double tail = 0.0;
    if (loop.latMsByDesign.empty()) {
        tails.push_back(tailOf(loop.latMs));
        tail = tails.back().value;
    } else {
        std::vector<double> p50s, tailValues;
        for (const std::vector<double> &ms : loop.latMsByDesign) {
            p50s.push_back(median(ms));
            tails.push_back(tailOf(ms));
            tailValues.push_back(tails.back().value);
        }
        p50 = geomean(p50s);
        tail = geomean(tailValues);
    }
    out.add("setup_s", median(setupS), "s");
    out.add("ops_per_s", loop.opsPerS, "1/s");
    out.add("lat_ms.p50", p50, "ms");
    out.add("lat_ms.tail", tail, "ms");
    out.add("fail_frac", failureUpperBound(out.failed, out.attempted),
            "fraction");
    out.add("peak_rss_mb", rssMb, "MB");
    std::string tailProv;
    for (const Tail &t : tails)
        tailProv += strfmt("%s{\"percentile\":%.4f,\"samples\":%zu,"
                           "\"beyond\":%zu}",
                           tailProv.empty() ? "" : ",", t.percentile,
                           t.samples, t.beyond);
    out.provenance.push_back(
        "\"lat_ms_tail\":" +
        (tails.size() == 1 ? tailProv : "[" + tailProv + "]"));
    out.provenance.push_back(strfmt("\"latency_samples\":%zu",
                                    loop.latMs.size()));
}

// ---------------------------------------------------------------------------
// Cold workloads.
// ---------------------------------------------------------------------------

/** What a cold run answered, reduced to the compared fields. */
struct ColdAnswer
{
    std::size_t design = 0;
    SimStatus status = SimStatus::Ok;
    Cycles cycles = 0;
    std::uint64_t memHash = 0;
    std::string error;
};

ColdAnswer
coldOnce(std::size_t idx, const designs::DesignEntry &de, Tracer &tr,
         std::uint64_t session)
{
    Tracer::Scope op(tr, "core.cold_op", session);
    ColdAnswer a;
    a.design = idx;
    try {
        std::optional<Design> d;
        CompiledDesign cd;
        {
            Tracer::Scope s(tr, "design.build", session);
            d.emplace(de.build());
            cd = compile(*d);
        }
        OmniSim sim(cd, engineOptions());
        SimResult r;
        {
            Tracer::Scope s(tr, "core.run", session);
            r = sim.run();
        }
        a.status = r.status;
        a.cycles = r.totalCycles;
        a.memHash = hashMemories(r.memories);
    } catch (const std::exception &e) {
        a.error = e.what();
    }
    return a;
}

void
runCold(const Config &cfg, const std::vector<std::string> &names,
        Report &out)
{
    std::vector<const designs::DesignEntry *> entries;
    for (const std::string &n : names)
        entries.push_back(&designs::findDesign(n));

    // Set-up: design build plus the first touch of every design.
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Stopwatch sw;
        for (const auto *de : entries) {
            const Design d = de->build();
            const CompiledDesign cd = compile(d);
            OmniSim sim(cd, engineOptions());
            (void)sim.run();
        }
        setupS.push_back(sw.seconds());
    }

    // Round order is a seeded permutation; every round runs each design
    // once, so a round always carries the same mix of work.
    std::vector<std::size_t> order(entries.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng rng(deriveSeed(cfg.seed, "cold.order"));
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    const std::uint64_t rounds = measuredRounds(cfg);
    std::vector<ColdAnswer> answers;
    const auto loop = [&](Tracer &tr) {
        Loop l;
        l.latMsByDesign.resize(entries.size());
        std::vector<double> roundRates;
        Stopwatch total;
        std::uint64_t session = answers.size();
        for (std::uint64_t r = 0; r < rounds && !pastCap(cfg, total); ++r) {
            Stopwatch round;
            for (const std::size_t i : order) {
                Stopwatch op;
                answers.push_back(coldOnce(i, *entries[i], tr, ++session));
                l.latMs.push_back(op.millis());
                l.latMsByDesign[i].push_back(l.latMs.back());
            }
            roundRates.push_back(static_cast<double>(order.size()) /
                                 round.seconds());
        }
        l.opsPerS = median(roundRates);
        return l;
    };

    Tracer off(false);
    const Loop measured = loop(off);
    const double rss = peakRssMb();
    std::optional<Loop> traced;
    Tracer tr(true);
    if (cfg.trace)
        traced = loop(tr);

    // Correctness gate: every answer against cosim, computed now,
    // outside the timed phase.
    if (cfg.injectFault && !answers.empty())
        answers.front().cycles += 1;
    std::vector<ColdAnswer> refs(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Design d = entries[i]->build();
        const CompiledDesign cd = compile(d);
        CosimOptions co;
        co.modelRtlCost = false;
        const SimResult r = simulateCosim(cd, co);
        refs[i] = {i, r.status, r.totalCycles, hashMemories(r.memories), {}};
    }
    for (const ColdAnswer &a : answers) {
        ++out.attempted;
        const ColdAnswer &ref = refs[a.design];
        const std::string &name = names[a.design];
        if (!a.error.empty())
            out.fail(name + ": error: " + a.error);
        else if (a.status != ref.status)
            out.fail(strfmt("%s: status %s, cosim %s", name.c_str(),
                            simStatusName(a.status),
                            simStatusName(ref.status)));
        else if (a.cycles != ref.cycles)
            out.fail(strfmt("%s: %llu cycles, cosim %llu", name.c_str(),
                            static_cast<unsigned long long>(a.cycles),
                            static_cast<unsigned long long>(ref.cycles)));
        else if (a.memHash != ref.memHash)
            out.fail(name + ": memories differ from cosim");
    }

    if (!cfg.trace) {
        addEndToEnd(measured, setupS, rss, out);
        return;
    }
    out.add("trace.overhead", traced->opsPerS / measured.opsPerS, "x");
    ReplayInputs in;
    in.designs = names;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Design d = entries[i]->build();
        std::vector<std::uint32_t> base;
        for (const auto &f : d.fifos())
            base.push_back(f.depth);
        std::vector<std::vector<std::uint32_t>> probes;
        if (!base.empty()) {
            ProbeGen gen(base, deriveSeed(cfg.seed, "cold.probes", i));
            gen.markSeen(base);
            for (int p = 0; p < 16; ++p)
                probes.push_back(gen.next());
        }
        in.probes.push_back(std::move(probes));
    }
    replayLayers(cfg, in, tr, out);
}

// ---------------------------------------------------------------------------
// dse_anneal.
// ---------------------------------------------------------------------------

void
runDse(const Config &cfg, const std::vector<std::string> &names,
       Report &out)
{
    std::vector<std::vector<std::uint32_t>> maxConfig;
    std::vector<double> setupS;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Stopwatch sw;
        maxConfig.clear();
        for (const std::string &n : names) {
            Design d = designs::findDesign(n).build();
            const dse::ResolvedSpace space = dse::resolveSpace(d, {});
            maxConfig.push_back(space.maxConfig());
            applyDepths(d, maxConfig.back());
            const CompiledDesign cd = compile(d);
            OmniSim sim(cd, engineOptions());
            (void)sim.run();
        }
        setupS.push_back(sw.seconds());
    }

    // Warm-up, untimed: the first session of a design in a process
    // runs up to twice as long as the next ones.
    Tracer off(false);
    for (std::size_t i = 0; i < names.size(); ++i)
        (void)annealSession(names[i], i, 0,
                            deriveSeed(cfg.seed, "dse.warmup", i),
                            kDseWarmupBudget, kPoolWidth, off, 0);

    // Each design's rate is the median over its sessions of configs/s:
    // the anneal seed decides how many evaluations diverge into full
    // re-runs (multicore: about 80 to 250 of 256), and a median keeps
    // one lucky seed or one host stall from moving a run's figure.
    const std::uint64_t rounds = measuredRounds(cfg);
    std::vector<Session> sessions;
    const auto loop = [&](Tracer &tr, std::vector<Session> &into) {
        Loop l;
        l.latMsByDesign.resize(names.size());
        std::vector<std::vector<double>> rates(names.size());
        std::uint64_t k = 0;
        Stopwatch total;
        for (std::uint64_t round = 0; round < rounds && !pastCap(cfg, total);
             ++round) {
            for (std::size_t i = 0; i < names.size(); ++i) {
                for (std::size_t rep = 0; rep < kDseRepeats[i]; ++rep) {
                    Session s = annealSession(
                        names[i], i, round,
                        deriveSeed(cfg.seed, "dse.anneal", k++), kDseBudget,
                        kPoolWidth, tr, into.size() + 1);
                    s.rep = rep;
                    l.latMs.push_back(s.ms);
                    l.latMsByDesign[i].push_back(s.ms);
                    if (s.ms > 0)
                        rates[i].push_back(
                            static_cast<double>(
                                s.report.evaluations.size()) /
                            (s.ms * 1e-3));
                    into.push_back(std::move(s));
                }
            }
        }
        std::vector<double> designRates;
        for (const std::vector<double> &r : rates)
            designRates.push_back(median(r));
        l.opsPerS = geomean(designRates);
        return l;
    };

    const Loop measured = loop(off, sessions);
    const double rss = peakRssMb();
    Tracer tr(true);
    std::vector<Session> tracedSessions;
    std::optional<Loop> traced;
    if (cfg.trace)
        traced = loop(tr, tracedSessions);

    // Correctness gate: every session must have produced a sound
    // report; a seeded sample of evaluations per design is re-run fresh
    // and re-derived by resimulateReference on a max-depth engine.
    if (cfg.injectFault)
        for (Session &s : sessions)
            for (dse::Evaluation &e : s.report.evaluations)
                e.latency += 1;
    std::vector<std::size_t> bad(sessions.size(), 0);
    for (std::size_t s = 0; s < sessions.size(); ++s) {
        const Session &ss = sessions[s];
        const dse::DseReport &r = ss.report;
        const std::string &name = names[ss.design];
        std::string why;
        if (!ss.error.empty())
            why = "explore failed: " + ss.error;
        else if (r.evaluations.empty() || r.evaluations.size() > kDseBudget ||
                 r.fullRuns + r.incrementalHits != r.evaluations.size() ||
                 !r.anyOk)
            why = "inconsistent dse report";
        if (!why.empty()) {
            out.failures.push_back(name + ": " + why);
            ++bad[s];
        }
    }
    Rng pick(deriveSeed(cfg.seed, "dse.check"));
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::vector<std::pair<std::size_t, std::size_t>> pool;
        for (std::size_t s = 0; s < sessions.size(); ++s)
            if (sessions[s].design == i)
                for (std::size_t e = 0;
                     e < sessions[s].report.evaluations.size(); ++e)
                    pool.push_back({s, e});
        if (pool.empty())
            continue;
        RefEngine ref(names[i], maxConfig[i]);
        for (std::size_t k = 0; k < kDseChecksPerDesign; ++k) {
            const auto [s, e] = pool[pick.below(pool.size())];
            const dse::Evaluation &ev = sessions[s].report.evaluations[e];
            std::string why;
            if (!ref.agrees(ev.depths, ev.status, ev.latency, why)) {
                out.failures.push_back(names[i] + ": " + why);
                ++bad[s];
            }
        }
    }
    out.attempted += sessions.size();
    for (const std::size_t b : bad)
        out.failed += b != 0;

    if (!cfg.trace) {
        addEndToEnd(measured, setupS, rss, out);
        return;
    }
    out.add("trace.overhead", traced->opsPerS / measured.opsPerS, "x");
    ReplayInputs in;
    in.designs = names;
    in.baseDepths = maxConfig;
    in.probes.resize(names.size());
    for (const Session &s : tracedSessions)
        if (s.round == 0 && s.rep == 0)
            for (const dse::Evaluation &e : s.report.evaluations)
                if (e.method == dse::EvalMethod::Incremental)
                    in.probes[s.design].push_back(e.depths);
    in.sessions = std::move(tracedSessions);
    replayLayers(cfg, in, tr, out);
}

// ---------------------------------------------------------------------------
// serve_mix.
// ---------------------------------------------------------------------------

void
runServe(const Config &cfg, const std::vector<std::string> &names,
         Report &out)
{
    std::vector<double> setupS;
    std::unique_ptr<serve::SimService> svc;
    std::vector<std::vector<std::uint32_t>> base;
    Tracer off(false);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        svc.reset();
        const std::string dir =
            cfg.scratchDir + "/serve-store-" + std::to_string(rep);
        fs::remove_all(dir);
        Stopwatch sw;
        svc = makeServeService(dir, names, base, off);
        setupS.push_back(sw.seconds());
    }

    // The request stream: 90% resimulate / 10% simulate, every design
    // equally often (stratified blocks, see MixStream), every depth
    // vector fresh per design (never the base, never an earlier
    // request), so no answer comes from the memo.
    std::vector<ProbeGen> gens;
    for (std::size_t i = 0; i < names.size(); ++i) {
        gens.emplace_back(base[i], deriveSeed(cfg.seed, "serve.probes", i));
        gens.back().markSeen(base[i]);
    }
    MixStream mix(names.size(), 9, 1, deriveSeed(cfg.seed, "serve.stream"));
    const std::size_t perLoop = measuredRounds(cfg) * mix.blockSize();
    std::vector<Request> requests;
    const auto make = [&](std::size_t id, std::string &line) {
        Request r;
        const MixStream::Pick pick = mix.next();
        r.design = pick.design;
        r.simulate = pick.simulate;
        r.depths = gens[r.design].next();
        line = requestLine(id, r.simulate ? "simulate" : "resimulate",
                           names[r.design], r.depths);
        requests.push_back(std::move(r));
    };
    const auto next = [&](std::size_t idx, std::string &line) {
        if (idx == perLoop)
            return false;
        make(idx + 1, line);
        return true;
    };

    Tracer tr(true);
    const ClosedLoopResult measured =
        closedLoop(*svc, next, kLoopCapFactor * cfg.seconds, kOutstanding,
                   off);
    const double rss = peakRssMb();
    const std::size_t measuredCount = measured.sent;
    std::optional<ClosedLoopResult> traced;
    std::vector<std::string> tracedLines;
    if (cfg.trace) {
        // Same design/op sequence as the untraced loop (fresh depths), so
        // traced / untraced throughput compares like with like.
        mix = MixStream(names.size(), 9, 1,
                        deriveSeed(cfg.seed, "serve.stream"));
        const auto nextTraced = [&](std::size_t idx, std::string &line) {
            if (idx == perLoop)
                return false;
            make(measuredCount + idx + 1, line);
            tracedLines.push_back(line);
            return true;
        };
        traced = closedLoop(*svc, nextTraced, kLoopCapFactor * cfg.seconds,
                            kOutstanding, tr);
    }

    // Correctness gate: every response must be ok, fresh (not from the
    // memo) and of the expected kind; a seeded sample is re-run fresh
    // and re-derived by resimulateReference on a base-depth engine.
    std::vector<std::string> responses = measured.responses;
    if (traced)
        responses.insert(responses.end(), traced->responses.begin(),
                         traced->responses.end());
    if (cfg.injectFault)
        for (std::string &r : responses)
            r = corruptCycles(r);
    std::vector<Answer> answers(responses.size());
    for (std::size_t k = 0; k < responses.size(); ++k) {
        ++out.attempted;
        const Request &rq = requests[k];
        std::string why;
        if (!parseAnswer(responses[k], rq.simulate, answers[k], why))
            out.fail(names[rq.design] + ": " + why);
    }
    Rng pick(deriveSeed(cfg.seed, "serve.check"));
    std::vector<std::unique_ptr<RefEngine>> refs(names.size());
    for (std::size_t c = 0; c < kServeChecks && !responses.empty(); ++c) {
        const std::size_t k = pick.below(responses.size());
        if (!answers[k].valid)
            continue;
        const Request &rq = requests[k];
        if (!refs[rq.design])
            refs[rq.design] =
                std::make_unique<RefEngine>(names[rq.design], base[rq.design]);
        std::string why;
        if (!refs[rq.design]->agrees(rq.depths, answers[k].status,
                                     answers[k].cycles, why))
            out.fail(names[rq.design] + ": " + why);
    }

    if (!cfg.trace) {
        Loop l;
        l.latMs = measured.latMs;
        l.opsPerS = blockRate(measured.doneNs, mix.blockSize(),
                              measured.elapsedS);
        addEndToEnd(l, setupS, rss, out);
        svc.reset();
        return;
    }
    out.add("trace.overhead",
            blockRate(traced->doneNs, mix.blockSize(), traced->elapsedS) /
                blockRate(measured.doneNs, mix.blockSize(),
                          measured.elapsedS),
            "x");
    svc.reset();

    ReplayInputs in;
    in.designs = names;
    in.baseDepths = base;
    in.probes.resize(names.size());
    for (std::size_t k = 0; k < traced->sent; ++k) {
        const Request &rq = requests[measuredCount + k];
        if (!rq.simulate && in.probes[rq.design].size() < 64)
            in.probes[rq.design].push_back(rq.depths);
    }
    in.serveLines = std::move(tracedLines);
    in.serveLoop = std::move(*traced);
    replayLayers(cfg, in, tr, out);
}

} // namespace

// ---------------------------------------------------------------------------
// Shared pieces (bench.hh).
// ---------------------------------------------------------------------------

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[1024];
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

std::uint64_t
hashMemories(const std::map<std::string, std::vector<Value>> &mems)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto eat = [&h](std::uint64_t x) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto &[name, vals] : mems) {
        for (const char c : name)
            eat(static_cast<unsigned char>(c));
        eat(vals.size());
        for (const Value v : vals)
            eat(static_cast<std::uint64_t>(v));
    }
    return h;
}

void
applyDepths(Design &d, const std::vector<std::uint32_t> &depths)
{
    for (std::size_t f = 0; f < depths.size(); ++f)
        d.setFifoDepth(static_cast<FifoId>(f), depths[f]);
}

RefEngine::RefEngine(const std::string &name,
                     std::vector<std::uint32_t> baseDepths)
    : name_(name), design_(designs::findDesign(name).build())
{
    applyDepths(design_, baseDepths);
    cd_ = compile(design_);
    engine_ = std::make_unique<OmniSim>(cd_, engineOptions());
    baseline_ = engine_->run();
}

RefEngine::~RefEngine() = default;

bool
RefEngine::agrees(const std::vector<std::uint32_t> &depths, SimStatus status,
                  Cycles cycles, std::string &why)
{
    Design d = designs::findDesign(name_).build();
    applyDepths(d, depths);
    const CompiledDesign cd = compile(d);
    OmniSim fresh(cd, engineOptions());
    const SimResult r = fresh.run();
    if (r.status != status) {
        why = strfmt("status %s, fresh run %s", simStatusName(status),
                     simStatusName(r.status));
        return false;
    }
    if (r.status == SimStatus::Ok && r.totalCycles != cycles) {
        why = strfmt("%llu cycles, fresh run %llu",
                     static_cast<unsigned long long>(cycles),
                     static_cast<unsigned long long>(r.totalCycles));
        return false;
    }
    if (baseline_.status != SimStatus::Ok)
        return true;
    const IncrementalOutcome ref = engine_->resimulateReference(depths);
    if (ref.reused && (status != SimStatus::Ok ||
                       ref.result.totalCycles != cycles)) {
        why = strfmt("%llu cycles, resimulateReference %llu",
                     static_cast<unsigned long long>(cycles),
                     static_cast<unsigned long long>(
                         ref.result.totalCycles));
        return false;
    }
    return true;
}

Session
annealSession(const std::string &name, std::size_t design,
              std::uint64_t round, std::uint64_t seed, std::size_t budget,
              unsigned jobs, Tracer &tr, std::uint64_t sid)
{
    dse::DseOptions o;
    o.strategy = "anneal";
    o.budget = budget;
    o.jobs = jobs;
    o.seed = seed;
    o.engine = engineOptions();
    Session s;
    s.design = design;
    s.round = round;
    s.seed = seed;
    s.budget = budget;
    Stopwatch sw;
    try {
        Tracer::Scope span(tr, "dse.session", sid);
        s.report = dse::exploreRegistered(name, o);
    } catch (const std::exception &e) {
        s.error = e.what();
    }
    s.ms = sw.millis();
    return s;
}

std::string
requestLine(std::size_t id, const char *op, const std::string &design,
            const std::vector<std::uint32_t> &depths)
{
    std::string line = strfmt("{\"id\":%zu,\"op\":\"%s\",\"design\":", id,
                              op);
    line += serve::jsonQuote(design);
    line += ",\"depths\":[";
    for (std::size_t f = 0; f < depths.size(); ++f) {
        if (f)
            line += ',';
        line += std::to_string(depths[f]);
    }
    line += "]}";
    return line;
}

bool
parseAnswer(const std::string &response, bool simulate, Answer &a,
            std::string &why)
{
    try {
        const serve::JsonValue v = serve::JsonValue::parse(response);
        const serve::JsonValue *ok = v.find("ok");
        if (!ok || !ok->isBool() || !ok->boolean()) {
            const serve::JsonValue *err = v.find("error");
            why = "error response: " +
                  (err && err->isString() ? err->str() : response);
            return false;
        }
        const serve::JsonValue *status = v.find("status");
        const serve::JsonValue *cycles = v.find("cycles");
        const serve::JsonValue *method = v.find("method");
        const serve::JsonValue *cached = v.find("cached");
        if (!status || !status->isString() || !cycles || !method ||
            !method->isString() || !cached || !cached->isBool()) {
            why = "malformed response: " + response;
            return false;
        }
        if (cached->boolean()) {
            why = "answered from the memo: " + response;
            return false;
        }
        if (simulate && method->str() != "full") {
            why = "simulate not answered by a full run: " + response;
            return false;
        }
        if (status->str() != simStatusName(SimStatus::Ok)) {
            why = "unexpected status: " + response;
            return false;
        }
        a.status = SimStatus::Ok;
        a.cycles = cycles->asU64("cycles", ~std::uint64_t{0});
        a.valid = true;
        return true;
    } catch (const std::exception &e) {
        why = std::string("unparsable response: ") + e.what();
        return false;
    }
}

std::string
corruptCycles(const std::string &response)
{
    const std::string key = "\"cycles\":";
    const std::size_t at = response.find(key);
    if (at == std::string::npos)
        return response;
    std::size_t end = at + key.size();
    while (end < response.size() && std::isdigit(
                                        static_cast<unsigned char>(response[end])))
        ++end;
    const std::string digits =
        response.substr(at + key.size(), end - at - key.size());
    const unsigned long long c = digits.empty() ? 0 : std::stoull(digits);
    return response.substr(0, at + key.size()) + std::to_string(c + 1) +
           response.substr(end);
}

std::unique_ptr<serve::SimService>
makeServeService(const std::string &storeDir,
                 const std::vector<std::string> &names,
                 std::vector<std::vector<std::uint32_t>> &base, Tracer &tr)
{
    // Store population: one recorded run per design at its registered
    // depths, published the way a serving process leaves them.
    base.assign(names.size(), {});
    {
        io::RunStore store(storeDir);
        for (std::size_t i = 0; i < names.size(); ++i) {
            Tracer::Scope span(tr, "io.populate", i + 1);
            const Design d = designs::findDesign(names[i]).build();
            for (const auto &f : d.fifos())
                base[i].push_back(f.depth);
            const CompiledDesign cd = compile(d);
            OmniSim sim(cd, engineOptions());
            const SimResult r = sim.run();
            RunSnapshot snap;
            if (r.status != SimStatus::Ok || !sim.exportSnapshot(snap))
                throw std::runtime_error("serve set-up: " + names[i] +
                                         " did not complete");
            if (!store.publish(names[i], "omnisim", io::designFingerprint(d),
                               snap))
                throw std::runtime_error("serve set-up: publish failed");
        }
    }
    // Rehydration: a fresh service over the populated store, touched
    // once per design (attachStore loads and freezes the stored run).
    serve::ServeOptions so;
    so.jobs = kPoolWidth;
    so.storeDir = storeDir;
    so.engine = engineOptions();
    auto svc = std::make_unique<serve::SimService>(so);
    for (std::size_t i = 0; i < names.size(); ++i) {
        Tracer::Scope span(tr, "serve.rehydrate", i + 1);
        const std::string resp = svc->handle(
            requestLine(i + 1, "resimulate", names[i], base[i]));
        Answer a;
        std::string why;
        if (!parseAnswer(resp, false, a, why))
            throw std::runtime_error("serve set-up: " + names[i] + ": " +
                                     why);
    }
    return svc;
}

ClosedLoopResult
closedLoop(serve::SimService &svc,
           const std::function<bool(std::size_t, std::string &)> &next,
           double seconds, std::size_t outstanding, Tracer &tr)
{
    ClosedLoopResult res;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t inFlight = 0;
    const std::int64_t t0 = Tracer::nowNs();
    Tracer::Scope loopSpan(tr, "batch.closed_loop", 0);

    for (std::size_t idx = 0;; ++idx) {
        if (seconds > 0 &&
            static_cast<double>(Tracer::nowNs() - t0) * 1e-9 >= seconds)
            break;
        std::string line;
        if (!next(idx, line))
            break;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return inFlight < outstanding; });
            ++inFlight;
            res.latMs.push_back(-1.0);
            res.responses.emplace_back();
            res.doneNs.push_back(0);
        }
        const std::uint64_t span =
            tr.begin("batch.request", idx + 1, loopSpan.id());
        const std::int64_t sent = Tracer::nowNs();
        svc.submit(std::move(line), [&, idx, sent, span](std::string resp) {
            const std::int64_t done = Tracer::nowNs();
            tr.end(span);
            std::lock_guard<std::mutex> lock(mu);
            res.latMs[idx] = static_cast<double>(done - sent) * 1e-6;
            res.doneNs[idx] = done - t0;
            res.responses[idx] = std::move(resp);
            --inFlight;
            cv.notify_all();
        });
        ++res.sent;
    }
    svc.drain();
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return inFlight == 0; });
    }
    res.elapsedS = static_cast<double>(Tracer::nowNs() - t0) * 1e-9;
    return res;
}

std::vector<std::string>
workloadDesigns(const std::string &workload)
{
    if (workload == "cold_dataflow")
        return {"inr_arch_lite", "skynet_lite", "flowgnn_lite"};
    if (workload == "cold_nb") {
        std::vector<std::string> names;
        for (const auto &de : designs::typeBCDesigns())
            names.push_back(de.name);
        return names;
    }
    if (workload == "dse_anneal")
        return {"inr_arch_lite", "flowgnn_lite", "multicore"};
    if (workload == "serve_mix")
        return {"skynet_lite", "flowgnn_lite", "fig4_ex2",    "fig4_ex5",
                "multicore",   "reconvergent", "axis_stream"};
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

void
runWorkload(const Config &cfg, Report &out)
{
    const std::vector<std::string> names = workloadDesigns(cfg.workload);
    if (cfg.workload == "dse_anneal")
        runDse(cfg, names, out);
    else if (cfg.workload == "serve_mix")
        runServe(cfg, names, out);
    else
        runCold(cfg, names, out);
}

} // namespace omnibench
