/**
 * @file
 * The traced run's per-layer replay: the workload's designs and inputs
 * driven through each layer's public call, one span per call, and the
 * per-layer metrics derived from those spans and the calls' results.
 */

#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <optional>

#include "bench.hh"
#include "design/frontend.hh"
#include "designs/common.hh"
#include "graph/compiled_run.hh"
#include "io/run_io.hh"
#include "io/run_store.hh"
#include "opt/pass_manager.hh"
#include "serve/json.hh"
#include "serve/service.hh"

namespace omnibench
{

using namespace omnisim;

namespace
{

/** Budget of the small dse replay on workloads without dse sessions. */
constexpr std::size_t kReplayDseBudget = 32;

/** Full-run evaluations replayed per design for dse.full_run_ms. */
constexpr std::size_t kFullRunReplays = 2;

/** Resimulate probes per design in the serve replay stream. */
constexpr std::size_t kReplayResims = 3;

/** Run @p f under a span; @return its duration in ms. */
template <typename F>
double
timed(Tracer &tr, const char *name, std::uint64_t session, F &&f)
{
    Tracer::Scope span(tr, name, session);
    const std::int64_t t0 = Tracer::nowNs();
    f();
    return static_cast<double>(Tracer::nowNs() - t0) * 1e-6;
}

/** core / opt / graph / io figures over the workload's designs. */
struct CoreFigures
{
    double buildMs = 0, runMs = 0, compileMs = 0, freezeMs = 0;
    double encodeMs = 0, decodeMs = 0, publishMs = 0, loadMs = 0;
    std::uint64_t nodes = 0, edges = 0, constraints = 0, cycles = 0;
    std::uint64_t runBytes = 0;
    double elimBefore = 0, elimAfter = 0;
    std::vector<double> resimUs, resimSerialUs;
    std::size_t probes = 0, reused = 0, viaDelta = 0;
    /** Designs whose registered run completed (serve replay input). */
    std::vector<std::size_t> okDesigns;
};

void
replayCore(const Config &cfg, const ReplayInputs &in, Tracer &tr,
           CoreFigures &f, Report &out)
{
    io::RunStore store(cfg.scratchDir + "/replay-store");
    for (std::size_t i = 0; i < in.designs.size(); ++i) {
        const std::string &name = in.designs[i];
        const std::uint64_t sid = i + 1;
        std::optional<Design> d;
        CompiledDesign cd;
        f.buildMs += timed(tr, "design.build", sid, [&] {
            d.emplace(designs::findDesign(name).build());
            if (i < in.baseDepths.size() && !in.baseDepths[i].empty())
                applyDepths(*d, in.baseDepths[i]);
            cd = compile(*d);
        });
        OmniSim sim(cd, engineOptions());
        SimResult r;
        f.runMs += timed(tr, "core.run", sid, [&] { r = sim.run(); });
        f.nodes += r.stats.graphNodes;
        f.edges += r.stats.graphEdges;
        f.constraints += sim.constraints().size();
        f.cycles += r.status == SimStatus::Ok ? r.totalCycles
                                               : r.deadlockCycle;
        RunSnapshot snap;
        if (r.status != SimStatus::Ok || !sim.exportSnapshot(snap))
            continue; // e.g. the deadlock design: nothing to freeze
        f.okDesigns.push_back(i);

        opt::LayoutInput li;
        li.nodes = &snap.nodes;
        li.edges = &snap.edges;
        li.seed = &snap.seed;
        li.tables = &snap.tables;
        li.depths = &snap.depths;
        li.constraints = &snap.constraints;
        li.tailNode = &snap.tailNode;
        li.tailSlack = &snap.tailSlack;
        opt::RunLayout layout;
        f.compileMs += timed(tr, "opt.compile", sid, [&] {
            layout = opt::PassManager(opt::OptLevel::O1).compile(li);
        });
        f.elimBefore += static_cast<double>(layout.stats.origNodes +
                                            layout.stats.origEdges);
        f.elimAfter += static_cast<double>(layout.stats.optNodes +
                                           layout.stats.optEdges);
        opt::RunLayout copy = layout;
        std::optional<CompiledRun> frozen;
        f.freezeMs += timed(tr, "graph.freeze", sid, [&] {
            frozen.emplace(snap, std::move(copy), kLanes);
        });
        if (frozen->baselineTotalCycles() != r.totalCycles)
            out.fail(name + ": replayed freeze disagrees with the run");

        const io::RunFileMeta meta{name, "omnisim", io::designFingerprint(*d)};
        std::string bytes;
        f.encodeMs += timed(tr, "io.encode", sid, [&] {
            bytes = io::encodeRun(meta, snap, &layout);
        });
        f.runBytes += bytes.size();
        f.decodeMs += timed(tr, "io.decode", sid, [&] {
            io::RunFileMeta m2;
            RunSnapshot s2;
            std::optional<opt::RunLayout> l2;
            io::decodeRun(bytes, m2, s2, l2);
        });
        bool published = false;
        f.publishMs += timed(tr, "io.publish", sid, [&] {
            published = store.publish(name, "omnisim", meta.fingerprint, snap);
        });
        std::unique_ptr<io::StoredRun> loaded;
        f.loadMs += timed(tr, "io.load", sid, [&] {
            loaded = store.load(name, "omnisim", meta.fingerprint,
                                snap.depths);
        });
        if (!published || !loaded)
            out.fail(name + ": store publish/load round trip failed");

        const auto &probes = i < in.probes.size()
                                 ? in.probes[i]
                                 : std::vector<std::vector<std::uint32_t>>{};
        if (probes.empty())
            continue;
        for (const auto &p : probes) {
            IncrementalOutcome o;
            f.resimUs.push_back(
                1e3 * timed(tr, "graph.resim", sid,
                            [&] { o = sim.resimulate(p); }));
            ++f.probes;
            f.reused += o.reused;
            f.viaDelta += o.reused && o.viaDelta;
        }
        OmniSim serial(cd, engineOptions(1));
        timed(tr, "core.run_serial", sid, [&] { (void)serial.run(); });
        for (const auto &p : probes)
            f.resimSerialUs.push_back(
                1e3 * timed(tr, "graph.resim_serial", sid,
                            [&] { (void)serial.resimulate(p); }));
    }
}

void
replayDse(const Config &cfg, const ReplayInputs &in, Tracer &tr,
          Report &out)
{
    std::vector<Session> own;
    if (in.sessions.empty())
        for (std::size_t i = 0; i < in.designs.size(); ++i)
            own.push_back(annealSession(
                in.designs[i], i, 0, deriveSeed(cfg.seed, "replay.dse", i),
                kReplayDseBudget, kPoolWidth, tr, i + 1));
    const std::vector<Session> &sessions =
        in.sessions.empty() ? own : in.sessions;

    std::vector<double> sessionMs, fullMs;
    std::uint64_t evals = 0, full = 0, incr = 0, memo = 0;
    for (const Session &s : sessions) {
        sessionMs.push_back(s.ms);
        if (s.round != 0 || s.rep != 0)
            continue;
        std::size_t replayed = 0;
        for (const dse::Evaluation &e : s.report.evaluations) {
            if (e.method != dse::EvalMethod::FullRun ||
                replayed == kFullRunReplays)
                continue;
            ++replayed;
            fullMs.push_back(timed(tr, "dse.full_run", s.design + 1, [&] {
                Design d = designs::findDesign(in.designs[s.design]).build();
                applyDepths(d, e.depths);
                const CompiledDesign cd = compile(d);
                OmniSim sim(cd, engineOptions());
                (void)sim.run();
            }));
        }
        // The counts come from the same session replayed at pool width
        // 1: with concurrent workers the full/incremental split depends
        // on which full run joined the reuse pool first, so only the
        // serial search repeats exactly.
        const Session serial =
            annealSession(in.designs[s.design], s.design, 0, s.seed,
                          s.budget, 1, tr, s.design + 1);
        const dse::DseReport &r = serial.report;
        if (!serial.error.empty() ||
            r.evaluations.size() != s.report.evaluations.size())
            out.fail(in.designs[s.design] +
                     ": serial dse replay disagrees with the session");
        evals += r.evaluations.size();
        full += r.fullRuns;
        incr += r.incrementalHits;
        memo += r.cacheHits;
    }
    out.add("dse.session_ms", median(sessionMs), "ms");
    out.add("dse.full_run_ms.p50", median(fullMs), "ms");
    out.add("dse.hit_frac",
            incr + full ? static_cast<double>(incr) /
                              static_cast<double>(incr + full)
                        : 0.0,
            "fraction");
    out.add("dse.evals", static_cast<double>(evals), "count");
    out.add("dse.full_runs", static_cast<double>(full), "count");
    out.add("dse.incremental", static_cast<double>(incr), "count");
    out.add("dse.memo_hits", static_cast<double>(memo), "count");
}

void
replayServe(const Config &cfg, const ReplayInputs &in,
            const std::vector<std::size_t> &okDesigns, Tracer &tr,
            Report &out)
{
    // The designs the serve layer sees, and the lines it is sent.
    std::vector<std::string> names = in.designs;
    std::vector<std::string> lines = in.serveLines;
    std::vector<std::vector<std::uint32_t>> base;
    std::optional<ClosedLoopResult> ownLoop;
    if (lines.empty()) {
        // A workload without serve traffic: each design that completes
        // gets one simulate and kReplayResims resimulates, closed loop.
        names.clear();
        for (const std::size_t i : okDesigns)
            names.push_back(in.designs[i]);
        auto svc = makeServeService(cfg.scratchDir + "/replay-serve", names,
                                    base, tr);
        std::size_t id = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (base[i].empty())
                continue; // a FIFO-less design has no fresh depths
            ProbeGen gen(base[i], deriveSeed(cfg.seed, "replay.serve", i));
            gen.markSeen(base[i]);
            lines.push_back(
                requestLine(++id, "simulate", names[i], gen.next()));
            for (std::size_t k = 0; k < kReplayResims; ++k)
                lines.push_back(
                    requestLine(++id, "resimulate", names[i], gen.next()));
        }
        const auto next = [&](std::size_t idx, std::string &line) {
            if (idx >= lines.size())
                return false;
            line = lines[idx];
            return true;
        };
        ownLoop = closedLoop(*svc, next, 0.0, kOutstanding, tr);
    }
    const ClosedLoopResult &loop = ownLoop ? *ownLoop : in.serveLoop;

    // The same lines, in order, through synchronous handle() on a twin
    // service built the same way (bounded to the run length).
    auto twin = makeServeService(cfg.scratchDir + "/replay-twin", names,
                                 base, tr);
    std::vector<double> execMs, jsonUs, waitMs;
    const std::int64_t t0 = Tracer::nowNs();
    for (std::size_t k = 0; k < lines.size() && k < loop.sent; ++k) {
        if (static_cast<double>(Tracer::nowNs() - t0) * 1e-9 > cfg.seconds)
            break;
        std::string resp;
        const double exec = timed(tr, "serve.handle", k + 1,
                                  [&] { resp = twin->handle(lines[k]); });
        execMs.push_back(exec);
        jsonUs.push_back(1e3 * timed(tr, "serve.json", k + 1, [&] {
                             (void)serve::JsonValue::parse(lines[k]);
                             (void)serve::JsonValue::parse(resp);
                         }));
        if (loop.latMs[k] >= 0)
            waitMs.push_back(std::max(0.0, loop.latMs[k] - exec));
        Answer a;
        std::string why;
        const bool simulate = lines[k].find("\"simulate\"") !=
                              std::string::npos;
        if (!parseAnswer(resp, simulate, a, why))
            out.fail("serve replay: " + why);
    }
    twin.reset();
    out.add("serve.exec_ms.p50", median(execMs), "ms");
    out.add("serve.exec_ms.p99", quantile(execMs, 0.99), "ms");
    out.add("serve.json_us", median(jsonUs), "us");
    out.add("batch.wait_ms.p50", median(waitMs), "ms");
    out.add("batch.wait_ms.p99", quantile(waitMs, 0.99), "ms");
    out.provenance.push_back(
        strfmt("\"serve_replayed_requests\":%zu", execMs.size()));
}

} // namespace

void
replayLayers(const Config &cfg, const ReplayInputs &in, Tracer &tr,
             Report &out)
{
    CoreFigures f;
    replayCore(cfg, in, tr, f, out);
    out.add("design.build_ms", f.buildMs, "ms");
    out.add("core.run_ms", f.runMs, "ms");
    out.add("core.exec_ms", f.runMs - f.compileMs - f.freezeMs, "ms");
    out.add("opt.compile_ms", f.compileMs, "ms");
    out.add("graph.freeze_ms", f.freezeMs, "ms");
    out.add("graph.resim_us.p50", median(f.resimUs), "us");
    out.add("graph.resim_us.p99", quantile(f.resimUs, 0.99), "us");
    out.add("graph.resim_serial_us.p50", median(f.resimSerialUs), "us");
    out.add("io.publish_ms", f.publishMs, "ms");
    out.add("io.load_ms", f.loadMs, "ms");
    out.add("io.encode_ms", f.encodeMs, "ms");
    out.add("io.decode_ms", f.decodeMs, "ms");
    out.add("core.trace_nodes", static_cast<double>(f.nodes), "count");
    out.add("core.trace_edges", static_cast<double>(f.edges), "count");
    out.add("core.constraints", static_cast<double>(f.constraints), "count");
    out.add("core.sim_cycles", static_cast<double>(f.cycles), "count");
    out.add("opt.elim_frac",
            f.elimBefore > 0 ? 1.0 - f.elimAfter / f.elimBefore : 0.0,
            "fraction");
    out.add("graph.delta_frac",
            f.reused ? static_cast<double>(f.viaDelta) /
                           static_cast<double>(f.reused)
                     : 0.0,
            "fraction");
    out.add("graph.reuse_frac",
            f.probes ? static_cast<double>(f.reused) /
                           static_cast<double>(f.probes)
                     : 0.0,
            "fraction");
    out.add("io.run_bytes", static_cast<double>(f.runBytes), "bytes");
    out.provenance.push_back(strfmt("\"resim_probes\":%zu", f.probes));

    replayDse(cfg, in, tr, out);
    replayServe(cfg, in, f.okDesigns, tr, out);

    // Self time per layer, and the spans for Perfetto.
    const std::vector<Span> spans = tr.spans();
    std::string self = "{\"self_ms\":{";
    bool first = true;
    for (const auto &[layer, ms] : selfTimeByLayer(spans)) {
        self += strfmt("%s\"%s\":%.3f", first ? "" : ",", layer.c_str(), ms);
        first = false;
    }
    self += strfmt("},\"spans\":%zu}", spans.size());
    std::cout << self << "\n";
    if (!cfg.traceOut.empty()) {
        std::FILE *fp = std::fopen(cfg.traceOut.c_str(), "wb");
        const std::string json = chromeTraceJson(spans, getpid());
        if (!fp || std::fwrite(json.data(), 1, json.size(), fp) != json.size())
            std::cerr << "omnibench: cannot write " << cfg.traceOut << "\n";
        if (fp)
            std::fclose(fp);
    }
}

} // namespace omnibench
