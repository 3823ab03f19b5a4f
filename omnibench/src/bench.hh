/**
 * @file
 * Shared declarations of the omnibench program: the run configuration,
 * the metric sink, the engine settings every workload uses, the pieces
 * the workloads (workloads.cc) and the traced layer replay (layers.cc)
 * share, and their entry points.
 */

#ifndef OMNIBENCH_BENCH_HH
#define OMNIBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/omnisim.hh"
#include "design/design.hh"
#include "dse/dse.hh"
#include "helpers.hh"

namespace omnisim::serve
{
class SimService;
}

namespace omnibench
{

/** Pool width (TaskPool / DSE batch workers) every workload uses. */
constexpr unsigned kPoolWidth = 4;

/** Relaxation lanes (OmniSimOptions::jobs) every workload uses. */
constexpr unsigned kLanes = 4;

/** Requests the serve closed loop keeps in flight. */
constexpr std::size_t kOutstanding = 4;

/** Annealing budget of one dse_anneal session. */
constexpr std::size_t kDseBudget = 256;

/** Command-line configuration of one benchmark run. */
struct Config
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 1.0;
    bool trace = false;
    /** Directory for run stores; removed when the run ends. */
    std::string scratchDir;
    /** Chrome trace_event output of a traced run. */
    std::string traceOut;
    /** Self-check of the correctness gate: corrupt the recorded
     *  answers (every one the sampled gates may pick) before they are
     *  compared with their references; the run must then fail. */
    bool injectFault = false;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra provenance members, preformatted ("\"key\":value"). */
    std::vector<std::string> provenance;
    /** Mismatch descriptions (printed to stderr). */
    std::vector<std::string> failures;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void
    fail(std::string why)
    {
        ++failed;
        failures.push_back(std::move(why));
    }
};

/** @return the engine options every workload runs with. */
inline omnisim::OmniSimOptions
engineOptions(unsigned lanes = kLanes)
{
    omnisim::OmniSimOptions o;
    o.jobs = lanes;
    return o;
}

/** printf into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** @return an FNV-1a hash of every memory's name and contents. */
std::uint64_t
hashMemories(const std::map<std::string, std::vector<omnisim::Value>> &m);

/** Set every FIFO depth of @p d (one entry per FIFO, by FifoId). */
void applyDepths(omnisim::Design &d, const std::vector<std::uint32_t> &depths);

/**
 * Reference for a sampled answer at some depth vector: a fresh
 * OmniSim::run at those depths, and resimulateReference() on an engine
 * that ran at @p baseDepths (which must agree whenever it reuses).
 */
class RefEngine
{
  public:
    RefEngine(const std::string &name, std::vector<std::uint32_t> baseDepths);
    ~RefEngine();
    RefEngine(const RefEngine &) = delete;
    RefEngine &operator=(const RefEngine &) = delete;

    /** @return true when (status, cycles) matches both references;
     *  otherwise @p why says which differed. */
    bool agrees(const std::vector<std::uint32_t> &depths,
                omnisim::SimStatus status, omnisim::Cycles cycles,
                std::string &why);

  private:
    std::string name_;
    omnisim::Design design_;
    omnisim::CompiledDesign cd_;
    std::unique_ptr<omnisim::OmniSim> engine_;
    omnisim::SimResult baseline_;
};

/** One dse::explore session of dse_anneal (or of the dse replay). */
struct Session
{
    std::size_t design = 0;
    std::uint64_t round = 0;
    /** Index among this design's sessions in its round. */
    std::size_t rep = 0;
    std::uint64_t seed = 0;
    std::size_t budget = 0;
    double ms = 0.0;
    omnisim::dse::DseReport report;
    std::string error;
};

/** Run one anneal session of a registered design (pool width @p jobs)
 *  under a "dse.session" span; errors land in Session::error. */
Session annealSession(const std::string &name, std::size_t design,
                      std::uint64_t round, std::uint64_t seed,
                      std::size_t budget, unsigned jobs, Tracer &tr,
                      std::uint64_t sid);

/** One generated serve request. */
struct Request
{
    std::size_t design = 0;
    bool simulate = false;
    std::vector<std::uint32_t> depths;
};

/** The compared fields of a serve response. */
struct Answer
{
    bool valid = false;
    omnisim::SimStatus status = omnisim::SimStatus::Ok;
    omnisim::Cycles cycles = 0;
};

/** @return a serve request line with a full depth array. */
std::string requestLine(std::size_t id, const char *op,
                        const std::string &design,
                        const std::vector<std::uint32_t> &depths);

/** Check a response: ok, not from the memo, a full run for simulate,
 *  status Ok. @return false with @p why set otherwise. */
bool parseAnswer(const std::string &response, bool simulate, Answer &a,
                 std::string &why);

/** @return @p response with its "cycles" value incremented. */
std::string corruptCycles(const std::string &response);

/**
 * Serve set-up: populate a fresh RunStore at @p storeDir with one run
 * per design at its registered depths (returned in @p base), then open
 * a SimService over it and touch every design once (rehydration).
 */
std::unique_ptr<omnisim::serve::SimService>
makeServeService(const std::string &storeDir,
                 const std::vector<std::string> &names,
                 std::vector<std::vector<std::uint32_t>> &base, Tracer &tr);

/** What a closed loop sent and got back, indexed by request. */
struct ClosedLoopResult
{
    std::vector<double> latMs;
    std::vector<std::string> responses;
    /** Completion time, ns after the loop started. */
    std::vector<std::int64_t> doneNs;
    std::size_t sent = 0;
    double elapsedS = 0.0;
};

/**
 * Closed loop from the calling thread: keep @p outstanding requests
 * submitted to @p svc, taking lines from @p next (request index ->
 * line; false ends the stream) until it ends or @p seconds pass
 * (0 = no limit), then wait for every answer.
 */
ClosedLoopResult
closedLoop(omnisim::serve::SimService &svc,
           const std::function<bool(std::size_t, std::string &)> &next,
           double seconds, std::size_t outstanding, Tracer &tr);

/** @return the designs a workload drives (throws on an unknown one). */
std::vector<std::string> workloadDesigns(const std::string &workload);

/**
 * Run one workload: set-up (repeated, median reported), the measured
 * loop and the correctness gate; a traced run adds a traced repeat of
 * the loop and the per-layer replay. Fills @p out with the end-to-end
 * metrics (untraced) or the per-layer metrics (traced).
 */
void runWorkload(const Config &cfg, Report &out);

/** What a workload hands to the traced layer replay. */
struct ReplayInputs
{
    std::vector<std::string> designs;
    /** Depths each design's replay engine runs at (empty = the
     *  registered depths). */
    std::vector<std::vector<std::uint32_t>> baseDepths;
    /** Depth probes per design to replay through OmniSim::resimulate. */
    std::vector<std::vector<std::vector<std::uint32_t>>> probes;
    /** dse_anneal's traced sessions (empty: the replay runs its own). */
    std::vector<Session> sessions;
    /** serve_mix's traced request lines and loop (empty: the replay
     *  runs its own stream). */
    std::vector<std::string> serveLines;
    ClosedLoopResult serveLoop;
};

/**
 * Drive the workload's designs through every layer's public call under
 * @p tr — design build, cold run, PassManager compile, CompiledRun
 * freeze, resimulate probes at kLanes and at one lane, run
 * encode/decode and store publish/load, dse sessions and serve
 * requests — and add the per-layer metrics to @p out.
 */
void replayLayers(const Config &cfg, const ReplayInputs &in, Tracer &tr,
                  Report &out);

} // namespace omnibench

#endif // OMNIBENCH_BENCH_HH
