/**
 * @file
 * The benchmark's own helpers, kept free of simulator dependencies so
 * tests/selftest.cc can pin them: order statistics (median, the
 * ten-samples-beyond tail rule, the failure-rate upper bound, the block
 * throughput rule), the span recorder behind the traced run (self time
 * per layer, Chrome trace_event export), and the seeded input streams
 * (derived seeds, the stratified request mix and the never-repeating
 * depth-probe generator).
 */

#ifndef OMNIBENCH_HELPERS_HH
#define OMNIBENCH_HELPERS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace omnibench
{

// ---------------------------------------------------------------------------
// Order statistics.
// ---------------------------------------------------------------------------

/** @return the median (mean of the middle pair for even sizes); 0 when
 *  empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** @return the nearest-rank q-quantile (q in [0, 1]); 0 when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t rank = pos < 1.0 ? 1 : static_cast<std::size_t>(pos);
    return v[std::min(rank, v.size()) - 1];
}

/** Samples that must lie strictly beyond a reported tail value. */
constexpr std::size_t kTailBeyond = 10;

/** A tail latency with the percentile it stands for. */
struct Tail
{
    double value = 0.0;
    /** Percentile of value: 100 * (n - beyond) / n. */
    double percentile = 0.0;
    std::size_t samples = 0;
    /** Samples strictly beyond value (kTailBeyond, or 0 for the max of
     *  a run too short to have any such percentile). */
    std::size_t beyond = 0;
};

/**
 * The highest percentile that has at least kTailBeyond samples beyond
 * it: the (kTailBeyond + 1)-th largest sample. A run with no more than
 * kTailBeyond samples has no such percentile; it reports its maximum
 * with beyond = 0, so the output says so.
 */
inline Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= kTailBeyond) {
        t.value = v.back();
        t.percentile = 100.0;
        return t;
    }
    t.beyond = kTailBeyond;
    t.value = v[n - kTailBeyond - 1];
    t.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                   static_cast<double>(n);
    return t;
}

/**
 * 95% Wilson score upper bound on a failure fraction. Never 0 for a
 * nonzero attempt count (zero failures in n attempts bound the rate by
 * about 3.84 / (n + 3.84)), so a clean run still reports how strongly
 * its attempt count rules failures out.
 */
inline double
failureUpperBound(std::size_t failed, std::size_t attempted)
{
    if (attempted == 0)
        return 1.0;
    const double z = 1.959963984540054;
    const double n = static_cast<double>(attempted);
    const double p = static_cast<double>(failed) / n;
    const double z2 = z * z;
    const double centre = p + z2 / (2 * n);
    const double margin = z * std::sqrt(p * (1 - p) / n + z2 / (4 * n * n));
    return std::min(1.0, (centre + margin) / (1 + z2 / n));
}

/** @return the geometric mean of positive samples; 0 when any sample
 *  is non-positive or the list is empty. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double x : v) {
        if (!(x > 0.0))
            return 0.0;
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(v.size()));
}

/**
 * Throughput of a request stream sent in blocks of equal work: sort the
 * completion times (ns after the stream started), cut them every
 * @p block completions, and @return the median over those intervals of
 * block / interval seconds. Each interval then holds about one block's
 * mix, so the median neither depends on how a fixed time window split
 * the expensive requests nor on a short stall. Streams shorter than two
 * blocks report count / @p elapsedS.
 */
inline double
blockRate(std::vector<std::int64_t> doneNs, std::size_t block,
          double elapsedS)
{
    if (doneNs.empty() || block == 0)
        return 0.0;
    if (doneNs.size() < 2 * block)
        return elapsedS > 0 ? static_cast<double>(doneNs.size()) / elapsedS
                            : 0.0;
    std::sort(doneNs.begin(), doneNs.end());
    std::vector<double> rates;
    std::int64_t prev = 0;
    for (std::size_t k = block; k <= doneNs.size(); k += block) {
        const std::int64_t t = doneNs[k - 1];
        if (t > prev)
            rates.push_back(static_cast<double>(block) /
                            (static_cast<double>(t - prev) * 1e-9));
        prev = t;
    }
    return median(rates);
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/** One recorded interval around a public call. */
struct Span
{
    std::string name;          ///< "<layer>.<call>", e.g. "core.run".
    std::uint64_t id = 0;      ///< 1-based, unique within the tracer.
    std::uint64_t parent = 0;  ///< Enclosing span id; 0 for a root.
    std::uint64_t session = 0; ///< Operation / request id it serves.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t tid = 0;     ///< Small per-thread number.

    /** @return the layer: name up to its first '.'. */
    std::string layer() const { return name.substr(0, name.find('.')); }
};

/**
 * In-memory span recorder. Disabled tracers record nothing and cost a
 * branch per call. Spans are opened explicitly (begin/end, for spans
 * that end on another thread, such as a request completed by a worker)
 * or by scope (Scope, which also maintains the per-thread parent
 * chain). Thread-safe.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** @return monotonic nanoseconds since an arbitrary epoch. */
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /** Open a span; @return its id (0 when disabled). */
    std::uint64_t
    begin(std::string name, std::uint64_t session, std::uint64_t parent)
    {
        if (!enabled_)
            return 0;
        Span s;
        s.name = std::move(name);
        s.parent = parent;
        s.session = session;
        s.tid = threadNumber();
        s.startNs = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        s.id = spans_.size() + 1;
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    /** Close a span opened by begin(). */
    void
    end(std::uint64_t id)
    {
        if (id == 0)
            return;
        const std::int64_t t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id - 1].endNs = t;
    }

    /** Scoped span whose parent is the innermost open Scope of the
     *  calling thread. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, std::uint64_t session)
            : t_(t), prevTop_(top())
        {
            id_ = t_.begin(std::move(name), session, prevTop_);
            if (id_)
                top() = id_;
        }
        ~Scope()
        {
            if (id_) {
                t_.end(id_);
                top() = prevTop_;
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return id_; }

      private:
        static std::uint64_t &
        top()
        {
            thread_local std::uint64_t current = 0;
            return current;
        }

        Tracer &t_;
        std::uint64_t prevTop_;
        std::uint64_t id_ = 0;
    };

    /** @return a copy of every span recorded so far. */
    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

  private:
    static std::uint32_t
    threadNumber()
    {
        static std::mutex mu;
        static std::uint32_t next = 0;
        thread_local std::uint32_t mine = [] {
            std::lock_guard<std::mutex> lock(mu);
            return ++next;
        }();
        return mine;
    }

    const bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children's intervals (children may
 * overlap one another, e.g. concurrent requests under one session span,
 * and may stick out of the parent; only the covered part inside the
 * parent counts). Unclosed spans count as zero-length.
 * @return self nanoseconds indexed like spans.
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent != 0 && index.count(s.parent) && s.endNs >= s.startNs)
            kids[index[s.parent]].push_back({s.startNs, s.endNs});

    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        if (p.endNs < p.startNs)
            continue;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t runStart = 0, runEnd = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, p.startNs);
            b = std::min(b, p.endNs);
            if (b <= a)
                continue;
            if (open && a <= runEnd) {
                runEnd = std::max(runEnd, b);
                continue;
            }
            if (open)
                covered += runEnd - runStart;
            runStart = a;
            runEnd = b;
            open = true;
        }
        if (open)
            covered += runEnd - runStart;
        self[i] = (p.endNs - p.startNs) - covered;
    }
    return self;
}

/** @return total self milliseconds per layer. */
inline std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer()] += static_cast<double>(self[i]) * 1e-6;
    return out;
}

/** @return the spans as Chrome trace_event JSON (complete "X" events;
 *  args carry id, parent and session), the format Perfetto loads. */
inline std::string
chromeTraceJson(const std::vector<Span> &spans, int pid)
{
    std::int64_t epoch = 0;
    bool first = true;
    for (const Span &s : spans)
        if (first || s.startNs < epoch) {
            epoch = s.startNs;
            first = false;
        }
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) +
           ",\"tid\":0,\"args\":{\"name\":\"omnibench\"}}";
    char buf[64];
    for (const Span &s : spans) {
        const std::int64_t end = std::max(s.endNs, s.startNs);
        out += ",{\"name\":\"" + s.name + "\",\"cat\":\"" + s.layer() +
               "\",\"ph\":\"X\",\"ts\":";
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(s.startNs - epoch) * 1e-3);
        out += buf;
        out += ",\"dur\":";
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(end - s.startNs) * 1e-3);
        out += buf;
        out += ",\"pid\":" + std::to_string(pid) +
               ",\"tid\":" + std::to_string(s.tid) +
               ",\"args\":{\"id\":" + std::to_string(s.id) +
               ",\"parent\":" + std::to_string(s.parent) +
               ",\"session\":" + std::to_string(s.session) + "}}";
    }
    out += "]}";
    return out;
}

// ---------------------------------------------------------------------------
// Seeded streams.
// ---------------------------------------------------------------------------

/** SplitMix64 finalizer. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** @return an independent seed for a named stream of the workload seed
 *  (FNV-1a of the name folded through SplitMix64). */
inline std::uint64_t
deriveSeed(std::uint64_t seed, std::string_view stream,
           std::uint64_t index = 0)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : stream) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return mix64(mix64(seed ^ h) + index);
}

/** Small deterministic PRNG (SplitMix64 stream). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t next() { return mix64(s_++); }

    /** @return a value in [0, bound); bound must be nonzero. */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t s_;
};

/**
 * Stratified request mix: consecutive blocks that each hold, for every
 * design, @p resims resimulate and @p sims simulate slots in a seeded
 * shuffled order. Every block carries the same work, so throughput over
 * a run does not hinge on how often a random draw hit the expensive
 * simulate of the largest design.
 */
class MixStream
{
  public:
    struct Pick
    {
        std::size_t design = 0;
        bool simulate = false;
    };

    MixStream(std::size_t designs, unsigned resims, unsigned sims,
              std::uint64_t seed)
        : designs_(designs), resims_(resims), sims_(sims), rng_(seed)
    {
    }

    Pick
    next()
    {
        if (pos_ == block_.size())
            refill();
        return block_[pos_++];
    }

    /** @return requests per block. */
    std::size_t blockSize() const { return designs_ * (resims_ + sims_); }

  private:
    void
    refill()
    {
        block_.clear();
        for (std::size_t d = 0; d < designs_; ++d)
            for (unsigned k = 0; k < resims_ + sims_; ++k)
                block_.push_back({d, k >= resims_});
        for (std::size_t i = block_.size(); i > 1; --i)
            std::swap(block_[i - 1], block_[rng_.below(i)]);
        pos_ = 0;
    }

    std::size_t designs_;
    unsigned resims_, sims_;
    Rng rng_;
    std::vector<Pick> block_;
    std::size_t pos_ = 0;
};

/**
 * Never-repeating depth-vector walk for one design. Each probe draws
 * every FIFO's depth independently in [base, base * 2 + 8] (deepening
 * keeps most probes on the incremental path), and a vector already
 * returned — or equal to one passed to markSeen(), such as the base
 * configuration — is redrawn; after a run of collisions the walk
 * deepens the FIFO it is on past every depth tried so far, so next()
 * always terminates with a fresh vector. Callers use it only on designs
 * that have FIFOs (a FIFO-less design has a single, empty vector).
 */
class ProbeGen
{
  public:
    ProbeGen(std::vector<std::uint32_t> base, std::uint64_t seed)
        : base_(std::move(base)), rng_(seed)
    {
    }

    void markSeen(const std::vector<std::uint32_t> &d) { seen_.insert(d); }

    std::vector<std::uint32_t>
    next()
    {
        std::vector<std::uint32_t> d(base_.size());
        if (d.empty())
            return d; // a FIFO-less design has exactly one configuration
        for (unsigned attempt = 0;; ++attempt) {
            for (std::size_t f = 0; f < d.size(); ++f) {
                const std::uint32_t lo = base_[f];
                const std::uint32_t span = base_[f] + 9;
                d[f] = lo + static_cast<std::uint32_t>(rng_.below(span));
            }
            if (attempt >= 16) {
                // Dense corner of a tiny lattice: walk past it.
                const std::size_t f = attempt % d.size();
                d[f] = base_[f] * 2 + 9 + (escalate_++);
            }
            if (seen_.insert(d).second)
                return d;
        }
    }

  private:
    std::vector<std::uint32_t> base_;
    Rng rng_;
    std::uint32_t escalate_ = 0;
    std::set<std::vector<std::uint32_t>> seen_;
};

} // namespace omnibench

#endif // OMNIBENCH_HELPERS_HH
