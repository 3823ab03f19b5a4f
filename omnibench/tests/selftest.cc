/**
 * @file
 * Self-test of the benchmark's own helpers (src/helpers.hh): the tail
 * percentile rule, the block throughput rule, self time under
 * overlapping child spans, determinism of the seeded streams and the
 * request mix, and the no-repeat guarantee of the probe generator. Exit
 * status 0 when every check holds.
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "helpers.hh"

using namespace omnibench;

namespace
{

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
        ++failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testTailRule()
{
    // 100 samples 1..100: ten lie beyond 90, so the tail is 90 at p90.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    Tail t = tailOf(v);
    CHECK(near(t.value, 90.0));
    CHECK(near(t.percentile, 90.0));
    CHECK(t.samples == 100 && t.beyond == 10);

    // 11 samples: the smallest has exactly ten beyond it.
    std::vector<double> eleven = {5, 1, 9, 3, 7, 11, 2, 10, 4, 8, 6};
    t = tailOf(eleven);
    CHECK(near(t.value, 1.0));
    CHECK(t.beyond == 10);

    // 10 or fewer samples: no percentile has ten beyond; report the max.
    t = tailOf({3, 1, 2});
    CHECK(near(t.value, 3.0));
    CHECK(near(t.percentile, 100.0));
    CHECK(t.beyond == 0 && t.samples == 3);

    CHECK(tailOf({}).samples == 0);

    // 1000 samples -> p99 with exactly ten samples beyond it.
    std::vector<double> big;
    for (int i = 1; i <= 1000; ++i)
        big.push_back(i);
    t = tailOf(big);
    CHECK(near(t.value, 990.0));
    CHECK(near(t.percentile, 99.0));
    int beyond = 0;
    for (const double x : big)
        beyond += x > t.value;
    CHECK(beyond == 10);
}

void
testStatistics()
{
    CHECK(near(median({3, 1, 2}), 2.0));
    CHECK(near(median({4, 1, 3, 2}), 2.5));
    CHECK(near(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99), 10.0));
    CHECK(near(geomean({2, 8}), 4.0));
    CHECK(geomean({1, 0}) == 0.0);
    // Zero failures: about 3.84 / (n + 3.84); never 0, shrinking in n.
    const double u100 = failureUpperBound(0, 100);
    CHECK(u100 > 0.036 && u100 < 0.038);
    CHECK(failureUpperBound(0, 1000) < u100);
    CHECK(failureUpperBound(5, 100) > 0.05);
    CHECK(failureUpperBound(0, 0) == 1.0);

    // Blocks of 4 completions every 1 s, one stalled block of 4 s: the
    // median interval rate ignores the stall.
    std::vector<std::int64_t> done;
    std::int64_t t = 0;
    for (int blk = 0; blk < 5; ++blk) {
        const std::int64_t len = blk == 2 ? 4'000'000'000 : 1'000'000'000;
        for (int k = 1; k <= 4; ++k)
            done.push_back(t + len * k / 4);
        t += len;
    }
    CHECK(near(blockRate(done, 4, 8.0), 4.0));
    // Order of completions does not matter; short streams use count/time.
    std::vector<std::int64_t> shuffled(done.rbegin(), done.rend());
    CHECK(near(blockRate(shuffled, 4, 8.0), 4.0));
    CHECK(near(blockRate({1, 2, 3}, 4, 2.0), 1.5));
}

Span
span(std::uint64_t id, std::uint64_t parent, std::int64_t a, std::int64_t b,
     const char *name)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.startNs = a;
    s.endNs = b;
    s.name = name;
    return s;
}

void
testSelfTime()
{
    // Parent [0,100); children [10,40) and [30,60) overlap -> the union
    // covers 50; a child sticking out [90,120) covers 10 more.
    const std::vector<Span> spans = {
        span(1, 0, 0, 100, "serve.request"),
        span(2, 1, 10, 40, "core.run"),
        span(3, 1, 30, 60, "core.run"),
        span(4, 1, 90, 120, "io.publish"),
        span(5, 2, 15, 25, "opt.compile"),
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    CHECK(self[0] == 100 - 60);
    CHECK(self[1] == 30 - 10);
    CHECK(self[2] == 30);
    CHECK(self[3] == 30);
    CHECK(self[4] == 10);
    const auto byLayer = selfTimeByLayer(spans);
    CHECK(near(byLayer.at("serve"), 40e-6));
    CHECK(near(byLayer.at("core"), 50e-6));
    CHECK(near(byLayer.at("io"), 30e-6));
    CHECK(near(byLayer.at("opt"), 10e-6));

    // Nested scopes record their parent chain.
    Tracer tr(true);
    {
        Tracer::Scope outer(tr, "dse.session", 7);
        Tracer::Scope inner(tr, "core.run", 7);
    }
    const std::vector<Span> rec = tr.spans();
    CHECK(rec.size() == 2);
    CHECK(rec[0].parent == 0 && rec[1].parent == rec[0].id);
    CHECK(rec[1].session == 7);
    CHECK(rec[1].endNs >= rec[1].startNs && rec[0].endNs >= rec[1].endNs);
    const std::string json = chromeTraceJson(rec, 1);
    CHECK(json.find("\"traceEvents\"") != std::string::npos);
    CHECK(json.find("\"ph\":\"X\"") != std::string::npos);

    Tracer off(false);
    {
        Tracer::Scope s(off, "core.run", 1);
        CHECK(s.id() == 0);
    }
    CHECK(off.spans().empty());
}

void
testSeededStreams()
{
    CHECK(deriveSeed(1, "serve.stream") == deriveSeed(1, "serve.stream"));
    CHECK(deriveSeed(1, "serve.stream") != deriveSeed(2, "serve.stream"));
    CHECK(deriveSeed(1, "serve.stream") != deriveSeed(1, "dse.anneal"));
    CHECK(deriveSeed(1, "dse.anneal", 0) != deriveSeed(1, "dse.anneal", 1));

    Rng a(42), b(42), c(43);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t x = a.next();
        CHECK(x == b.next());
        differs |= x != c.next();
    }
    CHECK(differs);

    // Every block of the mix carries each design's resimulate and
    // simulate slots exactly once; the order is seeded.
    MixStream m1(7, 9, 1, 3), m2(7, 9, 1, 3), m3(7, 9, 1, 4);
    bool orderDiffers = false;
    for (int block = 0; block < 5; ++block) {
        std::vector<int> sims(7, 0), total(7, 0);
        for (std::size_t k = 0; k < m1.blockSize(); ++k) {
            const MixStream::Pick p = m1.next(), q = m2.next(),
                                  r = m3.next();
            CHECK(p.design == q.design && p.simulate == q.simulate);
            orderDiffers |= p.design != r.design;
            ++total[p.design];
            sims[p.design] += p.simulate;
        }
        for (int d = 0; d < 7; ++d)
            CHECK(total[d] == 10 && sims[d] == 1);
    }
    CHECK(orderDiffers);

    const std::vector<std::uint32_t> base = {2, 4, 1};
    ProbeGen g1(base, 9), g2(base, 9);
    for (int i = 0; i < 50; ++i)
        CHECK(g1.next() == g2.next());
}

void
testNoProbeRepeats()
{
    // A one-FIFO design at depth 1 has only ten in-range depths; the
    // walk must still hand out thousands of distinct vectors, never the
    // base, each within or past the declared range.
    for (const std::vector<std::uint32_t> &base :
         {std::vector<std::uint32_t>{1}, std::vector<std::uint32_t>{2, 3},
          std::vector<std::uint32_t>{16, 1, 4, 2}}) {
        ProbeGen g(base, 5);
        g.markSeen(base);
        std::set<std::vector<std::uint32_t>> got;
        for (int i = 0; i < 3000; ++i) {
            const std::vector<std::uint32_t> d = g.next();
            CHECK(d != base);
            CHECK(got.insert(d).second);
            for (std::size_t f = 0; f < d.size(); ++f)
                CHECK(d[f] >= base[f]);
        }
    }
    ProbeGen none({}, 1);
    CHECK(none.next().empty());
}

} // namespace

int
main()
{
    testTailRule();
    testStatistics();
    testSelfTime();
    testSeededStreams();
    testNoProbeRepeats();
    if (failures) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("selftest: all checks passed\n");
    return 0;
}
