/**
 * @file
 * omnibench entry point: parses the command line, runs one workload, and
 * prints a provenance line followed by the result line
 *
 *   {"correct":...,"attempted":N,"failed":N,"metrics":{name:{value,unit}}}
 *
 * as the last line of stdout. Exit status 0 only when every checked
 * answer matched its reference; 1 on a mismatch, 2 on a usage error.
 *
 * Usage: omnibench --workload NAME --seed N --seconds S --trace 0|1
 *                  --scratch DIR [--trace-out FILE] [--git-sha SHA]
 *                  [--src-digest HEX] [--inject-fault]
 */

#include <cmath>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hh"

using namespace omnibench;

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "omnibench: " << why
              << "\nusage: omnibench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--trace-out FILE] "
                 "[--git-sha SHA] [--src-digest HEX] [--inject-fault]\n";
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    std::string gitSha = "unknown", srcDigest = "unknown";
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload")
                cfg.workload = value();
            else if (a == "--seed")
                cfg.seed = std::stoull(value()), haveSeed = true;
            else if (a == "--seconds")
                cfg.seconds = std::stod(value()), haveSeconds = true;
            else if (a == "--trace")
                cfg.trace = std::stoi(value()) != 0, haveTrace = true;
            else if (a == "--scratch")
                cfg.scratchDir = value();
            else if (a == "--trace-out")
                cfg.traceOut = value();
            else if (a == "--git-sha")
                gitSha = value();
            else if (a == "--src-digest")
                srcDigest = value();
            else if (a == "--inject-fault")
                cfg.injectFault = true;
            else
                throw std::invalid_argument("unknown argument " + a);
        }
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    if (!haveSeed || !haveSeconds || !haveTrace || cfg.scratchDir.empty())
        return usage("--seed, --seconds, --trace and --scratch are required");
    if (!(cfg.seconds > 0))
        return usage("--seconds must be positive");
    try {
        (void)workloadDesigns(cfg.workload);
    } catch (const std::exception &e) {
        return usage(e.what());
    }

    Report rep;
    std::filesystem::remove_all(cfg.scratchDir);
    std::filesystem::create_directories(cfg.scratchDir);
    try {
        runWorkload(cfg, rep);
    } catch (const std::exception &e) {
        rep.fail(std::string("run aborted: ") + e.what());
    }
    std::filesystem::remove_all(cfg.scratchDir);
    if (rep.attempted == 0)
        rep.fail("no operation was attempted");

    for (const std::string &f : rep.failures)
        std::cerr << "omnibench: MISMATCH " << f << "\n";

    std::string prov = "{\"provenance\":{";
    prov += "\"workload\":" + jsonString(cfg.workload);
    prov += strfmt(",\"seed\":%llu,\"seconds\":%g,\"trace\":%d",
                   static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                   cfg.trace ? 1 : 0);
    prov += strfmt(",\"nproc\":%u", std::thread::hardware_concurrency());
    prov += ",\"build_type\":" + jsonString(OMNIBENCH_BUILD_TYPE);
    prov += ",\"compiler\":" + jsonString(OMNIBENCH_COMPILER);
    prov += ",\"git_sha\":" + jsonString(gitSha);
    prov += ",\"src_digest\":" + jsonString(srcDigest);
    prov += strfmt(",\"pool_width\":%u,\"lanes\":%u", kPoolWidth, kLanes);
    prov += ",\"designs\":[";
    const std::vector<std::string> names = workloadDesigns(cfg.workload);
    for (std::size_t i = 0; i < names.size(); ++i)
        prov += (i ? "," : "") + jsonString(names[i]);
    prov += "]";
    prov += strfmt(",\"attempted\":%zu,\"failed\":%zu", rep.attempted,
                   rep.failed);
    for (const std::string &p : rep.provenance)
        prov += "," + p;
    prov += "}}";
    std::cout << prov << "\n";

    for (Metric &m : rep.metrics)
        if (!std::isfinite(m.value)) {
            std::cerr << "omnibench: metric " << m.name << " is not finite\n";
            m.value = 0.0;
            ++rep.failed;
        }
    const bool correct = rep.failed == 0;
    std::string line = strfmt(
        "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{",
        correct ? "true" : "false", rep.attempted, rep.failed);
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        line += strfmt("%s%s:{\"value\":%.17g,\"unit\":%s}", i ? "," : "",
                       jsonString(m.name).c_str(), m.value,
                       jsonString(m.unit).c_str());
    }
    line += "}}";
    std::cout << line << std::endl;
    return correct ? 0 : 1;
}
