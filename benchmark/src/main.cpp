/**
 * @file
 * dhisq_benchmark — the repository benchmark.
 *
 *   dhisq_benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
 *                       --out DIR [--record FILE]
 *   dhisq_benchmark report DIR
 *   dhisq_benchmark compare PARENT_DIR CHANGE_DIR
 *   dhisq_benchmark selftest
 *
 * Run from the repository root: every command reads ./BENCHMARK.json.
 * `run` measures one workload in this process and prints, as its last
 * stdout line, {"correct", "attempted", "failed", "metrics"} with the
 * end-to-end metrics BENCHMARK.json lists (--trace 0) or its per-layer
 * metrics (--trace 1). It exits 1 when any output check failed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.hpp"

using namespace dhisq;
using namespace dhisq::bench;

namespace {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 2025;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string record;
};

constexpr const char *kSpecPath = "BENCHMARK.json";

/** A metric value with its unit. */
struct Value
{
    double value = 0.0;
    std::string unit;
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // Linux reports KiB
}

/**
 * Unit of a metric, from its name; BENCHMARK.json must agree. Times end in
 * `_s` (`_s_est` for estimates), rates in `_per_s`, counters have no suffix.
 */
std::string
unitOf(const std::string &name)
{
    const auto ends = [&](std::string_view suffix) {
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
    };
    if (name == "runtime.ns_per_event")
        return "ns";
    if (name == "peak_rss_mb")
        return "MB";
    if (ends("_per_s"))
        return "1/s";
    if (ends("_ms"))
        return "ms";
    if (ends("_s") || ends("_s_est"))
        return "s";
    if (ends("_ratio"))
        return "ratio";
    return "count";
}

void
put(std::map<std::string, Value> &metrics, const std::string &name,
    double value)
{
    metrics[name] = Value{value, unitOf(name)};
}

bool
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    return bool(out);
}

/**
 * Fewest rounds a run makes, whatever --seconds says. A shared host has
 * slow spells of several seconds (up to 2x); they only ever add time, so
 * each operation's time is its best over the rounds, which takes a spell
 * longer than the whole run to distort.
 */
constexpr std::size_t kMinRounds = 5;
constexpr std::size_t kMinTracedRounds = 3;

/** Run `round` (returns its Round) at least `min_rounds` times, then for as
 *  long as the next one is expected to end within `seconds`. */
template <typename RoundFn>
std::vector<Round>
rounds(std::size_t min_rounds, double seconds, RoundFn round)
{
    std::vector<Round> out;
    const auto start = Clock::now();
    double last = 0.0;
    while (out.size() < min_rounds ||
           secondsBetween(start, Clock::now()) + last <= seconds) {
        const auto round_start = Clock::now();
        out.push_back(round());
        last = secondsBetween(round_start, Clock::now());
    }
    return out;
}

/** Each operation's best time over the rounds, in operation order. */
std::vector<double>
opTimes(const std::vector<Round> &rounds)
{
    std::vector<double> best = rounds.front().latencies;
    for (const Round &r : rounds) {
        for (std::size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], r.latencies[i]);
    }
    return best;
}

/** Time of the fixed work with every part at its best over the rounds. */
double
fixedWorkTime(const std::vector<Round> &rounds)
{
    double wall = 0.0;
    for (const double t : opTimes(rounds))
        wall += t;
    double extra = rounds.front().extra;
    for (const Round &r : rounds)
        extra = std::min(extra, r.extra);
    return wall + extra;
}

double
least(const std::vector<double> &values)
{
    return *std::min_element(values.begin(), values.end());
}

void
checkRoundsAgree(const std::vector<Round> &rounds, const Hash128 &reference,
                 Checks &checks)
{
    for (std::size_t r = 0; r < rounds.size(); ++r) {
        checks.op(rounds[r].digest == reference
                      ? ""
                      : "round " + std::to_string(r) +
                            " outputs differ from the first round's");
    }
}

/** End-to-end metrics of an untraced run. */
void
measure(Workload &workload, const RunOptions &options, Checks &checks,
        std::map<std::string, Value> &metrics, Json &record)
{
    Tracer off(false);
    std::vector<double> setups;
    const auto all = rounds(kMinRounds, options.seconds, [&] {
        // Set-up runs before every round, so its samples spread over the
        // run as the rounds' do; a short one repeats for up to 20 ms.
        const auto setup_start = Clock::now();
        for (int n = 0; n < 5 && (n == 0 || secondsBetween(setup_start,
                                                           Clock::now()) < 0.02);
             ++n) {
            const auto start = Clock::now();
            workload.setup(off);
            setups.push_back(secondsBetween(start, Clock::now()));
        }
        return workload.round(off, checks);
    });
    checkRoundsAgree(all, all.front().digest, checks);

    const std::vector<double> ops = opTimes(all);
    const double wall = fixedWorkTime(all);
    const double p99 = percentile(ops, 0.99);
    put(metrics, "wall_s", wall);
    put(metrics, "setup_s", median(setups));
    put(metrics, "ops_per_s", double(ops.size()) / wall);
    put(metrics, "latency_p50_ms", percentile(ops, 0.5) * 1e3);
    put(metrics, "latency_p99_ms", p99 * 1e3);
    put(metrics, "peak_rss_mb", peakRssMb());
    if (all.front().events > 0.0)
        put(metrics, "events_per_s", all.front().events / wall);

    const auto beyond = std::count_if(ops.begin(), ops.end(),
                                      [&](double t) { return t > p99; });
    std::printf("%zu rounds, %zu set-ups, %zu ops per round; %ld ops beyond "
                "p99\n",
                all.size(), setups.size(), ops.size(), long(beyond));
    record["samples"]["setups"] = setups.size();
    record["samples"]["rounds"] = all.size();
    record["samples"]["ops"] = ops.size();
    record["samples"]["beyond_p99"] = std::int64_t(beyond);
    record["exact"] = all.front().exact;
    record["outputs_digest"] = all.front().digest.hex();
}

/**
 * Per-layer metrics of a traced run: one traced set-up, then untraced and
 * traced rounds alternating. A layer's value is its self time in the
 * set-up plus its best self time over the traced rounds; counters are per
 * round.
 */
void
trace(Workload &workload, const RunOptions &options, Checks &checks,
      std::map<std::string, Value> &metrics, Json &record)
{
    Tracer tracer(true), off(false);
    const auto setup_start = Clock::now();
    workload.setup(tracer);
    double traced_wall = secondsBetween(setup_start, Clock::now());
    std::map<std::string, double> layers = tracer.selfSeconds();

    std::vector<Round> untraced;
    std::map<std::string, std::vector<double>> per_round;
    const auto traced = rounds(kMinTracedRounds, options.seconds, [&] {
        untraced.push_back(workload.round(off, checks));
        const std::size_t first = tracer.spans().size();
        Round round = workload.round(tracer, checks);
        for (const auto &[span, self] : tracer.selfSeconds(first))
            per_round[span].push_back(self);
        return round;
    });
    checkRoundsAgree(untraced, untraced.front().digest, checks);
    checkRoundsAgree(traced, untraced.front().digest, checks);

    std::vector<double> functional;
    for (const Round &r : traced) {
        functional.push_back(r.functional_run_s);
        traced_wall += fixedWorkTime({r});
    }
    double in_spans = 0.0;
    for (const auto &[span, self] : tracer.selfSeconds())
        in_spans += self;
    for (const auto &[span, samples] : per_round)
        layers[span] += least(samples);
    for (const auto &[span, self] : layers)
        put(metrics, span + "_s", self);
    for (const auto &[counter, value] : tracer.counts())
        put(metrics, counter, value / double(traced.size()));
    const double events =
        metrics.count("sim.events") ? metrics["sim.events"].value : 0.0;
    const double run_s =
        metrics.count("runtime.run_s") ? metrics["runtime.run_s"].value : 0.0;
    put(metrics, "runtime.ns_per_event", events > 0 ? run_s / events * 1e9 : 0);
    put(metrics, "quantum.backend_s_est",
        least(functional) - workload.timingOnlyRerunSeconds());
    if (!traced.front().layer_seconds.empty()) {
        // The service's own bookkeeping: per request, its untraced submit
        // time less the traced time inside the layers it calls.
        const std::vector<double> submit = opTimes(untraced);
        std::vector<double> overhead;
        for (std::size_t i = 0; i < submit.size(); ++i) {
            double inside = traced.front().layer_seconds[i];
            for (const Round &r : traced)
                inside = std::min(inside, r.layer_seconds[i]);
            overhead.push_back(submit[i] - inside);
        }
        put(metrics, "service.overhead_s",
            median(overhead) * double(overhead.size()));
    }
    put(metrics, "trace.overhead_ratio",
        fixedWorkTime(traced) / fixedWorkTime(untraced) - 1.0);

    // Coverage: the part of all traced time (set-up and every traced
    // round) spent inside some span rather than in benchmark glue.
    const double coverage = in_spans / traced_wall;
    double layer_total = 0.0;
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &[span, self] : layers) {
        rows.emplace_back(self, span);
        layer_total += self;
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("%-28s %12s %8s\n", "layer (self time)", "seconds", "share");
    for (const auto &[self, span] : rows)
        std::printf("%-28s %12.6f %7.2f%%\n", span.c_str(), self,
                    100.0 * self / layer_total);
    std::printf("%zu traced rounds; spans cover %.2f%% of traced time; "
                "tracing overhead %+.2f%%\n",
                traced.size(), 100.0 * coverage,
                100.0 * metrics["trace.overhead_ratio"].value);
    for (const auto &[counter, value] : tracer.counts())
        std::printf("%-28s %14.1f\n", counter.c_str(),
                    value / double(traced.size()));

    const std::string path =
        options.out + "/" + options.workload + ".trace.json";
    if (writeText(path, tracer.chromeTrace().dump() + "\n"))
        std::printf("trace written to %s\n", path.c_str());
    else
        checks.fail("cannot write " + path);
    record["trace_coverage"] = coverage;
    record["exact"] = traced.front().exact;
    record["outputs_digest"] = traced.front().digest.hex();
}

/** Parse "--flag value" pairs; false on anything unexpected. */
bool
parseRun(const std::vector<std::string> &args, RunOptions &o)
{
    for (std::size_t i = 1; i < args.size(); i += 2) {
        const std::string &flag = args[i];
        if (i + 1 == args.size()) {
            std::fprintf(stderr, "%s needs a value\n", flag.c_str());
            return false;
        }
        const std::string &value = args[i + 1];
        const auto number = [&](auto &out) {
            const auto [end, ec] =
                std::from_chars(value.data(), value.data() + value.size(), out);
            return ec == std::errc() && end == value.data() + value.size();
        };
        bool ok = true;
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            ok = number(o.seed);
        else if (flag == "--seconds")
            ok = number(o.seconds) && o.seconds > 0.0;
        else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            o.trace = value == "1";
        } else if (flag == "--out")
            o.out = value;
        else if (flag == "--record")
            o.record = value;
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "bad argument: %s %s\n", flag.c_str(),
                         value.c_str());
            return false;
        }
    }
    return !o.workload.empty() && !o.out.empty();
}

int
runCommand(const RunOptions &options)
{
    const Result<Spec> spec = loadSpec(kSpecPath);
    if (!spec) {
        std::fprintf(stderr, "%s\n", spec.message().c_str());
        return 2;
    }
    auto workload = makeWorkload(options.workload, options.seed, options.out);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }
    std::filesystem::create_directories(options.out);
    std::printf("workload %s, seed %llu, %s\n", options.workload.c_str(),
                (unsigned long long)options.seed,
                options.trace ? "traced" : "untraced");

    Checks checks;
    std::map<std::string, Value> metrics;
    Json record = Json::object();
    if (options.trace)
        trace(*workload, options, checks, metrics, record);
    else
        measure(*workload, options, checks, metrics, record);

    // The result line carries exactly the metrics BENCHMARK.json lists for
    // this mode. A per-layer metric no span or counter produced belongs to
    // a layer this workload never calls, and reads 0.
    Json listed = Json::object();
    for (const MetricSpec &m :
         options.trace ? spec.value().per_layer : spec.value().end_to_end) {
        auto it = metrics.find(m.name);
        if (it == metrics.end() && options.trace)
            it = metrics.emplace(m.name, Value{0.0, unitOf(m.name)}).first;
        if (it == metrics.end() || it->second.unit != m.unit) {
            std::fprintf(stderr, "metric %s [%s] is not measured as listed\n",
                         m.name.c_str(), m.unit.c_str());
            return 2;
        }
        listed[m.name]["value"] = it->second.value;
        listed[m.name]["unit"] = it->second.unit;
    }

    const bool correct = checks.failed == 0;
    for (const std::string &problem : checks.problems)
        std::printf("FAILED: %s\n", problem.c_str());
    std::printf("outputs_digest %s\nexact %s\n",
                record["outputs_digest"].asString().c_str(),
                record["exact"].dump().c_str());

    if (!options.record.empty()) {
        Json all = Json::object();
        for (const auto &[name, v] : metrics) {
            all[name]["value"] = v.value;
            all[name]["unit"] = v.unit;
        }
        Json problems = Json::array();
        for (const std::string &problem : checks.problems)
            problems.push(problem);
        record["schema"] = kRecordSchema;
        record["workload"] = options.workload;
        record["seed"] = options.seed;
        record["seconds"] = options.seconds;
        record["trace"] = options.trace;
        record["correct"] = correct;
        record["attempted"] = checks.attempted;
        record["failed"] = checks.failed;
        record["problems"] = std::move(problems);
        record["metrics"] = std::move(all);
        if (!writeText(options.record, record.dump(2) + "\n")) {
            std::fprintf(stderr, "cannot write %s\n", options.record.c_str());
            return 2;
        }
    }

    Json line = Json::object();
    line["correct"] = correct;
    line["attempted"] = checks.attempted;
    line["failed"] = checks.failed;
    line["metrics"] = std::move(listed);
    std::printf("%s\n", line.dump().c_str());
    return correct ? 0 : 1;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dhisq_benchmark run --workload W [--seed N] [--seconds S] "
        "[--trace 0|1] --out DIR [--record FILE]\n"
        "       dhisq_benchmark report DIR\n"
        "       dhisq_benchmark compare PARENT_DIR CHANGE_DIR\n"
        "       dhisq_benchmark selftest\n"
        "workloads:");
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    const std::string &command = args[0];
    if (command == "run") {
        RunOptions options;
        return parseRun(args, options) ? runCommand(options) : usage();
    }
    if (command == "selftest" && args.size() == 1)
        return selftest();
    const bool is_report = command == "report" && args.size() == 2;
    if (!is_report && !(command == "compare" && args.size() == 3))
        return usage();
    const Result<Spec> spec = loadSpec(kSpecPath);
    if (!spec) {
        std::fprintf(stderr, "%s\n", spec.message().c_str());
        return 2;
    }
    return is_report ? report(args[1], spec.value())
                     : compare(args[1], args[2], spec.value());
}
