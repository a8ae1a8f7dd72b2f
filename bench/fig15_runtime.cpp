/**
 * @file
 * Figure 15 reproduction: normalized end-to-end runtime of Distributed-HISQ
 * (BISP) against the lock-step baseline on the converted dynamic-circuit
 * benchmark suite (adder, bv, logical_t, qft, w_state at the paper's
 * sizes). The paper reports an average normalized runtime of 0.772
 * (a 22.8% reduction), with `bv` the one case the baseline wins because of
 * its optimistic constant-latency broadcast assumption.
 *
 * Runs on the parallel sweep harness: `--threads N` distributes the grid
 * across workers (results are asserted identical to a serial run),
 * `--json <path>` emits the dhisq-bench-v1 report, `--quick` shrinks the
 * instances for the CI smoke job. Exits nonzero on deadlock or a BISP
 * coincidence (commitment-guarantee) break.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sweep/cli.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"

using namespace dhisq;

int
main(int argc, char **argv)
{
    const auto cli = sweep::parseCliOrExit(argc, argv);

    const std::vector<std::string> names =
        cli.quick ? std::vector<std::string>{"adder_n97", "bv_n60",
                                             "logical_t_n108", "qft_n30",
                                             "w_state_n80"}
                  : workloads::figure15Names();

    sweep::GridSpec grid;
    for (const auto &name : names) {
        sweep::CircuitSpec spec;
        spec.kind = sweep::CircuitSpec::Kind::kFigure15;
        spec.name = name;
        spec.expand_fraction = 1.0;
        spec.expand_seed = 2025;
        grid.circuits.push_back(std::move(spec));
    }
    // Scheme is the inner axis: points land as [baseline, dhisq] pairs.
    grid.schemes = {compiler::SyncScheme::kLockStep,
                    compiler::SyncScheme::kBisp};
    if (!cli.topologies.empty())
        grid.topologies = cli.topologies;

    const auto tasks = sweep::makeTasks(sweep::expandGrid(grid));
    if (cli.list) {
        sweep::listTasks(tasks);
        return 0;
    }

    sweep::SweepRunner::Options ropt;
    ropt.threads = cli.threads;
    sweep::SweepRunner runner(ropt);
    const auto results = runner.run(tasks);

    bench::headline(
        "Figure 15: normalized runtime, Distributed-HISQ vs lock-step");
    std::printf("%-16s %14s %14s %12s %20s\n", "benchmark",
                "baseline(us)", "dhisq(us)", "normalized",
                "b-slip/b-coin/d-slip");

    sweep::BenchReport report;
    report.bench = "fig15_runtime";
    report.config["suite"] = cli.quick ? "quick" : "paper";
    report.points = results;

    Json normalized = Json::array();
    double sum_norm = 0.0;
    unsigned count = 0;
    bool unhealthy = false;

    // Axis order is circuit > scheme > topology: each circuit contributes
    // a block of [lockstep x topologies..., bisp x topologies...], so the
    // baseline/dhisq partner sits one topology-axis stride apart.
    const std::size_t stride = grid.topologies.size();
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t block = 0; block + 2 * stride <= results.size();
         block += 2 * stride) {
        for (std::size_t t = 0; t < stride; ++t)
            pairs.emplace_back(block + t, block + stride + t);
    }
    for (const auto &[base_i, hisq_i] : pairs) {
        const auto &base = results[base_i];
        const auto &hisq = results[hisq_i];
        std::string name = base.params.find("workload")->asString();
        const std::string &topo =
            base.params.find("topology")->asString();
        if (topo != "line")
            name += "/" + topo;
        const double base_us =
            base.metrics.find("makespan_us")->asDouble();
        const double hisq_us =
            hisq.metrics.find("makespan_us")->asDouble();

        char health[48];
        char norm_text[24];
        Json norm_value; // null = n/a
        if (!base.healthy || !hisq.healthy) {
            // BISP's cycle-level commitment guarantee must never break,
            // and nothing may deadlock.
            std::snprintf(health, sizeof(health), "%s",
                          !hisq.healthy ? hisq.health.c_str()
                                        : base.health.c_str());
            std::snprintf(norm_text, sizeof(norm_text), "n/a");
            unhealthy = true;
        } else if (base_us <= 0.0) {
            // An empty baseline makespan makes "normalized" meaningless;
            // report n/a instead of printing inf/nan.
            std::snprintf(health, sizeof(health), "empty-baseline");
            std::snprintf(norm_text, sizeof(norm_text), "n/a");
        } else {
            const double norm = hisq_us / base_us;
            sum_norm += norm;
            ++count;
            norm_value = norm;
            std::snprintf(norm_text, sizeof(norm_text), "%.3f", norm);
            // The baseline's slips are the issue-rate pressure the
            // paper's Section 1.1 attributes to lock-step distribution.
            const auto slips = [](const sweep::PointResult &r) {
                return (unsigned long long)(r.metrics.find("violations")
                                                ->asInt() -
                                            r.metrics.find("coincidence")
                                                ->asInt());
            };
            std::snprintf(
                health, sizeof(health), "%llu/%llu/%llu", slips(base),
                (unsigned long long)base.metrics.find("coincidence")
                    ->asInt(),
                slips(hisq));
        }
        std::printf("%-16s %14.2f %14.2f %12s %20s\n", name.c_str(),
                    base_us, hisq_us, norm_text, health);

        Json entry = Json::object();
        entry["workload"] = name;
        entry["normalized"] = norm_value;
        normalized.push(std::move(entry));
    }

    if (count > 0) {
        std::printf("%-16s %14s %14s %12.3f\n", "avg", "", "",
                    sum_norm / count);
        report.derived["avg_normalized"] = sum_norm / count;
    } else {
        std::printf("%-16s %14s %14s %12s\n", "avg", "", "", "n/a");
        report.derived["avg_normalized"] = nullptr;
    }
    report.derived["normalized"] = std::move(normalized);
    std::printf("\npaper: avg normalized runtime 0.772 "
                "(22.8%% reduction); bv favours the baseline\n");

    if (!cli.json_path.empty()) {
        if (auto st = sweep::writeBenchJson(cli.json_path, report); !st) {
            std::fprintf(stderr, "%s\n", st.message().c_str());
            return 1;
        }
    }
    return (unhealthy || !report.allHealthy()) ? 1 : 0;
}
