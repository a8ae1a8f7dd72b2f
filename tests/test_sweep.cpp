/**
 * @file
 * Tests for the parallel sweep harness: grid expansion order, runner
 * aggregation and thread-count independence, point health semantics, and
 * the BENCH_*.json report writer.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "sweep/cli.hpp"
#include "sweep/exec.hpp"
#include "sweep/grid.hpp"
#include "sweep/regress.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

namespace dhisq::sweep {
namespace {

GridSpec
smallGrid()
{
    GridSpec grid;
    CircuitSpec rand_circuit;
    rand_circuit.kind = CircuitSpec::Kind::kRandomDynamic;
    rand_circuit.random.qubits = 6;
    rand_circuit.random.layers = 4;
    rand_circuit.random.feedback_fraction = 0.5;
    rand_circuit.random.seed = 11;
    rand_circuit.expand_fraction = 1.0;
    rand_circuit.expand_seed = 3;
    grid.circuits.push_back(rand_circuit);

    CircuitSpec chain;
    chain.kind = CircuitSpec::Kind::kLrCnotChain;
    chain.qubits = 5;
    grid.circuits.push_back(chain);

    grid.schemes = {compiler::SyncScheme::kLockStep,
                    compiler::SyncScheme::kBisp};
    grid.seeds = {1, 7};
    return grid;
}

TEST(Grid, ExpandOrderIsCircuitMajor)
{
    const auto points = expandGrid(smallGrid());
    ASSERT_EQ(points.size(), 2u * 2u * 2u);
    // circuit-major, then scheme, then qpc, then seed.
    EXPECT_EQ(points[0].label(), "rand_q6_l4_f0.5_s11/lockstep");
    EXPECT_EQ(points[1].label(), "rand_q6_l4_f0.5_s11/lockstep/s7");
    EXPECT_EQ(points[2].label(), "rand_q6_l4_f0.5_s11/bisp");
    EXPECT_EQ(points[4].label(), "lrcnot_chain_n5/lockstep");
    EXPECT_EQ(points[7].label(), "lrcnot_chain_n5/bisp/s7");
}

TEST(Grid, CircuitSpecBuildIsDeterministic)
{
    const auto spec = smallGrid().circuits[0];
    const auto a = spec.build();
    const auto b = spec.build();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.numQubits(), b.numQubits());
}

TEST(Grid, RunPointFillsStandardMetrics)
{
    ExperimentPoint point;
    point.circuit.kind = CircuitSpec::Kind::kLrCnotChain;
    point.circuit.qubits = 5;
    point.config.scheme = compiler::SyncScheme::kBisp;
    const auto r = runPoint(point);
    EXPECT_TRUE(r.healthy);
    EXPECT_EQ(r.health, "ok");
    for (const char *key :
         {"makespan_cycles", "makespan_us", "violations", "coincidence",
          "syncs", "deadlock", "events", "controllers", "live_cycles"}) {
        EXPECT_TRUE(r.metrics.contains(key)) << key;
    }
    EXPECT_GT(r.metrics.find("makespan_cycles")->asInt(), 0);
    EXPECT_EQ(r.params.find("scheme")->asString(), "bisp");
}

TEST(Grid, MetricsHookExtends)
{
    ExperimentPoint point;
    point.circuit.kind = CircuitSpec::Kind::kLrCnotChain;
    point.circuit.qubits = 5;
    const auto r = runPoint(point, [](const ExecResult &exec,
                                      PointResult &out) {
        out.metrics["extra_live"] = exec.activity.totalLiveCycles();
    });
    ASSERT_TRUE(r.metrics.contains("extra_live"));
    EXPECT_EQ(r.metrics.find("extra_live")->asInt(),
              r.metrics.find("live_cycles")->asInt());
}

TEST(Runner, ResultsArriveInTaskOrder)
{
    std::vector<SweepTask> tasks;
    for (int i = 0; i < 20; ++i) {
        tasks.push_back(SweepTask{prefixedNumber("t", unsigned(i)), [i] {
                                      PointResult r;
                                      r.label =
                                          prefixedNumber("t", unsigned(i));
                                      r.metrics["i"] = i;
                                      return r;
                                  }});
    }
    SweepRunner::Options opt;
    opt.threads = 8;
    opt.verify_points = 2;
    const auto results = SweepRunner(opt).run(tasks);
    ASSERT_EQ(results.size(), tasks.size());
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(results[std::size_t(i)].metrics.find("i")->asInt(), i);
    }
}

TEST(Runner, EveryTaskRunsExactlyOnceAcrossThreads)
{
    std::atomic<int> calls{0};
    std::vector<SweepTask> tasks;
    for (int i = 0; i < 50; ++i) {
        tasks.push_back(SweepTask{prefixedNumber("c", unsigned(i)),
                                  [&calls] {
                                      calls.fetch_add(1);
                                      return PointResult{};
                                  }});
    }
    SweepRunner::Options opt;
    opt.threads = 4;
    opt.verify_points = 0; // a verify re-run would double-count
    SweepRunner(opt).run(tasks);
    EXPECT_EQ(calls.load(), 50);
}

/** The acceptance property: same grid, same results, any thread count. */
TEST(Runner, ThreadCountDoesNotChangeResults)
{
    const auto points = expandGrid(smallGrid());
    const auto tasks = makeTasks(points);

    SweepRunner::Options serial;
    serial.threads = 1;
    const auto r1 = SweepRunner(serial).run(tasks);

    SweepRunner::Options parallel;
    parallel.threads = 8;
    parallel.verify_points = unsigned(tasks.size()); // re-check them all
    const auto r8 = SweepRunner(parallel).run(tasks);

    ASSERT_EQ(r1.size(), r8.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].toJson().dump(), r8[i].toJson().dump())
            << "point " << i << " differs with threads=8";
    }
}

TEST(Runner, AllHealthy)
{
    std::vector<PointResult> results(2);
    EXPECT_TRUE(SweepRunner::allHealthy(results));
    results[1].healthy = false;
    EXPECT_FALSE(SweepRunner::allHealthy(results));
}

TEST(Report, ToJsonSchema)
{
    BenchReport report;
    report.bench = "unit_test";
    report.config["knob"] = 3;
    PointResult p;
    p.label = "p0";
    p.metrics["makespan_cycles"] = 17;
    report.points.push_back(p);
    report.derived["avg"] = 1.5;

    const Json j = report.toJson();
    EXPECT_EQ(j.find("schema")->asString(), "dhisq-bench-v1");
    EXPECT_EQ(j.find("bench")->asString(), "unit_test");
    EXPECT_EQ(j.find("points")->size(), 1u);
    EXPECT_TRUE(j.find("healthy")->asBool());
    EXPECT_EQ(j.find("points")
                  ->at(0)
                  .find("metrics")
                  ->find("makespan_cycles")
                  ->asInt(),
              17);
}

TEST(Report, WriteAndReparse)
{
    BenchReport report;
    report.bench = "roundtrip";
    PointResult p;
    p.label = "only";
    p.params["scheme"] = "bisp";
    p.metrics["makespan_us"] = 12.5;
    report.points.push_back(p);

    const std::string path =
        ::testing::TempDir() + "dhisq_test_report.json";
    ASSERT_TRUE(writeBenchJson(path, report).isOk());

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    std::remove(path.c_str());

    auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.isOk()) << parsed.message();
    EXPECT_EQ(*parsed.value().find("bench"), Json("roundtrip"));
    EXPECT_EQ(parsed.value()
                  .find("points")
                  ->at(0)
                  .find("params")
                  ->find("scheme")
                  ->asString(),
              "bisp");
}

TEST(Report, WriteFailsOnBadPath)
{
    BenchReport report;
    // Assign through a named value: GCC 12's -Wrestrict false-positives
    // on short-string-literal assignment once surrounding inlining
    // changes (same class of noise PR 1 silenced in src/).
    const std::string name = "x";
    report.bench = name;
    EXPECT_FALSE(
        writeBenchJson("/nonexistent-dir/nope/x.json", report).isOk());
}

TEST(Cli, ParsesFlags)
{
    const char *argv[] = {"bench", "--json", "out.json", "--threads", "8",
                          "--quick"};
    auto parsed = parseCli(6, const_cast<char **>(argv));
    ASSERT_TRUE(parsed.isOk());
    EXPECT_EQ(parsed.value().json_path, "out.json");
    EXPECT_EQ(parsed.value().threads, 8u);
    EXPECT_TRUE(parsed.value().quick);
}

TEST(Grid, TopologyAxisExpandsBetweenSchemeAndQpc)
{
    GridSpec grid;
    CircuitSpec chain;
    chain.kind = CircuitSpec::Kind::kLrCnotChain;
    chain.qubits = 5;
    grid.circuits.push_back(chain);
    grid.schemes = {compiler::SyncScheme::kBisp};
    grid.topologies = {net::TopologyShape::kLine,
                       net::TopologyShape::kRing,
                       net::TopologyShape::kStar};
    grid.qubits_per_controller = {1, 2};

    const auto points = expandGrid(grid);
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].label(), "lrcnot_chain_n5/bisp");
    EXPECT_EQ(points[1].label(), "lrcnot_chain_n5/bisp/qpc2");
    EXPECT_EQ(points[2].label(), "lrcnot_chain_n5/bisp/ring");
    EXPECT_EQ(points[3].label(), "lrcnot_chain_n5/bisp/ring/qpc2");
    EXPECT_EQ(points[4].label(), "lrcnot_chain_n5/bisp/star");
    EXPECT_EQ(points[5].label(), "lrcnot_chain_n5/bisp/star/qpc2");
}

TEST(Grid, RunPointRecordsTopologyParam)
{
    ExperimentPoint point;
    point.circuit.kind = CircuitSpec::Kind::kLrCnotChain;
    point.circuit.qubits = 5;
    point.topology = net::TopologyShape::kRing;
    const auto r = runPoint(point);
    EXPECT_TRUE(r.healthy);
    EXPECT_EQ(r.params.find("topology")->asString(), "ring");
}

TEST(Grid, EveryShapeRunsHealthy)
{
    for (const auto shape : net::allTopologyShapes()) {
        ExperimentPoint point;
        point.circuit.kind = CircuitSpec::Kind::kLrCnotChain;
        point.circuit.qubits = 7;
        point.config.repetitions = 2;
        point.topology = shape;
        const auto r = runPoint(point);
        EXPECT_TRUE(r.healthy) << net::toString(shape) << ": " << r.health;
        EXPECT_GT(r.metrics.find("syncs")->asInt(), 0)
            << net::toString(shape);
    }
}

TEST(Cli, RejectsBadInput)
{
    {
        const char *argv[] = {"bench", "--threads", "zero"};
        EXPECT_FALSE(parseCli(3, const_cast<char **>(argv)).isOk());
    }
    {
        const char *argv[] = {"bench", "--threads"};
        EXPECT_FALSE(parseCli(2, const_cast<char **>(argv)).isOk());
    }
    {
        const char *argv[] = {"bench", "--wat"};
        EXPECT_FALSE(parseCli(2, const_cast<char **>(argv)).isOk());
    }
    {
        const char *argv[] = {"bench"};
        auto parsed = parseCli(1, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        EXPECT_EQ(parsed.value().threads, 1u);
        EXPECT_TRUE(parsed.value().json_path.empty());
        EXPECT_FALSE(parsed.value().list);
        EXPECT_TRUE(parsed.value().topologies.empty());
    }
}

TEST(Cli, ParsesTopologyAxisSelection)
{
    {
        const char *argv[] = {"bench", "--topology", "ring", "--topology",
                              "star", "--topology", "ring"};
        auto parsed = parseCli(7, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        // Duplicates collapse; order of first mention is kept.
        ASSERT_EQ(parsed.value().topologies.size(), 2u);
        EXPECT_EQ(parsed.value().topologies[0],
                  net::TopologyShape::kRing);
        EXPECT_EQ(parsed.value().topologies[1],
                  net::TopologyShape::kStar);
    }
    {
        const char *argv[] = {"bench", "--topology", "all"};
        auto parsed = parseCli(3, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        EXPECT_EQ(parsed.value().topologies.size(),
                  net::allTopologyShapes().size());
    }
    {
        const char *argv[] = {"bench", "--topology", "moebius"};
        EXPECT_FALSE(parseCli(3, const_cast<char **>(argv)).isOk());
    }
    {
        const char *argv[] = {"bench", "--topology"};
        EXPECT_FALSE(parseCli(2, const_cast<char **>(argv)).isOk());
    }
}

TEST(Cli, ParsesPlacementAndLatencyModelAxes)
{
    {
        const char *argv[] = {"bench",           "--placement",
                              "kl-mincut",       "--placement",
                              "greedy-affinity", "--placement",
                              "kl-mincut"};
        auto parsed = parseCli(7, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        ASSERT_EQ(parsed.value().placements.size(), 2u);
        EXPECT_EQ(parsed.value().placements[0],
                  place::PlacementStrategy::kKlMincut);
        EXPECT_EQ(parsed.value().placements[1],
                  place::PlacementStrategy::kGreedyAffinity);
    }
    {
        const char *argv[] = {"bench", "--placement", "all",
                              "--latency-model", "all"};
        auto parsed = parseCli(5, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        EXPECT_EQ(parsed.value().placements.size(),
                  place::allPlacementStrategies().size());
        EXPECT_EQ(parsed.value().latency_models.size(),
                  net::allLinkLatencyModels().size());
    }
    {
        const char *argv[] = {"bench", "--latency-model", "jitter"};
        auto parsed = parseCli(3, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        ASSERT_EQ(parsed.value().latency_models.size(), 1u);
        EXPECT_EQ(parsed.value().latency_models[0],
                  net::LinkLatencyModel::kSeededJitter);
    }
    {
        const char *argv[] = {"bench", "--placement", "anneal"};
        EXPECT_FALSE(parseCli(3, const_cast<char **>(argv)).isOk());
    }
    {
        const char *argv[] = {"bench", "--latency-model"};
        EXPECT_FALSE(parseCli(2, const_cast<char **>(argv)).isOk());
    }
}

TEST(Cli, ParsesPolicyAndTreeArityAxes)
{
    {
        const char *argv[] = {"bench",  "--policy",     "paper",
                              "--tree-arity", "8", "--tree-arity", "2"};
        auto parsed = parseCli(7, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        ASSERT_EQ(parsed.value().policies.size(), 1u);
        EXPECT_EQ(parsed.value().policies[0], net::RouterPolicy::Paper);
        ASSERT_EQ(parsed.value().tree_arities.size(), 2u);
        EXPECT_EQ(parsed.value().tree_arities[0], 8u);
        EXPECT_EQ(parsed.value().tree_arities[1], 2u);
    }
    {
        const char *argv[] = {"bench", "--policy", "all"};
        auto parsed = parseCli(3, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        EXPECT_EQ(parsed.value().policies.size(), 2u);
    }
    {
        const char *argv[] = {"bench", "--tree-arity", "1"};
        EXPECT_FALSE(parseCli(3, const_cast<char **>(argv)).isOk());
    }
    {
        const char *argv[] = {"bench", "--policy", "fastest"};
        EXPECT_FALSE(parseCli(3, const_cast<char **>(argv)).isOk());
    }
}

TEST(Grid, PlacementAxisExpandsAndLabels)
{
    GridSpec grid;
    CircuitSpec chain;
    chain.kind = CircuitSpec::Kind::kLrCnotChain;
    chain.qubits = 5;
    grid.circuits.push_back(chain);
    grid.schemes = {compiler::SyncScheme::kBisp};
    grid.topologies = {net::TopologyShape::kTorus};
    grid.placements = place::allPlacementStrategies();
    grid.latency_models = {net::LinkLatencyModel::kUniform,
                           net::LinkLatencyModel::kDistanceScaled};
    grid.policies = {net::RouterPolicy::Robust, net::RouterPolicy::Paper};
    grid.tree_arities = {4, 2};

    const auto points = expandGrid(grid);
    ASSERT_EQ(points.size(), 3u * 2u * 2u * 2u);
    EXPECT_EQ(points[0].label(), "lrcnot_chain_n5/bisp/torus");
    EXPECT_EQ(points[1].label(), "lrcnot_chain_n5/bisp/torus/arity2");
    EXPECT_EQ(points[2].label(), "lrcnot_chain_n5/bisp/torus/paper");
    EXPECT_EQ(points[4].label(),
              "lrcnot_chain_n5/bisp/torus/distance_scaled");
    EXPECT_EQ(points[8].label(),
              "lrcnot_chain_n5/bisp/torus/greedy-affinity");
    EXPECT_EQ(
        points[15].label(),
        "lrcnot_chain_n5/bisp/torus/greedy-affinity/distance_scaled/"
        "paper/arity2");
}

TEST(Grid, RunPointOmitsDefaultAxisParams)
{
    // Byte-compat contract: grids that do not use the new axes must emit
    // exactly the PR 3 params.
    ExperimentPoint point;
    point.circuit.kind = CircuitSpec::Kind::kLrCnotChain;
    point.circuit.qubits = 5;
    const auto r = runPoint(point);
    for (const char *key :
         {"placement", "latency_model", "clustering", "policy",
          "tree_arity"}) {
        EXPECT_FALSE(r.params.contains(key)) << key;
    }

    ExperimentPoint tuned = point;
    tuned.config.placement = place::PlacementStrategy::kKlMincut;
    tuned.latency_model = net::LinkLatencyModel::kDistanceScaled;
    tuned.clustering = net::RouterClustering::kLocality;
    tuned.policy = net::RouterPolicy::Paper;
    tuned.tree_arity = 2;
    tuned.topology = net::TopologyShape::kTorus;
    const auto t = runPoint(tuned);
    EXPECT_TRUE(t.healthy);
    EXPECT_EQ(t.params.find("placement")->asString(), "kl-mincut");
    EXPECT_EQ(t.params.find("latency_model")->asString(),
              "distance_scaled");
    EXPECT_EQ(t.params.find("clustering")->asString(), "locality");
    EXPECT_EQ(t.params.find("policy")->asString(), "paper");
    EXPECT_EQ(t.params.find("tree_arity")->asInt(), 2);
}

TEST(Cli, ParsesClusteringAndRoutingAxes)
{
    {
        const char *argv[] = {"bench",      "--clustering", "locality",
                              "--routing",  "swap",         "--routing",
                              "swap"};
        auto parsed = parseCli(7, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        ASSERT_EQ(parsed.value().clusterings.size(), 1u);
        EXPECT_EQ(parsed.value().clusterings[0],
                  net::RouterClustering::kLocality);
        ASSERT_EQ(parsed.value().routings.size(), 1u);
        EXPECT_EQ(parsed.value().routings[0],
                  compiler::RoutingMode::kSwap);
    }
    {
        const char *argv[] = {"bench", "--clustering", "all",
                              "--routing", "all"};
        auto parsed = parseCli(5, const_cast<char **>(argv));
        ASSERT_TRUE(parsed.isOk());
        EXPECT_EQ(parsed.value().clusterings.size(), 2u);
        EXPECT_EQ(parsed.value().routings.size(),
                  compiler::allRoutingModes().size());
    }
    {
        const char *argv[] = {"bench", "--clustering", "diagonal"};
        EXPECT_FALSE(parseCli(3, const_cast<char **>(argv)).isOk());
    }
    {
        const char *argv[] = {"bench", "--routing", "teleport"};
        EXPECT_FALSE(parseCli(3, const_cast<char **>(argv)).isOk());
    }
    {
        const char *argv[] = {"bench", "--routing"};
        EXPECT_FALSE(parseCli(2, const_cast<char **>(argv)).isOk());
    }
}

TEST(Grid, RoutingAxisExpandsAndLabels)
{
    GridSpec grid;
    CircuitSpec chain;
    chain.kind = CircuitSpec::Kind::kLrCnotChain;
    chain.qubits = 5;
    grid.circuits.push_back(chain);
    grid.schemes = {compiler::SyncScheme::kBisp};
    grid.routings = {compiler::RoutingMode::kNone,
                     compiler::RoutingMode::kSwap};
    grid.controllers = 3;

    const auto points = expandGrid(grid);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].label(), "lrcnot_chain_n5/bisp/c3");
    EXPECT_EQ(points[1].label(), "lrcnot_chain_n5/bisp/routed-swap/c3");
    EXPECT_EQ(points[0].config.routing, compiler::RoutingMode::kNone);
    EXPECT_EQ(points[1].config.routing, compiler::RoutingMode::kSwap);
    EXPECT_EQ(points[0].controllers, 3u);
}

TEST(Grid, RunPointOmitsRoutingParamsAtDefaults)
{
    ExperimentPoint point;
    point.circuit.kind = CircuitSpec::Kind::kLrCnotChain;
    point.circuit.qubits = 5;
    const auto r = runPoint(point);
    EXPECT_FALSE(r.params.contains("routing"));
    EXPECT_FALSE(r.params.contains("controllers"));
    EXPECT_FALSE(r.metrics.contains("swaps_inserted"));

    ExperimentPoint routed = point;
    routed.config.routing = compiler::RoutingMode::kSwap;
    routed.controllers = 3;
    const auto t = runPoint(routed);
    EXPECT_TRUE(t.healthy) << t.health;
    EXPECT_EQ(t.params.find("routing")->asString(), "swap");
    EXPECT_EQ(t.params.find("controllers")->asInt(), 3);
    EXPECT_TRUE(t.metrics.contains("swaps_inserted"));
}

TEST(Grid, OverCapacityWithoutRoutingReportsRejected)
{
    ExperimentPoint point;
    point.circuit.kind = CircuitSpec::Kind::kLrCnotChain;
    point.circuit.qubits = 9;
    point.controllers = 4; // capacity 4 < 9 qubits
    const auto r = runPoint(point);
    EXPECT_FALSE(r.healthy);
    EXPECT_EQ(r.health.rfind("rejected:", 0), 0u) << r.health;

    ExperimentPoint routed = point;
    routed.config.routing = compiler::RoutingMode::kSwap;
    const auto t = runPoint(routed);
    EXPECT_TRUE(t.healthy) << t.health;
}

TEST(Exec, ZeroQubitsPerControllerIsRejectedNotDivided)
{
    CircuitSpec spec;
    spec.kind = CircuitSpec::Kind::kLrCnotChain;
    spec.qubits = 5;
    compiler::CompilerConfig cc;
    cc.qubits_per_controller = 0;
    const ExecResult r = executeWith(spec.build(), cc, ExecOptions{});
    EXPECT_TRUE(r.rejected);
    EXPECT_NE(r.reject_reason.find("qubits_per_controller"),
              std::string::npos)
        << r.reject_reason;
}

TEST(Grid, RoutingStressCircuitSpecBuilds)
{
    CircuitSpec spec;
    spec.kind = CircuitSpec::Kind::kRoutingStress;
    spec.routing_stress.qubits = 10;
    spec.routing_stress.stride = 4;
    spec.routing_stress.seed = 3;
    EXPECT_EQ(spec.id(), "routing_stress_n10_d4_s3");
    const auto circuit = spec.build();
    EXPECT_EQ(circuit.numQubits(), 10u);
    EXPECT_GT(circuit.countTwoQubit(), 0u);
}

TEST(Grid, GhzFanoutCircuitSpecBuilds)
{
    CircuitSpec spec;
    spec.kind = CircuitSpec::Kind::kGhzFanout;
    spec.qubits = 8;
    spec.expand_fraction = 1.0;
    EXPECT_EQ(spec.id(), "ghz_fanout_n8");
    const auto circuit = spec.build();
    EXPECT_EQ(circuit.numQubits(), 8u);
    EXPECT_GT(circuit.size(), 8u); // expansion adds the dynamic chains
}

TEST(Cli, ParsesListFlag)
{
    const char *argv[] = {"bench", "--list", "--quick"};
    auto parsed = parseCli(3, const_cast<char **>(argv));
    ASSERT_TRUE(parsed.isOk());
    EXPECT_TRUE(parsed.value().list);
    EXPECT_TRUE(parsed.value().quick);
}

// ---- Baseline regression gate -------------------------------------------

namespace {

Json
benchDoc(long long makespan, bool healthy = true,
         const char *label = "p0")
{
    BenchReport report;
    report.bench = "regress_test";
    PointResult p;
    p.label = label;
    p.metrics["makespan_cycles"] = makespan;
    p.healthy = healthy;
    p.health = healthy ? "ok" : "deadlock";
    report.points.push_back(std::move(p));
    return report.toJson();
}

} // namespace

TEST(Regress, IdenticalReportsPass)
{
    const Json doc = benchDoc(1000);
    auto r = compareBenchReports(doc, doc, 0.15);
    ASSERT_TRUE(r.isOk()) << r.message();
    EXPECT_TRUE(r.value().ok());
    EXPECT_EQ(r.value().compared_points, 1u);
    EXPECT_GE(r.value().compared_metrics, 1u);
}

TEST(Regress, WithinThresholdPasses)
{
    auto r = compareBenchReports(benchDoc(1000), benchDoc(1100), 0.15);
    ASSERT_TRUE(r.isOk());
    EXPECT_TRUE(r.value().ok());
}

TEST(Regress, BeyondThresholdFails)
{
    auto r = compareBenchReports(benchDoc(1000), benchDoc(1200), 0.15);
    ASSERT_TRUE(r.isOk());
    ASSERT_EQ(r.value().regressions.size(), 1u);
    EXPECT_EQ(r.value().regressions[0].metric, "makespan_cycles");
    EXPECT_DOUBLE_EQ(r.value().regressions[0].ratio, 1.2);
}

TEST(Regress, ThresholdIsOverridable)
{
    auto r = compareBenchReports(benchDoc(1000), benchDoc(1200), 0.30);
    ASSERT_TRUE(r.isOk());
    EXPECT_TRUE(r.value().ok());
}

TEST(Regress, ImprovementNeverFails)
{
    auto r = compareBenchReports(benchDoc(1000), benchDoc(400), 0.15);
    ASSERT_TRUE(r.isOk());
    EXPECT_TRUE(r.value().ok());
}

TEST(Regress, HealthyToUnhealthyFails)
{
    auto r = compareBenchReports(benchDoc(1000),
                                 benchDoc(1000, /*healthy=*/false), 0.15);
    ASSERT_TRUE(r.isOk());
    ASSERT_EQ(r.value().regressions.size(), 1u);
    EXPECT_EQ(r.value().regressions[0].metric, "healthy -> unhealthy");
}

TEST(Regress, MissingPointFailsNewPointIsANote)
{
    const Json baseline = benchDoc(1000, true, "old_point");
    const Json current = benchDoc(1000, true, "new_point");
    auto r = compareBenchReports(baseline, current, 0.15);
    ASSERT_TRUE(r.isOk());
    ASSERT_EQ(r.value().regressions.size(), 1u);
    EXPECT_EQ(r.value().regressions[0].label, "old_point");
    ASSERT_EQ(r.value().notes.size(), 1u);
    EXPECT_NE(r.value().notes[0].find("new_point"), std::string::npos);
}

namespace {

/** One-point report with an arbitrary (or no) metric. */
Json
benchDocMetric(const char *metric_key, double value)
{
    BenchReport report;
    report.bench = "regress_test";
    PointResult p;
    p.label = "p0";
    if (metric_key != nullptr)
        p.metrics[metric_key] = value;
    report.points.push_back(std::move(p));
    return report.toJson();
}

} // namespace

TEST(Regress, TrackedMetricOnlyInBaselineFails)
{
    // A current run that silently stops emitting a tracked metric must
    // not pass — it would hide every future regression of that metric.
    auto r = compareBenchReports(benchDocMetric("makespan_cycles", 1000),
                                 benchDocMetric(nullptr, 0), 0.15);
    ASSERT_TRUE(r.isOk());
    ASSERT_EQ(r.value().regressions.size(), 1u);
    EXPECT_NE(r.value().regressions[0].metric.find(
                  "present only in baseline"),
              std::string::npos);
}

TEST(Regress, TrackedMetricOnlyInCurrentFails)
{
    // The other direction too: a metric the baseline never recorded is
    // un-gated, so the mismatch must be surfaced, not skipped.
    auto r = compareBenchReports(benchDocMetric(nullptr, 0),
                                 benchDocMetric("makespan_cycles", 1000),
                                 0.15);
    ASSERT_TRUE(r.isOk());
    ASSERT_EQ(r.value().regressions.size(), 1u);
    EXPECT_NE(r.value().regressions[0].metric.find(
                  "present only in current"),
              std::string::npos);
}

TEST(Regress, UntrackedMetricsAreNeverCompared)
{
    // Wall-clock rates (reqs_per_sec and friends) are noise by design:
    // absent, present, or wildly different, they never gate.
    auto r = compareBenchReports(benchDocMetric("reqs_per_sec", 5000.0),
                                 benchDocMetric("reqs_per_sec", 5.0),
                                 0.15);
    ASSERT_TRUE(r.isOk());
    EXPECT_TRUE(r.value().ok());

    auto one_sided = compareBenchReports(
        benchDocMetric("reqs_per_sec", 5000.0), benchDocMetric(nullptr, 0),
        0.15);
    ASSERT_TRUE(one_sided.isOk());
    EXPECT_TRUE(one_sided.value().ok());
}

TEST(Regress, RejectsWrongSchema)
{
    Json bogus = Json::object();
    bogus["schema"] = "not-a-bench";
    EXPECT_FALSE(compareBenchReports(bogus, benchDoc(1), 0.15).isOk());
    EXPECT_FALSE(compareBenchReports(benchDoc(1), bogus, 0.15).isOk());
    EXPECT_FALSE(
        compareBenchReports(benchDoc(1), benchDoc(1), -0.5).isOk());
}

} // namespace
} // namespace dhisq::sweep
