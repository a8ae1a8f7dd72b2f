/**
 * @file
 * JobServer tests: batched submission over the compile cache — request-
 * order results, compile-only jobs, failure isolation, deterministic
 * cache aggregates, and the core contract that per-job outcomes are
 * byte-identical whether the cache is off, on, or the pool is threaded.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/job_server.hpp"

namespace dhisq::service {
namespace {

JobRequest
vqeJob(unsigned iteration, unsigned qubits = 6)
{
    JobRequest req;
    req.circuit.kind = sweep::CircuitSpec::Kind::kVqeSweep;
    req.circuit.vqe.qubits = qubits;
    req.circuit.vqe.layers = 2;
    req.circuit.vqe.iteration = iteration;
    return req;
}

JobRequest
ghzJob(unsigned qubits = 6)
{
    JobRequest req;
    req.circuit.kind = sweep::CircuitSpec::Kind::kGhzFanout;
    req.circuit.qubits = qubits;
    // Expand the non-adjacent fan-out CNOTs into dynamic chains so the
    // job runs on the default line topology without SWAP routing.
    req.circuit.expand_fraction = 1.0;
    return req;
}

std::string
serialize(const std::vector<JobResult> &results)
{
    std::string out;
    for (const auto &r : results)
        out += r.toJson().dump() + "\n";
    return out;
}

JobServer
makeServer(compiler::CacheMode cache, unsigned threads = 1)
{
    compiler::cache::CompileCache::global().clear();
    JobServer::Options options;
    options.threads = threads;
    options.cache = cache;
    return JobServer(options);
}

TEST(Service, ResultsComeBackInRequestOrder)
{
    auto server = makeServer(compiler::CacheMode::kMemory, /*threads=*/4);
    std::vector<JobRequest> batch;
    for (unsigned i = 0; i < 8; ++i) {
        JobRequest req = vqeJob(i % 3);
        req.id = "job" + std::to_string(i);
        batch.push_back(req);
    }

    const auto results = server.submit(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (unsigned i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].id, "job" + std::to_string(i));
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_GT(results[i].makespan, 0u);
        EXPECT_FALSE(results[i].measurements.empty());
    }
}

TEST(Service, IdDefaultsToTheCircuitId)
{
    auto server = makeServer(compiler::CacheMode::kMemory);
    const auto results = server.submit({vqeJob(0)});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].id, vqeJob(0).circuit.id());
}

TEST(Service, CompileOnlyJobsSkipTheSimulation)
{
    auto server = makeServer(compiler::CacheMode::kMemory);
    JobRequest req = ghzJob();
    req.run = false;

    const auto results = server.submit({req});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_GT(results[0].instructions, 0u);
    EXPECT_GT(results[0].controllers, 0u);
    EXPECT_EQ(results[0].makespan, 0u); // never ran
    EXPECT_TRUE(results[0].measurements.empty());
}

TEST(Service, CompileOnlyJobSharesTheRunJobsCacheEntry)
{
    // Lock-step bakes the hub latency into its static schedule, so a
    // compile-only job sized differently from the run would compile (and
    // cache) a different program.
    auto server = makeServer(compiler::CacheMode::kMemory);
    JobRequest compile_only = ghzJob();
    compile_only.config.scheme = compiler::SyncScheme::kLockStep;
    compile_only.run = false;
    JobRequest run = compile_only;
    run.run = true;

    const auto compiled = server.submit({compile_only});
    ASSERT_EQ(compiled.size(), 1u);
    ASSERT_TRUE(compiled[0].ok) << compiled[0].error;
    const auto ran = server.submit({run});
    ASSERT_EQ(ran.size(), 1u);
    ASSERT_TRUE(ran[0].ok) << ran[0].error;

    const auto &stats = server.lastBatchStats();
    EXPECT_EQ(stats.lookups, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_GT(compiled[0].instructions, 0u);
    EXPECT_EQ(ran[0].instructions, compiled[0].instructions);
    EXPECT_EQ(ran[0].controllers, compiled[0].controllers);
}

TEST(Service, ZeroQubitsPerControllerFailsTheJob)
{
    auto server = makeServer(compiler::CacheMode::kMemory);
    JobRequest run = ghzJob();
    run.config.qubits_per_controller = 0;
    JobRequest compile_only = run;
    compile_only.run = false;

    const auto results = server.submit({compile_only, run});
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("qubits_per_controller"), std::string::npos)
            << r.error;
    }
}

TEST(Service, DuplicateJobsCompileOnce)
{
    auto server = makeServer(compiler::CacheMode::kMemory, /*threads=*/4);
    // 3 distinct circuits, 12 requests.
    std::vector<JobRequest> batch;
    for (unsigned i = 0; i < 12; ++i)
        batch.push_back(vqeJob(i % 3));

    const auto results = server.submit(batch);
    for (const auto &r : results)
        EXPECT_TRUE(r.ok) << r.error;

    const auto &stats = server.lastBatchStats();
    EXPECT_EQ(stats.lookups, 12u);
    EXPECT_EQ(stats.misses, 3u); // = distinct keys, thread-independent
    EXPECT_EQ(stats.hits + stats.inflight_joins, 9u);

    const auto report = server.benchReport("service_test");
    EXPECT_EQ(report.derived.find("requests")->asInt(), 12);
    EXPECT_EQ(report.derived.find("cache_compiles")->asInt(), 3);
    EXPECT_DOUBLE_EQ(report.derived.find("cache_hit_ratio")->asDouble(),
                     9.0 / 12.0);
}

TEST(Service, CacheOffReportsEveryRequestAsACompile)
{
    auto server = makeServer(compiler::CacheMode::kOff);
    (void)server.submit({vqeJob(0), vqeJob(0), vqeJob(1)});
    const auto report = server.benchReport("service_test");
    EXPECT_EQ(report.derived.find("cache_lookups")->asInt(), 0);
    EXPECT_EQ(report.derived.find("cache_compiles")->asInt(), 3);
    EXPECT_DOUBLE_EQ(report.derived.find("cache_hit_ratio")->asDouble(),
                     0.0);
}

TEST(Service, OutcomesAreIdenticalAcrossCacheModesAndThreads)
{
    // The determinism contract behind the bench's byte-compare: same
    // batch, any cache mode, any thread count -> same serialized results.
    std::vector<JobRequest> batch;
    for (unsigned i = 0; i < 6; ++i)
        batch.push_back(vqeJob(i % 2));
    batch.push_back(ghzJob());

    auto off = makeServer(compiler::CacheMode::kOff);
    const std::string reference = serialize(off.submit(batch));

    auto memory = makeServer(compiler::CacheMode::kMemory);
    EXPECT_EQ(serialize(memory.submit(batch)), reference);

    auto threaded = makeServer(compiler::CacheMode::kMemory, /*threads=*/4);
    EXPECT_EQ(serialize(threaded.submit(batch)), reference);

    // Warm cache: resubmitting must not change outcomes either.
    EXPECT_EQ(serialize(threaded.submit(batch)), reference);
}

TEST(Service, FailingJobsAreIsolatedAndReported)
{
    auto server = makeServer(compiler::CacheMode::kMemory);
    // Two qubits per controller slot with routing off: the fan-out GHZ
    // needs non-adjacent CNOTs, which the compiler rejects structurally.
    JobRequest bad = ghzJob(9);
    bad.id = "bad";
    bad.circuit.expand_fraction = 0.0;
    bad.config.qubits_per_controller = 1;
    bad.config.routing = compiler::RoutingMode::kNone;
    bad.controllers = 2; // far too few controllers for 9 qubits

    JobRequest good = vqeJob(0);
    good.id = "good";

    const auto results = server.submit({bad, good});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_FALSE(results[0].error.empty());
    EXPECT_TRUE(results[1].ok) << results[1].error;

    const auto report = server.benchReport("service_test");
    EXPECT_FALSE(report.allHealthy());
    ASSERT_EQ(report.points.size(), 2u);
    EXPECT_FALSE(report.points[0].healthy);
    EXPECT_TRUE(report.points[1].healthy);
}

TEST(Service, ResultJsonCarriesTheMeasurementStream)
{
    auto server = makeServer(compiler::CacheMode::kMemory);
    const auto results = server.submit({vqeJob(0)});
    ASSERT_EQ(results.size(), 1u);
    const Json doc = results[0].toJson();
    EXPECT_TRUE(doc.find("ok")->asBool());
    const Json *meas = doc.find("measurements");
    ASSERT_NE(meas, nullptr);
    EXPECT_EQ(meas->size(), results[0].measurements.size());
    EXPECT_GT(meas->size(), 0u);
}

} // namespace
} // namespace dhisq::service
