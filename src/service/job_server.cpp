#include "service/job_server.hpp"

#include "sweep/runner.hpp"

namespace dhisq::service {

// GCC 12 at -O2 false-positives -Wmaybe-uninitialized on the variant
// moves inside Json::push when inlined into this loop; every pushed
// value is a plain scalar constructed on the same line.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

Json
JobResult::toJson() const
{
    Json doc = Json::object();
    doc["id"] = id;
    doc["ok"] = ok;
    if (!ok)
        doc["error"] = error;
    doc["makespan_cycles"] = makespan;
    doc["events"] = events;
    doc["controllers"] = controllers;
    doc["instructions"] = instructions;
    Json meas = Json::array();
    for (const auto &m : measurements) {
        Json jm = Json::array();
        jm.push(m.qubit);
        jm.push(m.bit);
        jm.push(m.start);
        jm.push(m.ready);
        meas.push(std::move(jm));
    }
    doc["measurements"] = std::move(meas);
    return doc;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

JobResult
JobServer::runOne(const JobRequest &request) const
{
    JobResult result;
    result.id = request.id.empty() ? request.circuit.id() : request.id;

    compiler::CompilerConfig cc = request.config;
    cc.cache = _options.cache;
    cc.cache_dir = _options.cache_dir;

    const compiler::Circuit circuit = request.circuit.build();
    sweep::ExecOptions opts;
    opts.state_vector = request.state_vector;
    opts.seed = request.seed;
    opts.topology = request.topology;
    opts.controllers = request.controllers;
    if (request.run) {
        const sweep::ExecResult exec = sweep::executeWith(circuit, cc, opts);
        if (exec.rejected) {
            result.error = exec.reject_reason;
            return result;
        }
        if (exec.deadlock || exec.coincidence != 0) {
            result.error = exec.deadlock ? "deadlock" : "coincidence";
            return result;
        }
        result.ok = true;
        result.makespan = exec.makespan;
        result.events = exec.events;
        result.controllers = exec.controllers;
        result.instructions = exec.instructions;
        result.measurements = exec.measurements;
        return result;
    }

    // Compile-only job: the execution path's topology, but the machine is
    // never built.
    const auto topo = sweep::buildTopology(circuit, cc, opts);
    if (!topo) {
        result.error = topo.message();
        return result;
    }
    compiler::Compiler comp(topo.value(), cc);
    auto compiled = comp.tryCompile(circuit);
    if (!compiled) {
        result.error = compiled.message();
        return result;
    }
    result.ok = true;
    result.controllers = compiled.value().usedControllers();
    result.instructions = compiled.value().totalInstructions();
    return result;
}

std::vector<JobResult>
JobServer::submit(const std::vector<JobRequest> &batch)
{
    auto &cache = compiler::cache::CompileCache::global();
    const compiler::cache::CacheStats before = cache.stats();

    // Workers write into disjoint slots of a pre-sized vector, so the
    // aggregation order is the request order and a verify re-run of a
    // leading task just rewrites the same slot with the same value.
    std::vector<JobResult> results(batch.size());
    std::vector<sweep::SweepTask> tasks;
    tasks.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const JobRequest *request = &batch[i];
        const std::string label =
            request->id.empty() ? request->circuit.id() : request->id;
        tasks.push_back(sweep::SweepTask{
            label, [this, request, &results, i, label] {
                results[i] = runOne(*request);
                const JobResult &job = results[i];
                sweep::PointResult point;
                point.label = label;
                point.params["workload"] = request->circuit.id();
                point.params["scheme"] =
                    compiler::toString(request->config.scheme);
                point.metrics["makespan_cycles"] = job.makespan;
                point.metrics["events"] = job.events;
                point.metrics["controllers"] = job.controllers;
                point.metrics["measurements"] = job.measurements.size();
                point.healthy = job.ok;
                point.health = job.ok ? "ok" : job.error;
                return point;
            }});
    }

    sweep::SweepRunner::Options ro;
    ro.threads = _options.threads;
    ro.verify_points = _options.verify_points;
    sweep::SweepRunner runner(ro);
    _last_points = runner.run(tasks);
    _last_requests = batch.size();

    const compiler::cache::CacheStats after = cache.stats();
    _last_stats.lookups = after.lookups - before.lookups;
    _last_stats.hits = after.hits - before.hits;
    _last_stats.misses = after.misses - before.misses;
    _last_stats.inflight_joins = after.inflight_joins - before.inflight_joins;
    _last_stats.evictions = after.evictions - before.evictions;
    _last_stats.disk_hits = after.disk_hits - before.disk_hits;
    _last_stats.disk_stale = after.disk_stale - before.disk_stale;
    _last_stats.disk_writes = after.disk_writes - before.disk_writes;
    return results;
}

sweep::BenchReport
JobServer::benchReport(const std::string &bench_name) const
{
    sweep::BenchReport report;
    report.bench = bench_name;
    report.config["cache"] = compiler::toString(_options.cache);
    report.points = _last_points;

    // Deterministic aggregates only. With single-flight dedup the number
    // of compiles equals the number of distinct keys, independent of
    // scheduling; the hit/join split is not deterministic and stays out.
    const std::uint64_t lookups = _last_stats.lookups;
    const std::uint64_t compiles =
        _options.cache == compiler::CacheMode::kOff ? _last_requests
                                                    : _last_stats.misses;
    report.derived["requests"] = _last_requests;
    report.derived["cache_lookups"] = lookups;
    report.derived["cache_compiles"] = compiles;
    report.derived["cache_hit_ratio"] =
        lookups == 0 ? 0.0
                     : double(lookups - _last_stats.misses) / double(lookups);
    return report;
}

} // namespace dhisq::service
