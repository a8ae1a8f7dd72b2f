/**
 * @file
 * The four benchmark workloads. Each builds its inputs from the seed in
 * setup() and runs a fixed amount of work per round(). Untraced rounds go
 * through the library's own entry points; traced rounds repeat the same
 * calls one layer at a time (the bodies of sweep::executeWith,
 * Compiler::tryCompile and JobServer's per-job path) so each layer gets a
 * span. A run checks that both paths give the same digest.
 */
#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <string_view>

#include "bench.hpp"
#include "common/rng.hpp"
#include "compiler/cache/cache.hpp"
#include "compiler/cache/key.hpp"
#include "compiler/passes/pass.hpp"
#include "runtime/machine.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "workloads/generators.hpp"

namespace dhisq::bench {

// ---- Correctness checks ----------------------------------------------------

std::string
checkPoint(const sweep::ExecResult &result, compiler::SyncScheme scheme)
{
    if (result.rejected)
        return "rejected: " + result.reject_reason;
    if (result.deadlock)
        return "deadlock";
    if (result.coincidence != 0 && scheme != compiler::SyncScheme::kLockStep)
        return "coincidence break under " + std::string(toString(scheme));
    return "";
}

std::string
checkCompile(const Result<compiler::CompiledProgram> &result)
{
    return result ? "" : "compile rejected: " + result.message();
}

std::string
checkJob(const service::JobResult &job)
{
    return job.ok ? "" : "job " + job.id + " failed: " + job.error;
}

std::string
checkReplay(const std::string &id, const Hash128 &served, const Hash128 &replay)
{
    return served == replay
               ? ""
               : "job " + id + " measurements differ from its cache-off replay";
}

std::string
checkMeasurementCount(const sweep::ExecResult &result, std::size_t expected)
{
    if (result.measurements.size() == expected)
        return "";
    return "committed " + std::to_string(result.measurements.size()) +
           " measurements, circuit has " + std::to_string(expected);
}

Hash128
measurementDigest(
    const std::vector<q::QuantumDevice::MeasurementRecord> &records)
{
    Hasher128 h;
    h.u64(records.size());
    for (const auto &m : records) {
        h.u32(m.qubit);
        h.i64(m.bit);
        h.u64(m.start);
        h.u64(m.ready);
    }
    return h.digest();
}

std::size_t
measurementsIn(const compiler::Circuit &circuit)
{
    return std::size_t(std::count_if(
        circuit.ops().begin(), circuit.ops().end(),
        [](const compiler::CircuitOp &op) { return op.isMeasure(); }));
}

namespace {

// ---- Digests ---------------------------------------------------------------

void
absorb(Hasher128 &h, const Hash128 &d)
{
    h.u64(d.hi);
    h.u64(d.lo);
}

void
absorb(Hasher128 &h, const sweep::ExecResult &r)
{
    h.boolean(r.rejected);
    h.boolean(r.deadlock);
    h.u64(r.makespan);
    h.u64(r.violations);
    h.u64(r.coincidence);
    h.u64(r.syncs);
    h.u64(r.events);
    h.u64(r.controllers);
    h.u64(r.swaps);
    h.u64(r.activity.totalLiveCycles());
    absorb(h, measurementDigest(r.measurements));
}

void
absorb(Hasher128 &h, const compiler::CompiledProgram &p)
{
    h.u64(p.programs.size());
    for (std::size_t c = 0; c < p.programs.size(); ++c) {
        h.boolean(p.used[c]);
        h.u64(p.programs[c].words.size());
        for (const std::uint32_t word : p.programs[c].words)
            h.u32(word);
    }
    h.u64(p.bindings.size());
    for (const auto &b : p.bindings) {
        h.u32(b.controller);
        h.u32(b.port);
        h.u32(b.codeword);
        h.u32(std::uint32_t(b.action.kind));
        h.u32(std::uint32_t(b.action.gate));
        h.f64(b.action.angle);
        h.u32(b.action.q0);
        h.u32(b.action.q1);
    }
    for (const auto &[qubit, controller] : p.meas_routes) {
        h.u32(qubit);
        h.u32(controller);
    }
    for (const auto &[slot, logical] : p.meas_log) {
        h.u32(slot);
        h.u32(logical);
    }
    h.u32(p.ports_per_controller);
    h.u32(p.device_qubits);
    h.boolean(p.clifford_only);
}

// ---- Layer-by-layer mirrors of the library entry points --------------------

const char *
passSpanName(std::string_view pass)
{
    if (pass == "lower")
        return "compiler.lower";
    if (pass == "place")
        return "compiler.place";
    if (pass == "route")
        return "compiler.route";
    if (pass == "schedule-epochs")
        return "compiler.schedule_epochs";
    if (pass == "codegen")
        return "compiler.codegen";
    return "compiler.other_pass";
}

/** Compiler::tryCompile with each pass of the standard pipeline under its
 *  own span; a cached compile is tagged hit or miss. */
Result<compiler::CompiledProgram>
tracedCompile(const net::Topology &topo, const compiler::CompilerConfig &cc,
              const compiler::Circuit &circuit, Tracer &tracer)
{
    auto pipeline = [&]() -> Result<compiler::CompiledProgram> {
        compiler::passes::PassContext ctx(topo, cc, circuit);
        for (const auto &pass : compiler::passes::standardPipeline()) {
            auto span = tracer.scope(passSpanName(pass->name()));
            if (Status status = pass->run(ctx); !status) {
                return Result<compiler::CompiledProgram>::error(
                    std::string(pass->name()) + ": " + status.message());
            }
        }
        tracer.count("compiler.instructions",
                     double(ctx.out.totalInstructions()));
        return std::move(ctx.out);
    };
    if (cc.cache == compiler::CacheMode::kOff) {
        auto span = tracer.scope("compiler.compile");
        return pipeline();
    }
    auto &cache = compiler::cache::CompileCache::global();
    const compiler::cache::CacheStats before = cache.stats();
    auto span = tracer.scope("compiler.cache_miss");
    const Hash128 key = compiler::cache::cacheKey(circuit, cc, topo.config());
    auto result = cache.getOrCompile(key, cc.cache, cc.cache_dir, pipeline);
    const compiler::cache::CacheStats after = cache.stats();
    if (after.hits > before.hits)
        span.rename("compiler.cache_hit");
    tracer.count("compiler.cache_hits", double(after.hits - before.hits));
    tracer.count("compiler.cache_misses",
                 double(after.misses - before.misses));
    tracer.count("compiler.cache_evictions",
                 double(after.evictions - before.evictions));
    return result;
}

/**
 * Counters the event-loop units and the device keep, read after a run. The
 * reads are the benchmark's own work, so they sit under a bench.count span
 * rather than in any layer's self time.
 */
void
countMachine(runtime::Machine &machine, const runtime::RunReport &report,
             Tracer &tracer)
{
    if (!tracer.enabled())
        return;
    auto span = tracer.scope("bench.count");
    // {metric, StatSet key} per unit kind, summed over controllers.
    static const std::pair<std::string, std::string> kCore[] = {
        {"core.instructions_executed", "instructions_executed"},
        {"core.pipeline_stalls_queue", "pipeline_stalls_queue"},
        {"core.pipeline_stalls_recv", "pipeline_stalls_recv"}};
    static const std::pair<std::string, std::string> kTcu[] = {
        {"tcu.cw_issued", "cw_issued"},
        {"tcu.pause_cycles", "pause_cycles"},
        {"tcu.timing_violations", "timing_violations"}};
    static const std::pair<std::string, std::string> kSyncu[] = {
        {"syncu.syncs_completed", "syncs_completed"},
        {"syncu.nearby_syncs", "nearby_syncs"},
        {"syncu.region_syncs", "region_syncs"}};
    static const std::string kReceived = "messages_received";
    std::uint64_t core[3] = {}, tcu[3] = {}, syncu[3] = {}, received = 0;
    for (ControllerId c = 0; c < machine.numControllers(); ++c) {
        const core::HisqCore &unit = machine.core(c);
        for (int k = 0; k < 3; ++k) {
            core[k] += unit.stats().counter(kCore[k].second);
            tcu[k] += unit.tcu().stats().counter(kTcu[k].second);
            syncu[k] += unit.syncu().stats().counter(kSyncu[k].second);
        }
        received += unit.msgu().stats().counter(kReceived);
    }
    for (int k = 0; k < 3; ++k) {
        tracer.count(kCore[k].first, double(core[k]));
        tracer.count(kTcu[k].first, double(tcu[k]));
        tracer.count(kSyncu[k].first, double(syncu[k]));
    }
    tracer.count("msgu.messages_received", double(received));
    tracer.count("sim.events", double(report.events_executed));
    tracer.count("net.fabric_messages",
                 double(machine.fabric().stats().counter("messages")));
    std::uint64_t router_requests = 0;
    for (RouterId r = 0; r < machine.topology().numRouters(); ++r) {
        router_requests +=
            machine.fabric().router(r).stats().counter("router_requests");
    }
    tracer.count("net.router_requests", double(router_requests));
    const q::QuantumDevice &device = machine.device();
    for (const char *name : {"gates_1q", "gates_2q", "measurements"}) {
        tracer.count(std::string("quantum.") + name,
                     double(device.stats().counter(name)));
    }
    if (device.hasState()) {
        tracer.count(device.backend().kind() == q::BackendKind::kTableau
                         ? "quantum.tableau_runs"
                         : "quantum.dense_runs",
                     1.0);
    }
}

/** Topology sizing shared by sweep::executeWith and its mirrors. */
net::TopologyConfig
topologyFor(const compiler::Circuit &circuit,
            const compiler::CompilerConfig &cc, const sweep::ExecOptions &opts)
{
    const unsigned controllers =
        opts.controllers != 0
            ? opts.controllers
            : (circuit.numQubits() + cc.qubits_per_controller - 1) /
                  cc.qubits_per_controller;
    net::TopologyConfig topo = sweep::shapeTopology(opts.topology, controllers);
    topo.hub_latency = opts.hub_latency;
    topo.latency_model = opts.latency_model;
    topo.latency_seed = opts.latency_seed;
    topo.clustering = opts.clustering;
    topo.tree_arity = opts.tree_arity;
    return topo;
}

runtime::MachineConfig
machineFor(const net::TopologyConfig &topo, const compiler::CompilerConfig &cc,
           const compiler::CompiledProgram &compiled,
           const sweep::ExecOptions &opts, bool state_vector)
{
    auto mc = compiler::machineConfigFor(topo, cc, compiled, state_vector,
                                         opts.seed);
    mc.fabric.policy = opts.policy;
    mc.fabric.star_messages = cc.scheme == compiler::SyncScheme::kLockStep;
    mc.sim_threads = opts.sim_threads;
    return mc;
}

/**
 * sweep::executeWith, one layer per span. `functional_run_s` accumulates
 * the run time of functional (state-vector) jobs for the backend estimate.
 */
sweep::ExecResult
tracedExecute(const compiler::Circuit &circuit,
              const compiler::CompilerConfig &cc,
              const sweep::ExecOptions &opts, Tracer &tracer,
              double &functional_run_s)
{
    auto root = tracer.scope("sweep.execute");
    const net::TopologyConfig topo_cfg = topologyFor(circuit, cc, opts);
    std::optional<net::Topology> topo;
    {
        auto span = tracer.scope("net.topology_build");
        topo.emplace(net::Topology::build(topo_cfg));
    }
    auto compile_result = tracedCompile(*topo, cc, circuit, tracer);
    if (!compile_result) {
        sweep::ExecResult rejected;
        rejected.rejected = true;
        rejected.reject_reason = compile_result.message();
        return rejected;
    }
    const compiler::CompiledProgram compiled = compile_result.take();

    std::optional<runtime::Machine> machine;
    {
        auto span = tracer.scope("runtime.machine_build");
        machine.emplace(
            machineFor(topo_cfg, cc, compiled, opts, opts.state_vector));
        compiled.applyTo(*machine);
    }
    runtime::RunReport report;
    {
        auto span = tracer.scope("runtime.run");
        const auto start = Clock::now();
        report = machine->run();
        if (opts.state_vector)
            functional_run_s += secondsBetween(start, Clock::now());
    }
    countMachine(*machine, report, tracer);

    sweep::ExecResult result;
    result.makespan = report.makespan;
    result.makespan_us = cyclesToNs(report.makespan) / 1000.0;
    result.violations =
        report.timing_violations + report.coincidence_violations;
    result.coincidence = report.coincidence_violations;
    result.syncs = report.syncs_completed;
    result.deadlock = report.deadlock;
    result.activity = machine->device().activity();
    result.events = report.events_executed;
    result.controllers = compiled.usedControllers();
    result.swaps = compiled.stats.counter("swaps_inserted");
    result.measurements = machine->device().measurements();
    return result;
}

/** Host seconds of Machine::run for the same job on a timing-only device —
 *  the reference the functional-backend estimate subtracts. */
double
timingOnlyRun(const compiler::Circuit &circuit,
              const compiler::CompilerConfig &cc,
              const sweep::ExecOptions &opts)
{
    const net::TopologyConfig topo_cfg = topologyFor(circuit, cc, opts);
    const net::Topology topo = net::Topology::build(topo_cfg);
    compiler::Compiler compiler(topo, cc);
    const compiler::CompiledProgram compiled = compiler.compile(circuit);
    runtime::Machine machine(machineFor(topo_cfg, cc, compiled, opts, false));
    compiled.applyTo(machine);
    const auto start = Clock::now();
    machine.run();
    return secondsBetween(start, Clock::now());
}

/** A seeded permutation of 0..n-1 (Fisher-Yates). */
std::vector<std::size_t>
permutation(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

sweep::CircuitSpec
figure15Spec(const std::string &name, std::uint64_t seed)
{
    sweep::CircuitSpec spec;
    spec.kind = sweep::CircuitSpec::Kind::kFigure15;
    spec.name = name;
    spec.expand_fraction = 1.0;
    spec.expand_seed = seed;
    return spec;
}

// ---- fig15_paper -----------------------------------------------------------

/**
 * The paper's headline experiment: Fig. 15 circuits x {lock-step, BISP} on
 * a line with a timing-only device, followed by the dhisq-bench-v1 report
 * the fig15 bench writes. The event loop does most of the host work, the
 * compiler most of the rest. The grid takes the smaller paper instance of
 * each family (two for qft); the full grid runs 12 s, too long to repeat
 * within one run, and its bv_n1000 pair alone is 60% of that.
 */
class Fig15Workload : public Workload
{
  public:
    Fig15Workload(std::uint64_t seed, std::string out_dir)
        : _seed(seed), _report_path(std::move(out_dir) + "/fig15_paper.bench.json")
    {
    }

    void
    setup(Tracer &tracer) override
    {
        static const char *const kNames[] = {"adder_n577", "bv_n400",
                                             "logical_t_n432", "qft_n30",
                                             "qft_n100", "w_state_n800"};
        _circuits.clear();
        for (const char *name : kNames) {
            auto span = tracer.scope("workloads.build");
            _circuits.push_back(figure15Spec(name, _seed).build());
        }
    }

    Round
    round(Tracer &tracer, Checks &checks) override
    {
        Round out;
        std::vector<sweep::ExecResult> results;
        for (std::size_t i = 0; i < 2 * _circuits.size(); ++i) {
            compiler::CompilerConfig cc;
            cc.scheme = kSchemes[i % 2];
            sweep::ExecOptions opts;
            // The timing-only device draws measurement outcomes from this
            // seed, so it steers every feedback branch of the grid.
            opts.seed = _seed;
            const compiler::Circuit &circuit = _circuits[i / 2];
            tracer.setOp(i + 1);
            const auto start = Clock::now();
            results.push_back(
                tracer.enabled()
                    ? tracedExecute(circuit, cc, opts, tracer,
                                    out.functional_run_s)
                    : sweep::executeWith(circuit, cc, opts));
            out.latencies.push_back(secondsBetween(start, Clock::now()));
        }

        tracer.setOp(0);
        const auto write_start = Clock::now();
        Status written = Status::ok();
        {
            auto span = tracer.scope("sweep.report_write");
            written = sweep::writeBenchJson(_report_path, report(results));
        }
        out.extra = secondsBetween(write_start, Clock::now());
        checks.op(written ? "" : "report write: " + written.message());

        Hasher128 digest;
        std::uint64_t makespan = 0;
        double norm_sum = 0.0;
        unsigned norm_count = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const sweep::ExecResult &r = results[i];
            checks.op(checkPoint(r, kSchemes[i % 2]));
            absorb(digest, r);
            makespan += r.makespan;
            out.events += double(r.events);
            if (i % 2 == 1 && results[i - 1].makespan > 0) {
                norm_sum +=
                    double(r.makespan) / double(results[i - 1].makespan);
                ++norm_count;
            }
        }
        out.digest = digest.digest();
        out.exact["sim_makespan_cycles"] = makespan;
        out.exact["avg_normalized"] =
            norm_count ? norm_sum / norm_count : 0.0;
        out.exact["sim_events"] = out.events;
        return out;
    }

  private:
    /** Scheme of point i: points alternate lock-step, BISP per circuit. */
    static constexpr compiler::SyncScheme kSchemes[] = {
        compiler::SyncScheme::kLockStep, compiler::SyncScheme::kBisp};

    sweep::BenchReport
    report(const std::vector<sweep::ExecResult> &results) const
    {
        sweep::BenchReport report;
        report.bench = "fig15_runtime";
        report.config["suite"] = "paper";
        report.config["seed"] = _seed;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const sweep::ExecResult &r = results[i];
            sweep::PointResult point;
            point.label = _circuits[i / 2].name() +
                          (i % 2 ? "/bisp" : "/lockstep");
            point.metrics["makespan_cycles"] = r.makespan;
            point.metrics["makespan_us"] = r.makespan_us;
            point.metrics["violations"] = r.violations;
            point.metrics["coincidence"] = r.coincidence;
            point.metrics["syncs"] = r.syncs;
            point.metrics["events"] = r.events;
            point.metrics["controllers"] = r.controllers;
            point.metrics["live_cycles"] = r.activity.totalLiveCycles();
            const std::string problem = checkPoint(r, kSchemes[i % 2]);
            point.healthy = problem.empty();
            point.health = point.healthy ? "ok" : problem;
            report.points.push_back(std::move(point));
        }
        return report;
    }

    std::uint64_t _seed;
    std::string _report_path;
    std::vector<compiler::Circuit> _circuits;
};

// ---- compile_placed ---------------------------------------------------------

/**
 * The ablation sweeps' compile path alone: nine expanded Fig. 15-family
 * circuits on torus and heavy-hex, at full and half controller capacity
 * (half is oversubscribed), under uniform and distance-scaled links, with
 * kl-mincut placement and windowed SWAP routing with feedback. No machine
 * is built, so simulator changes must leave it unmoved. The seed orders
 * the compiles.
 */
class CompileWorkload : public Workload
{
  public:
    explicit CompileWorkload(std::uint64_t seed) : _seed(seed)
    {
        _config.placement = place::PlacementStrategy::kKlMincut;
        _config.routing = compiler::RoutingMode::kSwap;
        _config.route_window = 8;
        _config.route_feedback = true;
    }

    void
    setup(Tracer &tracer) override
    {
        static const char *const kNames[] = {
            "adder_n97", "adder_n193", "bv_n60", "bv_n120", "logical_t_n108",
            "qft_n30", "qft_n100", "w_state_n80", "w_state_n200"};
        _circuits.clear();
        _topologies.clear();
        _jobs.clear();
        for (const char *name : kNames) {
            auto span = tracer.scope("workloads.build");
            _circuits.push_back(figure15Spec(name, _seed).build());
        }
        for (std::size_t c = 0; c < _circuits.size(); ++c) {
            const unsigned qubits = _circuits[c].numQubits();
            for (const auto shape :
                 {net::TopologyShape::kTorus, net::TopologyShape::kHeavyHex}) {
                for (const unsigned controllers : {qubits, (qubits + 1) / 2}) {
                    for (const auto model :
                         {net::LinkLatencyModel::kUniform,
                          net::LinkLatencyModel::kDistanceScaled}) {
                        net::TopologyConfig cfg =
                            sweep::shapeTopology(shape, controllers);
                        cfg.latency_model = model;
                        auto span = tracer.scope("net.topology_build");
                        _topologies.push_back(net::Topology::build(cfg));
                        _jobs.push_back(c);
                    }
                }
            }
        }
        Rng rng(_seed);
        _order = permutation(_jobs.size(), rng);
    }

    Round
    round(Tracer &tracer, Checks &checks) override
    {
        Round out;
        std::vector<Hash128> digests(_jobs.size());
        std::uint64_t swaps = 0;
        std::uint64_t instructions = 0;
        for (const std::size_t j : _order) {
            const compiler::Circuit &circuit = _circuits[_jobs[j]];
            tracer.setOp(j + 1);
            const auto start = Clock::now();
            auto result =
                tracer.enabled()
                    ? tracedCompile(_topologies[j], _config, circuit, tracer)
                    : compiler::Compiler(_topologies[j], _config)
                          .tryCompile(circuit);
            out.latencies.push_back(secondsBetween(start, Clock::now()));
            checks.op(checkCompile(result));
            Hasher128 h;
            h.boolean(result.isOk());
            if (result) {
                absorb(h, result.value());
                swaps += result.value().stats.counter("swaps_inserted");
                instructions += result.value().totalInstructions();
            }
            digests[j] = h.digest();
        }
        Hasher128 digest;
        for (const Hash128 &d : digests)
            absorb(digest, d);
        out.digest = digest.digest();
        out.exact["swaps_inserted"] = swaps;
        out.exact["compiled_instructions"] = instructions;
        return out;
    }

  private:
    std::uint64_t _seed;
    compiler::CompilerConfig _config;
    std::vector<compiler::Circuit> _circuits;
    std::vector<net::Topology> _topologies;
    std::vector<std::size_t> _jobs; ///< circuit index per compile
    std::vector<std::size_t> _order;
};

// ---- service_zipf -----------------------------------------------------------

/**
 * One client submitting single-job requests to a JobServer (one worker,
 * memory cache) in a closed loop. Requests follow zipf(1.1) over catalog
 * ranks; the seed shuffles which entry of a kind holds each rank, while
 * the kind of every rank is fixed (hot ranks: VQE iterations and random
 * dynamic circuits; tail: GHZ fan-outs and small Fig. 15 circuits on
 * heavy-hex), so each seed sends the same mix of work. Even the rarest
 * entry expects five requests a round, so the cache sees one cold compile
 * per entry and reads for the rest.
 */
class ServiceWorkload : public Workload
{
  public:
    static constexpr std::size_t kRequests = 1200;
    static constexpr double kZipfExponent = 1.1;

    explicit ServiceWorkload(std::uint64_t seed) : _seed(seed) {}

    void
    setup(Tracer &tracer) override
    {
        // Kinds in rank order: [vqe/random alternating], ghz, fig15-small.
        std::vector<service::JobRequest> vqe, random, ghz, small;
        for (unsigned i = 0; i < 12; ++i) {
            service::JobRequest req;
            req.circuit.kind = sweep::CircuitSpec::Kind::kVqeSweep;
            req.circuit.vqe.qubits = 12;
            req.circuit.vqe.layers = 3;
            req.circuit.vqe.iteration = i;
            req.config.placement = place::PlacementStrategy::kKlMincut;
            req.config.routing = compiler::RoutingMode::kSwap;
            req.state_vector = true;
            vqe.push_back(req);
        }
        for (unsigned i = 0; i < 10; ++i) {
            service::JobRequest req;
            req.circuit.kind = sweep::CircuitSpec::Kind::kRandomDynamic;
            req.circuit.random.qubits = 16;
            req.circuit.random.layers = 16;
            req.circuit.random.seed = i + 1;
            req.topology = net::TopologyShape::kTorus;
            random.push_back(req);
        }
        for (unsigned n = 16; n <= 30; n += 2) {
            service::JobRequest req;
            req.circuit.kind = sweep::CircuitSpec::Kind::kGhzFanout;
            req.circuit.qubits = n;
            req.circuit.expand_fraction = 1.0;
            req.config.placement = place::PlacementStrategy::kKlMincut;
            req.state_vector = true;
            ghz.push_back(req);
        }
        for (const char *name :
             {"adder_n97", "bv_n60", "logical_t_n108", "qft_n30", "w_state_n80"}) {
            // Not lock-step: the service fails any job with a coincidence
            // break, which lock-step grids produce by design.
            for (const auto scheme :
                 {compiler::SyncScheme::kBisp, compiler::SyncScheme::kDemand}) {
                service::JobRequest req;
                req.circuit = figure15Spec(name, 2025);
                req.config.scheme = scheme;
                req.config.placement = place::PlacementStrategy::kKlMincut;
                req.config.routing = compiler::RoutingMode::kSwap;
                req.config.route_window = 8;
                req.topology = net::TopologyShape::kHeavyHex;
                small.push_back(req);
            }
        }

        Rng rng(_seed);
        for (auto *kind : {&vqe, &random, &ghz, &small}) {
            const auto order = permutation(kind->size(), rng);
            std::vector<service::JobRequest> shuffled;
            for (const std::size_t i : order)
                shuffled.push_back((*kind)[i]);
            *kind = std::move(shuffled);
        }
        _catalog.clear();
        for (std::size_t i = 0; i < vqe.size() || i < random.size(); ++i) {
            if (i < vqe.size())
                _catalog.push_back(vqe[i]);
            if (i < random.size())
                _catalog.push_back(random[i]);
        }
        _catalog.insert(_catalog.end(), ghz.begin(), ghz.end());
        _catalog.insert(_catalog.end(), small.begin(), small.end());
        for (std::size_t rank = 0; rank < _catalog.size(); ++rank) {
            service::JobRequest &req = _catalog[rank];
            req.seed = rng.next();
            req.id = "rank" + std::to_string(rank) + "/" + req.circuit.id() +
                     "/" + compiler::toString(req.config.scheme);
        }

        std::vector<double> cdf(_catalog.size());
        double total = 0.0;
        for (std::size_t rank = 0; rank < cdf.size(); ++rank) {
            total += 1.0 / std::pow(double(rank + 1), kZipfExponent);
            cdf[rank] = total;
        }
        _picks.clear();
        for (std::size_t i = 0; i < kRequests; ++i) {
            const double u = rng.uniform() * total;
            _picks.push_back(std::size_t(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
        }

        // The expected outputs: every entry run once with the cache off.
        service::JobServer::Options options;
        options.cache = compiler::CacheMode::kOff;
        service::JobServer server(options);
        _replays.clear();
        for (const service::JobRequest &request : _catalog) {
            auto span = tracer.scope("service.reference_replay");
            _replays.push_back(
                measurementDigest(server.submit({request})[0].measurements));
        }
        compiler::cache::CompileCache::global().clear();
    }

    Round
    round(Tracer &tracer, Checks &checks) override
    {
        auto &cache = compiler::cache::CompileCache::global();
        cache.clear();
        const compiler::cache::CacheStats before = cache.stats();
        service::JobServer::Options options;
        options.threads = 1;
        options.cache = compiler::CacheMode::kMemory;
        service::JobServer server(options);

        Round out;
        std::vector<Hash128> served(_picks.size());
        std::vector<std::string> problems(_picks.size());
        std::uint64_t makespan = 0;
        if (tracer.enabled())
            out.layer_seconds.assign(_picks.size(), 0.0);
        for (std::size_t i = 0; i < _picks.size(); ++i) {
            const service::JobRequest &request = _catalog[_picks[i]];
            tracer.setOp(i + 1);
            const auto start = Clock::now();
            const service::JobResult job =
                tracer.enabled() ? tracedJob(request, tracer, out, i)
                                 : server.submit({request})[0];
            out.latencies.push_back(secondsBetween(start, Clock::now()));
            problems[i] = checkJob(job);
            served[i] = measurementDigest(job.measurements);
            makespan += job.makespan;
            out.events += double(job.events);
        }
        const compiler::cache::CacheStats after = cache.stats();

        Hasher128 digest;
        for (std::size_t i = 0; i < _picks.size(); ++i) {
            if (problems[i].empty()) {
                problems[i] = checkReplay(_catalog[_picks[i]].id, served[i],
                                          _replays[_picks[i]]);
            }
            checks.op(problems[i]);
            absorb(digest, served[i]);
        }
        out.digest = digest.digest();
        const std::uint64_t hits = after.hits - before.hits;
        const std::uint64_t lookups = after.lookups - before.lookups;
        out.exact["cache_hits"] = hits;
        out.exact["cache_misses"] = after.misses - before.misses;
        out.exact["cache_hit_ratio"] =
            lookups ? double(hits) / double(lookups) : 0.0;
        out.exact["sim_makespan_cycles"] = makespan;
        out.exact["sim_events"] = out.events;
        return out;
    }

    double
    timingOnlyRerunSeconds() override
    {
        double seconds = 0.0;
        for (const std::size_t pick : _picks) {
            const service::JobRequest &request = _catalog[pick];
            if (!request.state_vector)
                continue;
            compiler::CompilerConfig cc = request.config;
            cc.cache = compiler::CacheMode::kMemory;
            seconds += timingOnlyRun(request.circuit.build(), cc,
                                     execOptions(request));
        }
        return seconds;
    }

  private:
    static sweep::ExecOptions
    execOptions(const service::JobRequest &request)
    {
        sweep::ExecOptions opts;
        opts.state_vector = request.state_vector;
        opts.seed = request.seed;
        opts.topology = request.topology;
        opts.controllers = request.controllers;
        return opts;
    }

    /** JobServer's per-job path for a run job, one layer per span. */
    service::JobResult
    tracedJob(const service::JobRequest &request, Tracer &tracer, Round &out,
              std::size_t index)
    {
        const std::size_t root_index = tracer.spans().size();
        auto root = tracer.scope("service.request");
        compiler::CompilerConfig cc = request.config;
        cc.cache = compiler::CacheMode::kMemory;
        std::optional<compiler::Circuit> circuit;
        {
            auto span = tracer.scope("workloads.build");
            circuit.emplace(request.circuit.build());
        }
        const sweep::ExecResult exec = tracedExecute(
            *circuit, cc, execOptions(request), tracer, out.functional_run_s);
        // Time inside the layers this request called, less the counter reads.
        const auto &spans = tracer.spans();
        for (std::size_t k = root_index + 1; k < spans.size(); ++k) {
            const double seconds =
                double(spans[k].end_ns - spans[k].start_ns) * 1e-9;
            if (spans[k].parent == int(root_index))
                out.layer_seconds[index] += seconds;
            else if (std::string_view(spans[k].name) == "bench.count")
                out.layer_seconds[index] -= seconds;
        }

        service::JobResult result;
        result.id = request.id;
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
        result.measurements = exec.measurements;
        return result;
    }

    std::uint64_t _seed;
    std::vector<service::JobRequest> _catalog; ///< in rank order
    std::vector<std::size_t> _picks;           ///< rank per request
    std::vector<Hash128> _replays; ///< cache-off measurement digest per rank
};

// ---- vqe_dense --------------------------------------------------------------

/**
 * Distinct VQE ansatz iterations on the dense state vector (three 16-qubit
 * jobs to one 14-qubit job, eight layers, cache off): the only workload
 * where the functional quantum backend does most of the host work.
 */
class VqeWorkload : public Workload
{
  public:
    static constexpr std::size_t kJobs = 64;

    explicit VqeWorkload(std::uint64_t seed) : _seed(seed) {}

    void
    setup(Tracer &tracer) override
    {
        _circuits.clear();
        _expected.clear();
        for (std::size_t i = 0; i < kJobs; ++i) {
            workloads::VqeSweepOptions options;
            options.qubits = i % 4 == 3 ? 14 : 16;
            options.layers = 8;
            options.iteration = unsigned(i);
            options.seed = _seed;
            auto span = tracer.scope("workloads.build");
            _circuits.push_back(workloads::vqeSweep(options));
            _expected.push_back(measurementsIn(_circuits.back()));
        }
    }

    Round
    round(Tracer &tracer, Checks &checks) override
    {
        Round out;
        Hasher128 digest;
        std::uint64_t makespan = 0;
        std::uint64_t measurements = 0;
        const compiler::CompilerConfig cc;
        for (std::size_t i = 0; i < _circuits.size(); ++i) {
            tracer.setOp(i + 1);
            const auto start = Clock::now();
            const sweep::ExecResult r =
                tracer.enabled()
                    ? tracedExecute(_circuits[i], cc, options(i), tracer,
                                    out.functional_run_s)
                    : sweep::executeWith(_circuits[i], cc, options(i));
            out.latencies.push_back(secondsBetween(start, Clock::now()));
            std::string problem = checkPoint(r, cc.scheme);
            if (problem.empty())
                problem = checkMeasurementCount(r, _expected[i]);
            checks.op(problem);
            absorb(digest, r);
            makespan += r.makespan;
            measurements += r.measurements.size();
            out.events += double(r.events);
        }
        out.digest = digest.digest();
        out.exact["sim_makespan_cycles"] = makespan;
        out.exact["measurements"] = measurements;
        return out;
    }

    double
    timingOnlyRerunSeconds() override
    {
        double seconds = 0.0;
        for (std::size_t i = 0; i < _circuits.size(); ++i) {
            seconds += timingOnlyRun(_circuits[i], compiler::CompilerConfig{},
                                     options(i));
        }
        return seconds;
    }

  private:
    sweep::ExecOptions
    options(std::size_t job) const
    {
        sweep::ExecOptions opts;
        opts.state_vector = true;
        opts.seed = _seed + job;
        return opts;
    }

    std::uint64_t _seed;
    std::vector<compiler::Circuit> _circuits;
    std::vector<std::size_t> _expected;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig15_paper", "compile_placed", "service_zipf", "vqe_dense"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &out_dir)
{
    if (name == "fig15_paper")
        return std::make_unique<Fig15Workload>(seed, out_dir);
    if (name == "compile_placed")
        return std::make_unique<CompileWorkload>(seed);
    if (name == "service_zipf")
        return std::make_unique<ServiceWorkload>(seed);
    if (name == "vqe_dense")
        return std::make_unique<VqeWorkload>(seed);
    return nullptr;
}

} // namespace dhisq::bench
