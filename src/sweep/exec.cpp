#include "sweep/exec.hpp"

#include "runtime/machine.hpp"

namespace dhisq::sweep {

net::TopologyConfig
lineTopology(unsigned controllers)
{
    net::TopologyConfig topo;
    topo.width = controllers;
    topo.height = 1;
    topo.tree_arity = 4;
    topo.neighbor_latency = 2;
    topo.hop_latency = 4;
    return topo;
}

net::TopologyConfig
shapeTopology(net::TopologyShape shape, unsigned controllers)
{
    net::TopologyConfig topo = lineTopology(controllers);
    topo.shape = shape;
    switch (shape) {
      case net::TopologyShape::kLine:
      case net::TopologyShape::kRing:
      case net::TopologyShape::kStar:
        break; // width * height == controllers already
      case net::TopologyShape::kGrid:
      case net::TopologyShape::kTorus:
      case net::TopologyShape::kHeavyHex: {
        // Square the count up: width x height >= controllers with the
        // smallest near-square footprint (heavy-hex bridges come on top).
        unsigned w = 1;
        while (w * w < controllers)
            ++w;
        topo.width = w;
        topo.height = (controllers + w - 1) / w;
        break;
      }
    }
    return topo;
}

Result<net::Topology>
buildTopology(const compiler::Circuit &circuit,
              const compiler::CompilerConfig &cc, const ExecOptions &opts)
{
    const unsigned qpc = cc.qubits_per_controller;
    if (qpc == 0) {
        return Result<net::Topology>::error(
            "circuit '" + circuit.name() +
            "': qubits_per_controller must be >= 1 (got 0)");
    }
    const unsigned controllers = opts.controllers != 0
                                     ? opts.controllers
                                     : (circuit.numQubits() + qpc - 1) / qpc;
    auto topo_cfg = shapeTopology(opts.topology, controllers);
    // The topology owns the hub constant: the compiler's static lock-step
    // schedule and the fabric's broadcast both read it from here.
    topo_cfg.hub_latency = opts.hub_latency;
    topo_cfg.latency_model = opts.latency_model;
    topo_cfg.latency_seed = opts.latency_seed;
    topo_cfg.clustering = opts.clustering;
    topo_cfg.tree_arity = opts.tree_arity;
    return net::Topology::build(topo_cfg);
}

ExecResult
executeWith(const compiler::Circuit &circuit,
            const compiler::CompilerConfig &cc, const ExecOptions &opts)
{
    const auto reject = [](std::string reason) {
        ExecResult rejected;
        rejected.rejected = true;
        rejected.reject_reason = std::move(reason);
        return rejected;
    };
    const auto topo = buildTopology(circuit, cc, opts);
    if (!topo)
        return reject(topo.message());
    compiler::Compiler comp(topo.value(), cc);
    auto compile_result = comp.tryCompile(circuit);
    if (!compile_result)
        return reject(compile_result.message());
    auto compiled = compile_result.take();

    // Size the machine from the compiled slot geometry: SWAP routing may
    // use more ports/device qubits than the circuit's own count.
    auto mc = compiler::machineConfigFor(topo.value().config(), cc, compiled,
                                         opts.state_vector, opts.seed);
    mc.fabric.policy = opts.policy;
    mc.fabric.star_messages =
        (cc.scheme == compiler::SyncScheme::kLockStep);
    runtime::Machine machine(mc);
    compiled.applyTo(machine);

    const auto report = machine.run();
    ExecResult result;
    result.makespan = report.makespan;
    result.makespan_us = cyclesToNs(report.makespan) / 1000.0;
    result.violations =
        report.timing_violations + report.coincidence_violations;
    result.coincidence = report.coincidence_violations;
    result.syncs = report.syncs_completed;
    result.deadlock = report.deadlock;
    result.activity = machine.device().activity();
    result.events = report.events_executed;
    result.controllers = compiled.usedControllers();
    result.swaps = compiled.stats.counter("swaps_inserted");
    result.instructions = compiled.totalInstructions();
    result.measurements = machine.device().measurements();
    return result;
}

ExecResult
executeWith(const compiler::Circuit &circuit,
            const compiler::CompilerConfig &cc, bool state_vector,
            std::uint64_t seed, net::TopologyShape topology)
{
    ExecOptions opts;
    opts.state_vector = state_vector;
    opts.seed = seed;
    opts.topology = topology;
    return executeWith(circuit, cc, opts);
}

ExecResult
execute(const compiler::Circuit &circuit, compiler::SyncScheme scheme,
        bool state_vector, std::uint64_t seed,
        unsigned qubits_per_controller)
{
    compiler::CompilerConfig cc;
    cc.scheme = scheme;
    cc.qubits_per_controller = qubits_per_controller;
    return executeWith(circuit, cc, state_vector, seed);
}

} // namespace dhisq::sweep
