/**
 * @file
 * Compile-and-simulate execution helpers for one experiment point.
 *
 * Promoted from bench/bench_util.hpp so the sweep runner, the tests and
 * every bench binary share one definition of "run this circuit under this
 * sync scheme and report the paper's health counters".
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "net/router.hpp"
#include "net/topology.hpp"
#include "quantum/device.hpp"
#include "quantum/noise.hpp"

namespace dhisq::sweep {

/** Result of one compiled-and-simulated execution. */
struct ExecResult
{
    Cycle makespan = 0;
    double makespan_us = 0.0;
    std::uint64_t violations = 0;  ///< timing slips + coincidence
    std::uint64_t coincidence = 0; ///< two-qubit half misalignments
    std::uint64_t syncs = 0;
    bool deadlock = false;
    /** Per-qubit live-window activity for the fidelity model. */
    q::ActivityTracker activity{0};
    std::uint64_t events = 0;
    /** Controllers that executed code. */
    unsigned controllers = 0;
    /** SWAPs the routing pass inserted (0 with routing disabled). */
    std::uint64_t swaps = 0;
    /** Compiled instructions across every controller's program. */
    std::uint64_t instructions = 0;
    /** True when the compiler rejected the point (e.g. over-capacity
     *  with routing disabled); `reject_reason` carries the diagnostic
     *  and no simulation ran. */
    bool rejected = false;
    std::string reject_reason;
    /**
     * The device's measurement log (qubit, bit, start, ready), in commit
     * order — the run's observable outcome stream. Deterministic for a
     * given point, so the service tier serializes it to prove cache-on
     * and cache-off runs are bit-identical.
     */
    std::vector<q::QuantumDevice::MeasurementRecord> measurements;

    /** True when the run completed with the paper's guarantees intact. */
    bool healthy() const
    {
        return !rejected && !deadlock && coincidence == 0;
    }
};

/** Standard line-topology config for n controllers. */
net::TopologyConfig lineTopology(unsigned controllers);

/**
 * Topology config of `shape` sized to host at least `controllers`
 * controllers with the standard latencies (grids/tori are squared up,
 * heavy-hex rows are filled column-first).
 */
net::TopologyConfig shapeTopology(net::TopologyShape shape,
                                  unsigned controllers);

/**
 * Interconnect + machine knobs of one execution beyond the compiler
 * config. Defaults reproduce the PR 3 bench environment exactly.
 */
struct ExecOptions
{
    bool state_vector = false;
    std::uint64_t seed = 1;
    net::TopologyShape topology = net::TopologyShape::kLine;
    net::LinkLatencyModel latency_model = net::LinkLatencyModel::kUniform;
    net::RouterClustering clustering = net::RouterClustering::kIdBlocks;
    net::RouterPolicy policy = net::RouterPolicy::Robust;
    unsigned tree_arity = 4;
    /** One-way central-hub constant (TopologyConfig::hub_latency); 12 is
     *  the paper's deliberately-optimistic baseline (Section 6.4.3). */
    Cycle hub_latency = 12;
    std::uint64_t latency_seed = 2025; ///< Seed for the jitter model.
    /**
     * Controller count of the machine; 0 (the default) sizes it to fit
     * the circuit at qubits_per_controller. A non-zero value smaller
     * than the fit makes the point over-capacity — compilable only
     * under RoutingMode::kSwap's oversubscribed mapping.
     */
    unsigned controllers = 0;
    /** Unread; the event loop is serial. Kept while benchmark/ sets it. */
    unsigned sim_threads = 1;
};

/**
 * The topology `circuit` compiles and runs on: `opts.topology` sized to
 * `opts.controllers`, or to fit the circuit at `cc.qubits_per_controller`
 * when that is 0, with the interconnect options of `opts` applied.
 * Rejects `qubits_per_controller == 0` instead of dividing by it.
 */
Result<net::Topology> buildTopology(const compiler::Circuit &circuit,
                                    const compiler::CompilerConfig &cc,
                                    const ExecOptions &opts);

/** Compile + run with explicit compiler and interconnect configuration. */
ExecResult executeWith(const compiler::Circuit &circuit,
                       const compiler::CompilerConfig &cc,
                       const ExecOptions &opts);

/** Legacy signature (standard interconnect knobs). */
ExecResult executeWith(
    const compiler::Circuit &circuit, const compiler::CompilerConfig &cc,
    bool state_vector = false, std::uint64_t seed = 1,
    net::TopologyShape topology = net::TopologyShape::kLine);

/**
 * Compile `circuit` for `scheme` with default knobs and execute it.
 * @param state_vector functional device (small circuits only).
 */
ExecResult execute(const compiler::Circuit &circuit,
                   compiler::SyncScheme scheme, bool state_vector = false,
                   std::uint64_t seed = 1,
                   unsigned qubits_per_controller = 1);

} // namespace dhisq::sweep
