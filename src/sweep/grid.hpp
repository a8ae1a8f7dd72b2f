/**
 * @file
 * Declarative experiment grids: a data-only description of (circuit
 * generator x sync scheme x seed x qubits-per-controller) points that
 * expands into SweepTasks for the runner.
 *
 * Points are data, not closures, so a grid can be echoed verbatim into the
 * emitted JSON and a point's identity never depends on ambient state —
 * the foundation of the thread-count-independence guarantee.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "sweep/exec.hpp"
#include "sweep/runner.hpp"
#include "workloads/generators.hpp"

namespace dhisq::sweep {

/**
 * Default router fan-out. Labels and emitted params omit axis values at
 * their defaults (byte-stable json), so cell-grouping code in benches
 * must fall back to the same constants — keep them shared.
 */
inline constexpr unsigned kDefaultTreeArity = 4;

/** How to produce the circuit for one experiment point. */
struct CircuitSpec
{
    enum class Kind
    {
        kFigure15,      ///< named Figure 15 benchmark (adder_n577, ...)
        kRandomDynamic, ///< workloads::randomDynamic(random)
        kLrCnotChain,   ///< Figure 14 long-range-CNOT chain on `qubits`
        kGhzFanout,     ///< star-shaped GHZ fan-out on `qubits`
        kRoutingStress, ///< workloads::routingStress(routing_stress)
        kVqeSweep,      ///< workloads::vqeSweep(vqe) — one VQE iteration
    };

    Kind kind = Kind::kFigure15;
    /** Figure 15 benchmark name (kFigure15). */
    std::string name;
    /** Options for kRandomDynamic. */
    workloads::RandomDynamicOptions random;
    /** Options for kRoutingStress. */
    workloads::RoutingStressOptions routing_stress;
    /** Options for kVqeSweep. */
    workloads::VqeSweepOptions vqe;
    /** Line length for kLrCnotChain / kGhzFanout. */
    unsigned qubits = 9;
    /** If > 0, expandNonAdjacentGates(fraction) with `expand_seed`. */
    double expand_fraction = 0.0;
    std::uint64_t expand_seed = 2025;

    /** Stable human-readable identity ("adder_n577", "rand_q24_f0.4"). */
    std::string id() const;

    /** Materialize the (dynamic) circuit. Deterministic. */
    compiler::Circuit build() const;
};

/** One fully-specified experiment point. */
struct ExperimentPoint
{
    CircuitSpec circuit;
    /** Scheme, placement, qubits_per_controller... (scheme included). */
    compiler::CompilerConfig config;
    /** Interconnect shape the point runs on. */
    net::TopologyShape topology = net::TopologyShape::kLine;
    /** Per-link latency heterogeneity of the interconnect. */
    net::LinkLatencyModel latency_model = net::LinkLatencyModel::kUniform;
    /** Router-tree construction (id blocks vs graph locality). */
    net::RouterClustering clustering = net::RouterClustering::kIdBlocks;
    /** Region-sync notification policy. */
    net::RouterPolicy policy = net::RouterPolicy::Robust;
    /** Router fan-out. */
    unsigned tree_arity = kDefaultTreeArity;
    /** One-way central-hub constant (12 = the paper's baseline). */
    Cycle hub_latency = 12;
    /** Machine controller count; 0 = sized to fit the circuit. A value
     *  below the fit makes the point over-capacity (needs routing). */
    unsigned controllers = 0;
    std::uint64_t seed = 1;
    bool state_vector = false;

    std::string label() const;
};

/** Cartesian grid over the declarative axes. */
struct GridSpec
{
    std::vector<CircuitSpec> circuits;
    std::vector<compiler::SyncScheme> schemes;
    /** Interconnect shapes (the topology axis). */
    std::vector<net::TopologyShape> topologies = {net::TopologyShape::kLine};
    /** Placement strategies (compiler mapping axis). */
    std::vector<place::PlacementStrategy> placements = {
        place::PlacementStrategy::kPath};
    /** Qubit-routing modes (SWAP insertion axis). */
    std::vector<compiler::RoutingMode> routings = {
        compiler::RoutingMode::kNone};
    /** Routing lookahead windows (1 = greedy; kSwap points only). */
    std::vector<unsigned> route_windows = {1};
    /** Route -> place feedback settings (kSwap points only). */
    std::vector<bool> route_feedbacks = {false};
    /** Functional-backend tiers (state-vector mode only; the stochastic
     *  device ignores the tier). */
    std::vector<q::BackendTier> backends = {q::BackendTier::kAuto};
    /** Lazy 1q gate-fusion modes (dense functional backend only). */
    std::vector<q::FusionMode> fusions = {q::FusionMode::kOff};
    /** Link-latency heterogeneity models. */
    std::vector<net::LinkLatencyModel> latency_models = {
        net::LinkLatencyModel::kUniform};
    /** Router-tree clusterings. */
    std::vector<net::RouterClustering> clusterings = {
        net::RouterClustering::kIdBlocks};
    /** Region-sync notification policies. */
    std::vector<net::RouterPolicy> policies = {net::RouterPolicy::Robust};
    /** Router fan-outs. */
    std::vector<unsigned> tree_arities = {kDefaultTreeArity};
    std::vector<std::uint64_t> seeds = {1};
    std::vector<unsigned> qubits_per_controller = {1};
    /** Base knobs applied to every point before the axes override. */
    compiler::CompilerConfig base_config;
    /** Fixed machine controller count (0 = per-point fit; see
     *  ExperimentPoint::controllers). Not an axis. */
    unsigned controllers = 0;
    bool state_vector = false;
};

/**
 * Expand a grid in deterministic order: circuit-major, then scheme,
 * topology shape, placement, routing mode, routing window, routing
 * feedback, backend tier, fusion mode, latency model, clustering,
 * policy, tree arity, qubits-per-controller, seed.
 */
std::vector<ExperimentPoint> expandGrid(const GridSpec &grid);

/** Hook to derive extra metrics from the raw execution of a point. */
using MetricsHook =
    std::function<void(const ExecResult &, PointResult &)>;

/**
 * Execute one point and package the standard metrics. `extend` (optional)
 * runs after the standard metrics are filled and may add bench-specific
 * ones (e.g. the Figure 16 infidelity sweep needs per-qubit activity,
 * which is not serialized by default).
 */
PointResult runPoint(const ExperimentPoint &point,
                     const MetricsHook &extend = nullptr);

/** Wrap points into SweepTasks for SweepRunner::run. */
std::vector<SweepTask> makeTasks(const std::vector<ExperimentPoint> &points,
                                 const MetricsHook &extend = nullptr);

} // namespace dhisq::sweep
