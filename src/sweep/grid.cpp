#include "sweep/grid.hpp"

#include <cstdio>

#include "common/rng.hpp"
#include "workloads/lrcnot.hpp"

namespace dhisq::sweep {

namespace {

std::string
fractionTag(double f)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", f);
    return buf;
}

} // namespace

std::string
CircuitSpec::id() const
{
    switch (kind) {
      case Kind::kFigure15: return name;
      case Kind::kRandomDynamic:
        return "rand_q" + std::to_string(random.qubits) + "_l" +
               std::to_string(random.layers) + "_f" +
               fractionTag(random.feedback_fraction) + "_s" +
               std::to_string(random.seed);
      case Kind::kLrCnotChain:
        return "lrcnot_chain_n" + std::to_string(qubits);
      case Kind::kGhzFanout:
        return "ghz_fanout_n" + std::to_string(qubits);
      case Kind::kRoutingStress:
        return "routing_stress_n" + std::to_string(routing_stress.qubits) +
               "_d" + std::to_string(routing_stress.stride) + "_s" +
               std::to_string(routing_stress.seed);
      case Kind::kVqeSweep:
        // Matches the circuit's own name (workloads::vqeSweep) so labels
        // and compiled program names agree.
        return "vqe_q" + std::to_string(vqe.qubits) + "_l" +
               std::to_string(vqe.layers) + "_i" +
               std::to_string(vqe.iteration) + "_s" +
               std::to_string(vqe.seed);
    }
    return "unknown";
}

compiler::Circuit
CircuitSpec::build() const
{
    compiler::Circuit circuit(0, "empty");
    switch (kind) {
      case Kind::kFigure15:
        circuit = workloads::figure15Benchmark(name);
        break;
      case Kind::kRandomDynamic:
        circuit = workloads::randomDynamic(random);
        break;
      case Kind::kLrCnotChain: {
        // The Figure 14 scenario: back-to-back long-range CNOTs across a
        // line (a distributed-QFT slice) — measurement + feed-forward
        // rounds whose serialization the schemes handle differently.
        DHISQ_ASSERT(qubits >= 3, "lrcnot chain needs >= 3 qubits");
        const unsigned mid = (qubits - 1) / 2;
        compiler::Circuit chain(qubits, id());
        chain.gate(q::Gate::kH, 0);
        chain.gate(q::Gate::kH, mid);
        workloads::appendLongRangeCnotLine(chain, 0, mid);
        workloads::appendLongRangeCnotLine(chain, mid, qubits - 1);
        workloads::appendLongRangeCnotLine(chain, qubits - 1, 0);
        circuit = std::move(chain);
        break;
      }
      case Kind::kGhzFanout:
        circuit = workloads::ghzFanout(qubits, /*measure_all=*/true);
        break;
      case Kind::kRoutingStress:
        circuit = workloads::routingStress(routing_stress);
        break;
      case Kind::kVqeSweep:
        circuit = workloads::vqeSweep(vqe);
        break;
    }
    if (expand_fraction > 0.0) {
        Rng rng(expand_seed);
        circuit = workloads::expandNonAdjacentGates(
            circuit, expand_fraction, rng);
    }
    return circuit;
}

std::string
ExperimentPoint::label() const
{
    // Non-default axis values only, so labels (and the BENCH json keyed
    // by them) are byte-stable when a new axis is introduced.
    std::string label = circuit.id();
    label += '/';
    label += compiler::toString(config.scheme);
    if (topology != net::TopologyShape::kLine) {
        label += '/';
        label += net::toString(topology);
    }
    if (config.placement != place::PlacementStrategy::kPath) {
        label += '/';
        label += place::toString(config.placement);
    }
    if (config.routing != compiler::RoutingMode::kNone) {
        label += "/routed-";
        label += compiler::toString(config.routing);
    }
    if (config.route_window != 1)
        label += "/window" + std::to_string(config.route_window);
    if (config.route_feedback)
        label += "/feedback";
    if (config.backend != q::BackendTier::kAuto) {
        label += "/backend-";
        label += q::toString(config.backend);
    }
    if (config.fusion != q::FusionMode::kOff) {
        label += "/fusion-";
        label += q::toString(config.fusion);
    }
    if (latency_model != net::LinkLatencyModel::kUniform) {
        label += '/';
        label += net::toString(latency_model);
    }
    if (clustering != net::RouterClustering::kIdBlocks) {
        label += '/';
        label += net::toString(clustering);
    }
    if (policy != net::RouterPolicy::Robust) {
        label += '/';
        label += net::toString(policy);
    }
    if (tree_arity != kDefaultTreeArity)
        label += "/arity" + std::to_string(tree_arity);
    if (config.qubits_per_controller != 1)
        label += "/qpc" + std::to_string(config.qubits_per_controller);
    if (controllers != 0)
        label += "/c" + std::to_string(controllers);
    if (seed != 1)
        label += "/s" + std::to_string(seed);
    return label;
}

std::vector<ExperimentPoint>
expandGrid(const GridSpec &grid)
{
    std::vector<ExperimentPoint> points;
    points.reserve(grid.circuits.size() * grid.schemes.size() *
                   grid.topologies.size() * grid.placements.size() *
                   grid.routings.size() * grid.route_windows.size() *
                   grid.route_feedbacks.size() * grid.backends.size() *
                   grid.fusions.size() *
                   grid.latency_models.size() *
                   grid.clusterings.size() * grid.policies.size() *
                   grid.tree_arities.size() *
                   grid.qubits_per_controller.size() * grid.seeds.size());
    for (const auto &circuit : grid.circuits) {
      for (const auto scheme : grid.schemes) {
        for (const auto topology : grid.topologies) {
          for (const auto placement : grid.placements) {
            for (const auto routing : grid.routings) {
             for (const unsigned window : grid.route_windows) {
              for (const bool feedback : grid.route_feedbacks) {
               for (const auto backend : grid.backends) {
                for (const auto fusion : grid.fusions) {
                for (const auto latency_model : grid.latency_models) {
                  for (const auto clustering : grid.clusterings) {
                    for (const auto policy : grid.policies) {
                      for (const unsigned arity : grid.tree_arities) {
                        for (const unsigned qpc :
                             grid.qubits_per_controller) {
                          for (const std::uint64_t seed : grid.seeds) {
                            ExperimentPoint p;
                            p.circuit = circuit;
                            p.config = grid.base_config;
                            p.config.scheme = scheme;
                            p.config.placement = placement;
                            p.config.routing = routing;
                            p.config.route_window = window;
                            p.config.route_feedback = feedback;
                            p.config.backend = backend;
                            p.config.fusion = fusion;
                            p.config.qubits_per_controller = qpc;
                            p.topology = topology;
                            p.latency_model = latency_model;
                            p.clustering = clustering;
                            p.policy = policy;
                            p.tree_arity = arity;
                            p.controllers = grid.controllers;
                            p.seed = seed;
                            p.state_vector = grid.state_vector;
                            points.push_back(std::move(p));
                          }
                        }
                      }
                    }
                  }
                }
                }
               }
              }
             }
            }
          }
        }
      }
    }
    return points;
}

PointResult
runPoint(const ExperimentPoint &point, const MetricsHook &extend)
{
    const compiler::Circuit circuit = point.circuit.build();
    ExecOptions opts;
    opts.state_vector = point.state_vector;
    opts.seed = point.seed;
    opts.topology = point.topology;
    opts.latency_model = point.latency_model;
    opts.clustering = point.clustering;
    opts.policy = point.policy;
    opts.tree_arity = point.tree_arity;
    opts.hub_latency = point.hub_latency;
    opts.controllers = point.controllers;
    const ExecResult r = executeWith(circuit, point.config, opts);

    PointResult out;
    out.label = point.label();
    out.params["workload"] = point.circuit.id();
    out.params["scheme"] = compiler::toString(point.config.scheme);
    out.params["topology"] = net::toString(point.topology);
    // New axes are serialized only at non-default values so BENCH json
    // stays byte-identical for grids that do not use them.
    if (point.config.placement != place::PlacementStrategy::kPath) {
        out.params["placement"] =
            place::toString(point.config.placement);
    }
    if (point.config.routing != compiler::RoutingMode::kNone)
        out.params["routing"] = compiler::toString(point.config.routing);
    if (point.config.route_window != 1)
        out.params["route_window"] = point.config.route_window;
    if (point.config.route_feedback)
        out.params["route_feedback"] = true;
    if (point.config.backend != q::BackendTier::kAuto)
        out.params["backend"] = q::toString(point.config.backend);
    if (point.config.fusion != q::FusionMode::kOff)
        out.params["fusion"] = q::toString(point.config.fusion);
    if (point.controllers != 0)
        out.params["controllers"] = point.controllers;
    if (point.latency_model != net::LinkLatencyModel::kUniform)
        out.params["latency_model"] = net::toString(point.latency_model);
    if (point.clustering != net::RouterClustering::kIdBlocks)
        out.params["clustering"] = net::toString(point.clustering);
    if (point.policy != net::RouterPolicy::Robust)
        out.params["policy"] = net::toString(point.policy);
    if (point.tree_arity != kDefaultTreeArity)
        out.params["tree_arity"] = point.tree_arity;
    out.params["qubits"] = circuit.numQubits();
    out.params["qubits_per_controller"] =
        point.config.qubits_per_controller;
    out.params["seed"] = point.seed;
    out.params["state_vector"] = point.state_vector;

    out.metrics["makespan_cycles"] = r.makespan;
    out.metrics["makespan_us"] = r.makespan_us;
    out.metrics["violations"] = r.violations;
    out.metrics["coincidence"] = r.coincidence;
    out.metrics["syncs"] = r.syncs;
    out.metrics["deadlock"] = r.deadlock;
    out.metrics["events"] = r.events;
    out.metrics["controllers"] = r.controllers;
    out.metrics["live_cycles"] = r.activity.totalLiveCycles();
    // Serialized only when the routing axis is engaged, so grids that do
    // not sweep it stay byte-identical.
    if (point.config.routing != compiler::RoutingMode::kNone)
        out.metrics["swaps_inserted"] = r.swaps;

    // Coincidence breaks under the lock-step baseline are *data* (the
    // paper's Section 1.1 issue-rate argument); under BISP or demand
    // sync they violate the cycle-level commitment guarantee and fail
    // the run. Deadlock always fails. A compile rejection (over-capacity
    // without routing) fails the point with the diagnostic as health.
    const bool coincidence_ok =
        r.coincidence == 0 ||
        point.config.scheme == compiler::SyncScheme::kLockStep;
    out.healthy = !r.rejected && !r.deadlock && coincidence_ok;
    out.health = r.rejected         ? "rejected: " + r.reject_reason
                 : r.deadlock       ? "deadlock"
                 : !coincidence_ok  ? "coincidence"
                                    : "ok";
    if (extend)
        extend(r, out);
    return out;
}

std::vector<SweepTask>
makeTasks(const std::vector<ExperimentPoint> &points,
          const MetricsHook &extend)
{
    std::vector<SweepTask> tasks;
    tasks.reserve(points.size());
    for (const auto &point : points) {
        tasks.push_back(SweepTask{point.label(), [point, extend] {
                                      return runPoint(point, extend);
                                  }});
    }
    return tasks;
}

} // namespace dhisq::sweep
