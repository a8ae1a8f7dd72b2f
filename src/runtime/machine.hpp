/**
 * @file
 * The machine runtime: the "DQCtrl" rack (Figure 9) in simulation.
 *
 * A Machine assembles one board + HISQ core per controller, the hybrid
 * network fabric (mesh + router tree + optional star hub), and the shared
 * quantum device; it loads per-controller HISQ binaries, runs the
 * discrete-event simulation to quiescence and produces a RunReport with the
 * figures every bench consumes (makespan, sync overhead, violations,
 * fidelity inputs).
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/telf.hpp"
#include "common/types.hpp"
#include "core/board.hpp"
#include "core/core.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "quantum/device.hpp"
#include "sim/scheduler.hpp"

namespace dhisq::runtime {

/** Everything needed to assemble a Machine. */
struct MachineConfig
{
    net::TopologyConfig topology;
    net::FabricConfig fabric;
    q::DeviceConfig device;

    /** Ports per controller board. */
    unsigned ports_per_controller = 8;
    /** Codeword queue depth (paper: 1024 x 38 bit). */
    std::size_t queue_capacity = 1024;
    std::size_t control_queue_capacity = 64;
    /** Cycles per classical instruction. */
    Cycle classical_cpi = 1;
    /** Unread; the event loop is serial. Kept while benchmark/ sets it. */
    unsigned sim_threads = 1;
};

/** Outcome of one run. */
struct RunReport
{
    /** Cycle of the last simulated event (end-to-end execution time). */
    Cycle makespan = 0;
    /** True if the simulation drained while some core had not halted. */
    bool deadlock = false;
    /** Controllers that halted. */
    unsigned halted_cores = 0;
    /** TCU timing violations (issue-rate slips). */
    std::uint64_t timing_violations = 0;
    /** Two-qubit coincidence violations detected by the device. */
    std::size_t coincidence_violations = 0;
    /** Total cycles any TCU timer spent paused on synchronization. */
    std::uint64_t pause_cycles = 0;
    /** Completed synchronizations across all cores. */
    std::uint64_t syncs_completed = 0;
    /** Events executed by the kernel (simulator effort metric). */
    std::uint64_t events_executed = 0;

    std::string summary() const;
};

/** A fully-assembled distributed control system. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    unsigned numControllers() const { return _topology.numControllers(); }

    sim::Scheduler &scheduler() { return _sched; }
    TelfLog &telf() { return _telf; }
    q::QuantumDevice &device() { return *_device; }
    net::Fabric &fabric() { return *_fabric; }
    const net::Topology &topology() const { return _topology; }

    core::HisqCore &core(ControllerId id);
    core::Board &board(ControllerId id);

    /** Load a program onto one controller. */
    void loadProgram(ControllerId id, isa::Program program);

    /** Bind (port, codeword) -> action on a controller's board. */
    void bind(ControllerId id, PortId port, Codeword cw,
              const q::Action &action);

    /**
     * Route discriminated measurement results of `qubit` to controller
     * `dst` (delivered into its MsgU as source kMeasResultSource).
     */
    void routeMeasResult(QubitId qubit, ControllerId dst);

    /**
     * Run to quiescence (or until `limit`).
     * Only controllers with loaded programs participate.
     */
    RunReport run(Cycle limit = kNoCycle);

  private:
    MachineConfig _config;
    net::Topology _topology;
    sim::Scheduler _sched;
    TelfLog _telf;
    std::unique_ptr<q::QuantumDevice> _device;
    std::unique_ptr<net::Fabric> _fabric;
    std::vector<std::unique_ptr<core::Board>> _boards;
    std::vector<std::unique_ptr<core::HisqCore>> _cores;
    std::vector<bool> _has_program;
    std::vector<ControllerId> _meas_route;
};

} // namespace dhisq::runtime
