#include "runtime/machine.hpp"

#include <sstream>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "core/msgu.hpp"

namespace dhisq::runtime {

std::string
RunReport::summary() const
{
    std::ostringstream os;
    os << "makespan=" << makespan << "cy (" << cyclesToNs(makespan)
       << " ns), halted=" << halted_cores
       << (deadlock ? " DEADLOCK" : "")
       << ", violations=" << timing_violations
       << "+" << coincidence_violations
       << ", pauses=" << pause_cycles << "cy"
       << ", syncs=" << syncs_completed;
    return os.str();
}

Machine::Machine(const MachineConfig &config)
    : _config(config), _topology(net::Topology::build(config.topology))
{
    _device = std::make_unique<q::QuantumDevice>(config.device);
    _fabric = std::make_unique<net::Fabric>(_topology, _sched, &_telf,
                                            config.fabric);

    const unsigned n = _topology.numControllers();
    _boards.reserve(n);
    _cores.reserve(n);
    _has_program.assign(n, false);
    _meas_route.assign(config.device.num_qubits, kNoController);

    for (ControllerId id = 0; id < n; ++id) {
        core::BoardConfig bc;
        bc.name = prefixedNumber("B", id);
        bc.num_ports = config.ports_per_controller;
        _boards.push_back(std::make_unique<core::Board>(bc, _sched, &_telf,
                                                        _device.get()));

        core::CoreConfig cc;
        cc.id = id;
        cc.num_ports = config.ports_per_controller;
        cc.queue_capacity = config.queue_capacity;
        cc.control_queue_capacity = config.control_queue_capacity;
        cc.classical_cpi = config.classical_cpi;

        core::CoreHooks hooks = _fabric->hooksFor(id);
        core::Board *board = _boards.back().get();
        hooks.on_codeword = [board](PortId port, Codeword cw, Cycle wall) {
            board->onCodeword(port, cw, wall);
        };
        _cores.push_back(std::make_unique<core::HisqCore>(cc, _sched, &_telf,
                                                          std::move(hooks)));
        _fabric->registerCore(_cores.back().get());
    }

    // Route measurement results: the device hands (qubit, bit, ready) to the
    // responsible controller's MsgU as a kMeasResultSource message whose
    // payload packs (qubit << 1) | bit.
    _device->setResultCallback([this](QubitId qubit, int bit, Cycle ready) {
        DHISQ_ASSERT(qubit < _meas_route.size(), "unrouted qubit ", qubit);
        const ControllerId dst = _meas_route[qubit];
        DHISQ_ASSERT(dst != kNoController,
                     "no measurement-result route for qubit ", qubit);
        const std::uint32_t payload = (std::uint32_t(qubit) << 1) |
                                      std::uint32_t(bit);
        DHISQ_ASSERT(ready >= _sched.now(), "result ready in the past");
        _sched.schedule(ready, [this, dst, payload, ready] {
            _telf.record(ready, "DEV", TelfKind::MeasureResult, -1,
                         payload & 1);
            _cores[dst]->deliverMessage(core::kMeasResultSource, payload);
        });
    });
}

core::HisqCore &
Machine::core(ControllerId id)
{
    DHISQ_ASSERT(id < _cores.size(), "controller out of range");
    return *_cores[id];
}

core::Board &
Machine::board(ControllerId id)
{
    DHISQ_ASSERT(id < _boards.size(), "controller out of range");
    return *_boards[id];
}

void
Machine::loadProgram(ControllerId id, isa::Program program)
{
    core(id).loadProgram(std::move(program));
    _has_program[id] = true;
}

void
Machine::bind(ControllerId id, PortId port, Codeword cw,
              const q::Action &action)
{
    board(id).bind(port, cw, action);
}

void
Machine::routeMeasResult(QubitId qubit, ControllerId dst)
{
    DHISQ_ASSERT(qubit < _meas_route.size(), "qubit out of range");
    _meas_route[qubit] = dst;
}

RunReport
Machine::run(Cycle limit)
{
    bool any = false;
    for (ControllerId id = 0; id < _cores.size(); ++id) {
        if (_has_program[id]) {
            _cores[id]->start();
            any = true;
        }
    }
    if (!any)
        DHISQ_FATAL("Machine::run: no programs loaded");
    _sched.run(limit);

    RunReport report;
    report.makespan = _sched.now();
    report.events_executed = _sched.executed();
    report.coincidence_violations = _device->finalize();
    for (ControllerId id = 0; id < _cores.size(); ++id) {
        if (!_has_program[id])
            continue;
        const auto &c = *_cores[id];
        if (c.halted())
            ++report.halted_cores;
        else
            report.deadlock = true;
        report.timing_violations +=
            c.tcu().stats().counter("timing_violations");
        report.pause_cycles += c.tcu().stats().counter("pause_cycles");
        report.syncs_completed +=
            c.syncu().stats().counter("syncs_completed");
    }
    return report;
}

} // namespace dhisq::runtime
