#include "core/core.hpp"

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace dhisq::core {

namespace {

TcuConfig
makeTcuConfig(const CoreConfig &config)
{
    TcuConfig tc;
    tc.num_ports = config.num_ports;
    tc.queue_capacity = config.queue_capacity;
    tc.control_queue_capacity = config.control_queue_capacity;
    return tc;
}

} // namespace

HisqCore::HisqCore(const CoreConfig &config, sim::Scheduler &sched,
                   TelfLog *telf, CoreHooks hooks)
    : _config(config), _sched(sched), _telf(telf),
      _name(prefixedNumber("C", config.id)), _hooks(std::move(hooks)),
      _tcu(makeTcuConfig(config), sched, telf, _name),
      _syncu(_tcu, sched, telf, _name), _mem(config.data_mem_bytes, 0)
{
    _tcu.setIssueFn([this](PortId port, Codeword cw, Cycle wall) {
        if (_hooks.on_codeword)
            _hooks.on_codeword(port, cw, wall);
    });
    _tcu.setControlFn([this](const TimedEvent &ev, Cycle wall) {
        _syncu.onControlEvent(ev, wall);
    });
    _tcu.setSpaceFn([this] {
        if (_stall == Stall::QueueFull) {
            _stall = Stall::None;
            scheduleStep(0);
        }
    });
    _syncu.setUplinks(_hooks.sync);
    _msgu.setDeliverFn([this](const Message &msg) {
        // Every arrival is also an external trigger pulse for wtrig.
        _syncu.onTrigger(msg.src);
        if (_stall == Stall::RecvWait) {
            _stall = Stall::None;
            scheduleStep(0);
        }
    });
}

void
HisqCore::loadProgram(isa::Program program)
{
    DHISQ_ASSERT(!_started, "cannot reload a running core");
    _program = std::move(program);
    _pc = 0;
}

void
HisqCore::start()
{
    DHISQ_ASSERT(!_program.empty(), "no program loaded on ", _name);
    DHISQ_ASSERT(!_started, "core already started");
    _started = true;
    scheduleStep(_config.start_at >= _sched.now()
                     ? _config.start_at - _sched.now()
                     : 0);
}

void
HisqCore::deliverMessage(std::uint32_t src, std::uint32_t payload)
{
    _msgu.deliver(src, payload);
}

void
HisqCore::deliverSyncSignal(ControllerId from)
{
    _syncu.onNearbySignal(from);
}

void
HisqCore::deliverRegionNotify(Cycle t_final)
{
    _syncu.onRegionNotify(t_final);
}

void
HisqCore::scheduleStep(Cycle delay)
{
    if (_step_scheduled || _halted)
        return;
    _step_scheduled = true;
    _sched.scheduleIn(delay, [this] {
        _step_scheduled = false;
        step();
    });
}

void
HisqCore::step()
{
    if (_halted || _stall != Stall::None)
        return;
    const std::size_t index = _pc / 4;
    DHISQ_ASSERT(index < _program.size(), _name,
                 ": pc ran off the end of the program (missing halt?)");
    const isa::Instruction &ins = _program.instructions[index];
    _stats.inc("instructions_executed");
    if (execute(ins) && !_halted)
        scheduleStep(_config.classical_cpi);
}

bool
HisqCore::execute(const isa::Instruction &ins)
{
    using isa::Op;
    using isa::OpClass;

    switch (isa::classOf(ins.op)) {
      case OpClass::Classical:
        return executeClassical(ins);

      case OpClass::Branch:
        return executeBranch(ins);

      case OpClass::Wait: {
        const Cycle d = (ins.op == Op::kWaitI)
                            ? Cycle(std::uint32_t(ins.imm))
                            : Cycle(_regs[ins.rs1]);
        _tcu.advanceCursor(d);
        _pc += 4;
        return true;
      }

      case OpClass::Codeword: {
        const bool port_imm = (ins.op == Op::kCwII || ins.op == Op::kCwIR);
        const bool cw_imm = (ins.op == Op::kCwII || ins.op == Op::kCwRI);
        const PortId port = port_imm ? PortId(ins.imm)
                                     : PortId(_regs[ins.rs1]);
        const Codeword cw = cw_imm ? Codeword(ins.imm2)
                                   : Codeword(_regs[ins.rs2]);
        if (!_tcu.canEnqueueCodeword(port)) {
            _stall = Stall::QueueFull;
            _stats.inc("pipeline_stalls_queue");
            return false;
        }
        _tcu.enqueueCodeword(port, cw);
        _pc += 4;
        return true;
      }

      case OpClass::Sync: {
        if (!_tcu.canEnqueueControl()) {
            _stall = Stall::QueueFull;
            _stats.inc("pipeline_stalls_queue");
            return false;
        }
        TimedEvent ev;
        ev.kind = TimedEventKind::Sync;
        ev.target = ins.imm;
        ev.residual = ins.imm2;
        _tcu.enqueueControl(ev);
        _pc += 4;
        return true;
      }

      case OpClass::Trigger: {
        if (!_tcu.canEnqueueControl()) {
            _stall = Stall::QueueFull;
            _stats.inc("pipeline_stalls_queue");
            return false;
        }
        TimedEvent ev;
        ev.kind = TimedEventKind::Wtrig;
        ev.target = ins.imm;
        _tcu.enqueueControl(ev);
        _pc += 4;
        return true;
      }

      case OpClass::Message: {
        if (ins.op == Op::kSend) {
            DHISQ_ASSERT(_hooks.on_send, _name, ": send without fabric");
            _hooks.on_send(ControllerId(ins.imm), _regs[ins.rs2]);
            _stats.inc("messages_sent");
            if (_telf) {
                _telf->record(_sched.now(), _name, TelfKind::MsgSend, -1,
                              _regs[ins.rs2],
                              prefixedNumber("dst=", ins.imm));
            }
            _pc += 4;
            return true;
        }
        Message msg;
        if (!_msgu.tryRecv(std::uint32_t(ins.imm), &msg)) {
            _stall = Stall::RecvWait;
            _stats.inc("pipeline_stalls_recv");
            return false;
        }
        writeReg(ins.rd, msg.payload);
        if (_telf) {
            _telf->record(_sched.now(), _name, TelfKind::MsgRecv, -1,
                          msg.payload, prefixedNumber("src=", msg.src));
        }
        _pc += 4;
        return true;
      }

      case OpClass::Halt: {
        _halted = true;
        _halt_cycle = _sched.now();
        if (_telf)
            _telf->record(_halt_cycle, _name, TelfKind::Halt);
        return true;
      }

      case OpClass::Invalid:
        DHISQ_PANIC(_name, ": invalid instruction at pc=", _pc);
    }
    return false;
}

bool
HisqCore::executeClassical(const isa::Instruction &ins)
{
    using isa::Op;
    const std::uint32_t a = _regs[ins.rs1];
    const std::uint32_t b = _regs[ins.rs2];
    const std::uint32_t imm = std::uint32_t(ins.imm);
    const auto sa = std::int32_t(a);

    switch (ins.op) {
      case Op::kAdd:   writeReg(ins.rd, a + b); break;
      case Op::kSub:   writeReg(ins.rd, a - b); break;
      case Op::kSll:   writeReg(ins.rd, a << (b & 31)); break;
      case Op::kSlt:   writeReg(ins.rd, sa < std::int32_t(b) ? 1 : 0); break;
      case Op::kSltu:  writeReg(ins.rd, a < b ? 1 : 0); break;
      case Op::kXor:   writeReg(ins.rd, a ^ b); break;
      case Op::kSrl:   writeReg(ins.rd, a >> (b & 31)); break;
      case Op::kSra:   writeReg(ins.rd, std::uint32_t(sa >> (b & 31))); break;
      case Op::kOr:    writeReg(ins.rd, a | b); break;
      case Op::kAnd:   writeReg(ins.rd, a & b); break;

      case Op::kAddi:  writeReg(ins.rd, a + imm); break;
      case Op::kSlti:  writeReg(ins.rd, sa < ins.imm ? 1 : 0); break;
      case Op::kSltiu: writeReg(ins.rd, a < imm ? 1 : 0); break;
      case Op::kXori:  writeReg(ins.rd, a ^ imm); break;
      case Op::kOri:   writeReg(ins.rd, a | imm); break;
      case Op::kAndi:  writeReg(ins.rd, a & imm); break;
      case Op::kSlli:  writeReg(ins.rd, a << (ins.imm & 31)); break;
      case Op::kSrli:  writeReg(ins.rd, a >> (ins.imm & 31)); break;
      case Op::kSrai:  writeReg(ins.rd, std::uint32_t(sa >> (ins.imm & 31)));
                       break;

      case Op::kLui:   writeReg(ins.rd, imm); break;
      case Op::kAuipc: writeReg(ins.rd, _pc + imm); break;

      case Op::kLb:  writeReg(ins.rd, loadMem(a + imm, 1, true)); break;
      case Op::kLh:  writeReg(ins.rd, loadMem(a + imm, 2, true)); break;
      case Op::kLw:  writeReg(ins.rd, loadMem(a + imm, 4, false)); break;
      case Op::kLbu: writeReg(ins.rd, loadMem(a + imm, 1, false)); break;
      case Op::kLhu: writeReg(ins.rd, loadMem(a + imm, 2, false)); break;
      case Op::kSb:  storeMem(a + imm, 1, b); break;
      case Op::kSh:  storeMem(a + imm, 2, b); break;
      case Op::kSw:  storeMem(a + imm, 4, b); break;

      default:
        DHISQ_PANIC("not a classical op");
    }
    _pc += 4;
    return true;
}

bool
HisqCore::executeBranch(const isa::Instruction &ins)
{
    using isa::Op;
    const std::uint32_t a = _regs[ins.rs1];
    const std::uint32_t b = _regs[ins.rs2];

    bool taken = false;
    switch (ins.op) {
      case Op::kJal:
        writeReg(ins.rd, _pc + 4);
        _pc += std::uint32_t(ins.imm);
        return true;
      case Op::kJalr: {
        const std::uint32_t ret = _pc + 4;
        _pc = (a + std::uint32_t(ins.imm)) & ~1u;
        writeReg(ins.rd, ret);
        return true;
      }
      case Op::kBeq:  taken = a == b; break;
      case Op::kBne:  taken = a != b; break;
      case Op::kBlt:  taken = std::int32_t(a) < std::int32_t(b); break;
      case Op::kBge:  taken = std::int32_t(a) >= std::int32_t(b); break;
      case Op::kBltu: taken = a < b; break;
      case Op::kBgeu: taken = a >= b; break;
      default:
        DHISQ_PANIC("not a branch op");
    }
    _pc = taken ? _pc + std::uint32_t(ins.imm) : _pc + 4;
    return true;
}

void
HisqCore::writeReg(unsigned index, std::uint32_t value)
{
    DHISQ_ASSERT(index < 32, "register index out of range");
    if (index != 0)
        _regs[index] = value;
}

std::uint32_t
HisqCore::loadMem(std::uint32_t addr, unsigned bytes, bool sign)
{
    DHISQ_ASSERT(std::size_t(addr) + bytes <= _mem.size(), _name,
                 ": load out of bounds at ", addr);
    std::uint32_t value = 0;
    for (unsigned i = 0; i < bytes; ++i)
        value |= std::uint32_t(_mem[addr + i]) << (8 * i);
    if (sign && bytes < 4) {
        const std::uint32_t sign_bit = 1u << (8 * bytes - 1);
        if (value & sign_bit)
            value |= ~((sign_bit << 1) - 1);
    }
    return value;
}

void
HisqCore::storeMem(std::uint32_t addr, unsigned bytes, std::uint32_t value)
{
    DHISQ_ASSERT(std::size_t(addr) + bytes <= _mem.size(), _name,
                 ": store out of bounds at ", addr);
    for (unsigned i = 0; i < bytes; ++i)
        _mem[addr + i] = std::uint8_t(value >> (8 * i));
}

} // namespace dhisq::core
