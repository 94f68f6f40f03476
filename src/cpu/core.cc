#include "cpu/core.hh"

#include "sim/logging.hh"

namespace tlr
{

Core::Core(EventQueue &eq, StatSet &stats, CpuId id, Rng rng)
    : eq_(eq), stats_(stats), id_(id), rng_(rng),
      instRetired_(stats.counter("core" + std::to_string(id), "instRetired")),
      busyCycles_(stats.counter("core" + std::to_string(id), "busyCycles")),
      delayCycles_(stats.counter("core" + std::to_string(id), "delayCycles")),
      lockCycles_(stats.counter("core" + std::to_string(id), "lockCycles")),
      dataStallCycles_(
          stats.counter("core" + std::to_string(id), "dataStallCycles")),
      haltTick_(stats.counter("core" + std::to_string(id), "haltTick"))
{
}

void
Core::start(Tick when)
{
    if (!prog_ || !port_)
        fatal("core %d started without program or port", id_);
    state_ = State::Running;
    Tick at = when < eq_.now() ? eq_.now() : when;
    scheduleTick(at - eq_.now());
}

void
Core::scheduleTick(Tick delta)
{
    const std::uint64_t myGen = gen_;
    eq_.scheduleIn(delta,
                   [this, myGen] {
                       if (myGen == gen_ && state_ == State::Running)
                           tick();
                   },
                   EventPrio::CoreTick);
}

void
Core::tick()
{
    if (pc_ < 0 || pc_ >= prog_->size())
        panic("core %d pc %d out of range", id_, pc_);
    execute(prog_->at(pc_));
}

void
Core::execute(const Instruction &inst)
{
    auto rv = [this](Reg r) { return r == 0 ? 0 : regs_[r]; };
    auto wr = [this](Reg r, std::uint64_t v) {
        if (r != 0)
            regs_[r] = v;
    };

    ++instRetired_;

    if (inst.isMem()) {
        issueMem(inst);
        return;
    }

    ++busyCycles_;
    Tick extra = 0;
    int next = pc_ + 1;

    switch (inst.op) {
      case Opcode::Li: wr(inst.rd, static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Mov: wr(inst.rd, rv(inst.rs1)); break;
      case Opcode::Add: wr(inst.rd, rv(inst.rs1) + rv(inst.rs2)); break;
      case Opcode::Sub: wr(inst.rd, rv(inst.rs1) - rv(inst.rs2)); break;
      case Opcode::Mul: wr(inst.rd, rv(inst.rs1) * rv(inst.rs2)); break;
      case Opcode::And: wr(inst.rd, rv(inst.rs1) & rv(inst.rs2)); break;
      case Opcode::Or: wr(inst.rd, rv(inst.rs1) | rv(inst.rs2)); break;
      case Opcode::Xor: wr(inst.rd, rv(inst.rs1) ^ rv(inst.rs2)); break;
      case Opcode::Addi:
        wr(inst.rd, rv(inst.rs1) + static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Slli: wr(inst.rd, rv(inst.rs1) << inst.imm); break;
      case Opcode::Srli: wr(inst.rd, rv(inst.rs1) >> inst.imm); break;
      case Opcode::Andi:
        wr(inst.rd, rv(inst.rs1) & static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Slt:
        wr(inst.rd, static_cast<std::int64_t>(rv(inst.rs1)) <
                            static_cast<std::int64_t>(rv(inst.rs2))
                        ? 1
                        : 0);
        break;
      case Opcode::Seq:
        wr(inst.rd, rv(inst.rs1) == rv(inst.rs2) ? 1 : 0);
        break;
      case Opcode::Beq:
        if (rv(inst.rs1) == rv(inst.rs2))
            next = static_cast<int>(inst.imm);
        break;
      case Opcode::Bne:
        if (rv(inst.rs1) != rv(inst.rs2))
            next = static_cast<int>(inst.imm);
        break;
      case Opcode::Blt:
        if (static_cast<std::int64_t>(rv(inst.rs1)) <
            static_cast<std::int64_t>(rv(inst.rs2)))
            next = static_cast<int>(inst.imm);
        break;
      case Opcode::Bge:
        if (static_cast<std::int64_t>(rv(inst.rs1)) >=
            static_cast<std::int64_t>(rv(inst.rs2)))
            next = static_cast<int>(inst.imm);
        break;
      case Opcode::Jmp: next = static_cast<int>(inst.imm); break;
      case Opcode::Rnd: wr(inst.rd, rng_.below(rv(inst.rs1))); break;
      case Opcode::Delay:
        extra = rv(inst.rs1);
        delayCycles_ += extra;
        break;
      case Opcode::Io: {
        const std::uint64_t genBefore = gen_;
        port_->io(id_);
        // The speculation engine may have squashed and restarted us
        // (unbufferable op inside a region): the checkpoint restore
        // bumped gen_ and rescheduled execution, so this instruction
        // must not commit its fall-through.
        if (gen_ != genBefore)
            return;
        break;
      }
      case Opcode::Nop: break;
      case Opcode::Halt:
        state_ = State::Halted;
        haltTick_ = eq_.now();
        if (onHalt_)
            onHalt_(id_);
        return;
      default:
        panic("core %d: unhandled opcode in %s", id_,
              disassemble(inst).c_str());
    }

    pc_ = next;
    scheduleTick(1 + extra);
}

void
Core::issueMem(const Instruction &inst)
{
    auto rv = [this](Reg r) { return r == 0 ? 0 : regs_[r]; };
    Addr addr = rv(inst.rs1) + static_cast<std::uint64_t>(inst.imm);
    if (addr & 7)
        panic("core %d: unaligned access %#llx at pc %d", id_,
              static_cast<unsigned long long>(addr), pc_);

    CoreMemOp op;
    switch (inst.op) {
      case Opcode::Ld: op.type = CoreMemOp::Type::Load; break;
      case Opcode::Ll: op.type = CoreMemOp::Type::LoadLinked; break;
      case Opcode::St: op.type = CoreMemOp::Type::Store; break;
      case Opcode::Sc: op.type = CoreMemOp::Type::StoreCond; break;
      case Opcode::Amoswap:
        op.type = CoreMemOp::Type::AtomicSwap;
        break;
      case Opcode::Amocas:
        op.type = CoreMemOp::Type::AtomicCas;
        op.expected = rv(inst.rd);
        break;
      case Opcode::Amoadd:
        op.type = CoreMemOp::Type::AtomicAdd;
        break;
      default: panic("not a memory opcode");
    }
    op.addr = addr;
    op.data = rv(inst.rs2);
    op.pc = pc_;
    op.gen = gen_;

    state_ = State::WaitMem;
    waitStart_ = eq_.now();
    waitAddr_ = addr;
    pendingRd_ = inst.rd;
    pendingIsSc_ = inst.op == Opcode::Sc || inst.isAtomic();
    pendingIsLoad_ = inst.isLoad();

    port_->request(op);
}

void
Core::memResponse(const MemResponse &resp)
{
    if (resp.gen != gen_ || state_ != State::WaitMem)
        return; // stale: this wait was squashed by a restart
    accountStall(eq_.now() - waitStart_, waitAddr_);
    if (pendingIsLoad_ || pendingIsSc_)
        setReg(pendingRd_, resp.value);
    state_ = State::Running;
    ++pc_;
    if (pendingSuspend_ > 0) {
        Tick d = pendingSuspend_;
        pendingSuspend_ = 0;
        suspend(d);
        return;
    }
    scheduleTick(1);
}

void
Core::accountStall(Tick cycles, Addr addr)
{
    if (cycles == 0)
        cycles = 1;
    if (isLockAddr_ && isLockAddr_(addr))
        lockCycles_ += cycles;
    else
        dataStallCycles_ += cycles;
}

void
Core::suspend(Tick duration)
{
    if (state_ == State::Halted)
        return;
    if (state_ == State::WaitMem) {
        // The in-flight operation may already have taken effect at
        // the memory system (a store or SC is not replayable), so the
        // preemption takes effect at the instruction boundary.
        pendingSuspend_ = duration;
        return;
    }
    ++gen_; // squash in-flight waits and pending ticks
    state_ = State::Idle;
    if (!preemptions_)
        preemptions_ =
            &stats_.counter("core" + std::to_string(id_), "preemptions");
    ++*preemptions_;
    eq_.scheduleIn(duration, [this, myGen = gen_] {
        if (myGen != gen_ || state_ != State::Idle)
            return;
        state_ = State::Running;
        scheduleTick(1);
    });
}

Checkpoint
Core::takeCheckpoint() const
{
    Checkpoint cp;
    cp.regs = regs_;
    cp.pc = pc_;
    return cp;
}

void
Core::restoreCheckpoint(const Checkpoint &cp)
{
    regs_ = cp.regs;
    pc_ = cp.pc;
    ++gen_; // squash in-flight waits and stale tick events
    state_ = State::Running;
    scheduleTick(1);
}

} // namespace tlr
