#include "harness/system.hh"

#include "sim/logging.hh"

namespace tlr
{

namespace
{

std::unique_ptr<Interconnect>
makeInterconnect(Protocol p, EventQueue &eq, StatSet &stats,
                 InterconnectParams params)
{
    if (p == Protocol::Directory)
        return std::make_unique<DirectoryInterconnect>(eq, stats, params);
    return std::make_unique<BroadcastInterconnect>(eq, stats, params);
}

} // namespace

System::System(const MachineParams &params)
    : params_(params), store_(params.l2Lines),
      net_(makeInterconnect(params.protocol, eq_, stats_, params.net)),
      mem_(eq_, stats_, *net_, store_, params.mem)
{
    net_->setMemory(&mem_);
    trace_.configure(params.trace.ringCapacity, params.trace.echoText);
    if (params.trace.checkInvariants) {
        checkers_ = std::make_unique<InvariantRegistry>(
            stats_, &trace_, params.trace, params.spec.deferUntimestamped,
            params.l1.yieldTimeout);
        trace_.addListener(checkers_.get());
    }
    if (params.collectMetrics) {
        metrics_ = std::make_unique<MetricsCollector>();
        trace_.addListener(metrics_.get());
    }
    if (params.explain) {
        explain_ = std::make_unique<Explainer>(params.explainTopK);
        trace_.addListener(explain_.get());
    }
    if (params.timelineEpoch > 0) {
        timeline_ = std::make_unique<EpochTimeline>(params.timelineEpoch);
        trace_.addListener(timeline_.get());
    }
    net_->setTrace(&trace_);
    Rng root(params.seed);
    for (int i = 0; i < params.numCpus; ++i) {
        engines_.push_back(std::make_unique<SpecEngine>(
            eq_, stats_, i, params.spec));
        l1s_.push_back(std::make_unique<L1Controller>(
            eq_, stats_, i, params.l1, *net_, mem_, *engines_.back()));
        cores_.push_back(std::make_unique<Core>(
            eq_, stats_, i, root.fork(static_cast<std::uint64_t>(i) + 1)));
        engines_.back()->setCore(cores_.back().get());
        engines_.back()->setL1(l1s_.back().get());
        engines_.back()->setTrace(&trace_);
        l1s_.back()->setTrace(&trace_);
        cores_.back()->setPort(engines_.back().get());
        net_->addSnooper(l1s_.back().get());
        cores_.back()->setHaltHook([this](CpuId) {
            // Events run in tick order, so the last halt is the latest.
            completionTick_ = eq_.now();
            ++haltedCount_;
        });
    }
}

void
System::setProgram(int cpu, ProgramPtr prog)
{
    core(cpu).setProgram(std::move(prog));
}

void
System::setLockClassifier(std::function<bool(Addr)> f)
{
    for (auto &c : cores_)
        c->setLockClassifier(f);
    if (metrics_)
        metrics_->setLockClassifier(f);
}

void
System::preemptCore(int cpu, Tick when, Tick duration)
{
    eq_.schedule(when, [this, cpu, duration] {
        if (core(cpu).halted())
            return;
        engine(cpu).descheduled();
        core(cpu).suspend(duration);
    });
}

bool
System::run()
{
    for (auto &c : cores_)
        c->start(0);
    bool drained = eq_.run(params_.maxTicks);
    trace_.finish(eq_.now());
    if (haltedCount_ == params_.numCpus)
        return true;
    if (drained) {
        // The event queue emptied with live cores: a deadlock in the
        // protocol or workload. This must never happen; fail loudly
        // with a full controller dump.
        std::string dump;
        for (auto &l1 : l1s_)
            dump += l1->debugState();
        for (auto &c : cores_)
            dump += strfmt("  core %d pc=%d halted=%d\n", c->id(),
                           c->pc(), c->halted() ? 1 : 0);
        panic("system quiesced with %d/%d cores halted at tick %llu\n%s",
              haltedCount_, params_.numCpus,
              static_cast<unsigned long long>(eq_.now()), dump.c_str());
    }
    return false; // watchdog expired (livelock experiments)
}

} // namespace tlr
