//! RUU-based out-of-order core with speculative loads (experiments D–F).
//!
//! The Register Update Unit (Sohi \[41\]) unifies the reorder buffer and
//! reservation stations: uops dispatch in order into RUU slots, issue out
//! of order as operands arrive, and commit in order. Loads issue
//! speculatively (they do not wait for earlier branches); mispredicted
//! branches redirect fetch at resolution. The load/store queue bounds
//! in-flight memory operations; slots and LSQ entries free at commit.

use crate::bpred::{BranchPredictor, TwoLevelPredictor};
use crate::machine::MachineSpec;
use crate::memsys::MemSystem;
use membw_runner::{CancelToken, RunCtx};
use membw_trace::uop::NUM_REGS;
use membw_trace::{OpClass, TraceSink, Uop, Workload};
use std::collections::VecDeque;

/// Per-cycle slot accounting that tolerates out-of-order requests.
///
/// A dense ring of per-cycle counters over the active scheduling window
/// (`base` is the cycle of the ring's front). Scheduling and pruning
/// are amortized O(1) with no steady-state allocation — the ring's
/// capacity converges on the widest window the run ever needs. This is
/// the hot loop of the out-of-order core: every uop books a dispatch,
/// issue, (possibly) memory-port, and commit slot.
#[derive(Debug)]
struct CycleWidth {
    width: u32,
    counts: VecDeque<u32>,
    /// Cycle number of `counts[0]`; requests below it are clamped up,
    /// exactly like the pruned watermark they replace.
    base: u64,
}

impl CycleWidth {
    fn new(width: u32) -> Self {
        Self {
            width,
            counts: VecDeque::new(),
            base: 0,
        }
    }

    /// First cycle `>= earliest` with a free slot; books it.
    fn schedule(&mut self, earliest: u64) -> u64 {
        let t = earliest.max(self.base);
        let mut idx = (t - self.base) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        loop {
            if self.counts[idx] < self.width {
                self.counts[idx] += 1;
                return self.base + idx as u64;
            }
            idx += 1;
            if idx == self.counts.len() {
                self.counts.push_back(0);
            }
        }
    }

    /// Cycles `< floor` can never be requested again; drop their entries.
    fn prune(&mut self, floor: u64) {
        while self.base < floor {
            if self.counts.pop_front().is_none() {
                self.base = floor;
                return;
            }
            self.base += 1;
        }
    }
}

/// The out-of-order pipeline, consuming uops as a [`TraceSink`].
#[derive(Debug)]
pub struct RuuCore {
    mem: MemSystem,
    bpred: TwoLevelPredictor,
    reg_ready: [u64; NUM_REGS],
    /// Commit times of the last `ruu_slots` uops (slot reuse).
    slot_free: VecDeque<u64>,
    ruu_slots: usize,
    /// Commit times of the last `lsq_entries` memory uops.
    lsq_free: VecDeque<u64>,
    lsq_entries: usize,
    dispatch: CycleWidth,
    issue: CycleWidth,
    mem_ports: CycleWidth,
    commit: CycleWidth,
    fetch_cycle: u64,
    fetch_in_cycle: u32,
    fetch_width: u32,
    pc: u64,
    cur_fetch_block: u64,
    last_commit: u64,
    mispredict_penalty: u64,
    finish: u64,
    uops: u64,
    /// Ambient cancellation token, captured at construction and polled
    /// on the same 4096-uop cadence as the scheduler prune, so a drain
    /// or deadline stops a simulation within milliseconds.
    cancel: CancelToken,
}

impl RuuCore {
    /// Build the core around an already-constructed memory system.
    ///
    /// # Panics
    ///
    /// Panics if the spec's RUU or LSQ size is zero.
    pub fn new(spec: &MachineSpec, mem: MemSystem) -> Self {
        assert!(spec.ruu_slots > 0, "out-of-order core needs RUU slots");
        assert!(spec.lsq_entries > 0, "out-of-order core needs LSQ entries");
        Self {
            mem,
            bpred: TwoLevelPredictor::new(spec.bpred_entries, 8),
            reg_ready: [0; NUM_REGS],
            slot_free: VecDeque::with_capacity(spec.ruu_slots),
            ruu_slots: spec.ruu_slots,
            lsq_free: VecDeque::with_capacity(spec.lsq_entries),
            lsq_entries: spec.lsq_entries,
            dispatch: CycleWidth::new(spec.issue_width),
            issue: CycleWidth::new(spec.issue_width),
            mem_ports: CycleWidth::new(2),
            commit: CycleWidth::new(spec.issue_width),
            fetch_cycle: 0,
            fetch_in_cycle: 0,
            fetch_width: spec.issue_width,
            pc: 0x1000,
            cur_fetch_block: u64::MAX,
            last_commit: 0,
            mispredict_penalty: spec.mispredict_penalty,
            finish: 0,
            uops: 0,
            cancel: RunCtx::current().cancel.clone(),
        }
    }

    /// Run `workload` to completion; returns total cycles and the memory
    /// system.
    pub fn run<W: Workload + ?Sized>(
        spec: &MachineSpec,
        mem: MemSystem,
        workload: &W,
    ) -> (u64, MemSystem) {
        let mut core = Self::new(spec, mem);
        workload.generate(&mut core);
        core.into_result()
    }

    /// Total uops consumed.
    pub fn uops(&self) -> u64 {
        self.uops
    }

    /// Finish the run: total cycles and the memory system (for stats).
    pub fn into_result(self) -> (u64, MemSystem) {
        (self.finish.max(1), self.mem)
    }

    fn fetch_time(&mut self, ends_group: bool) -> u64 {
        let t = self.fetch_cycle;
        self.fetch_in_cycle += 1;
        if self.fetch_in_cycle >= self.fetch_width || ends_group {
            self.fetch_cycle += 1;
            self.fetch_in_cycle = 0;
        }
        t
    }

    /// Gate fetch on the I-cache when the synthetic PC crosses into a
    /// new fetch block (the paper's simulations include instruction
    /// fetching).
    fn gate_fetch(&mut self) {
        let block = self.pc / 32;
        if block != self.cur_fetch_block {
            let ready = self.mem.ifetch(self.fetch_cycle, self.pc);
            if ready > self.fetch_cycle {
                self.fetch_cycle = ready;
                self.fetch_in_cycle = 0;
            }
            self.cur_fetch_block = block;
        }
    }

    /// Advance the synthetic PC past `uop` (taken branches jump to their
    /// site address, closing the loop). Straight-line code wraps within
    /// a bounded hot-code region — real programs' instruction footprints
    /// are finite even when their data streams are not.
    fn advance_pc(&mut self, uop: &Uop) {
        const CODE_BASE: u64 = 0x1000;
        const CODE_EXTENT: u64 = 32 * 1024;
        self.pc = match uop.branch {
            Some(b) if b.taken => b.pc,
            _ => CODE_BASE + self.pc.wrapping_add(4).wrapping_sub(CODE_BASE) % CODE_EXTENT,
        };
    }

    fn operands_ready(&self, uop: &Uop) -> u64 {
        uop.srcs
            .iter()
            .flatten()
            .map(|&r| self.reg_ready[usize::from(r)])
            .max()
            .unwrap_or(0)
    }
}

impl TraceSink for RuuCore {
    fn uop(&mut self, uop: Uop) {
        self.uops += 1;
        self.gate_fetch();
        self.advance_pc(&uop);
        let taken_branch = uop.branch.is_some_and(|b| b.taken);
        let fetched = self.fetch_time(taken_branch);

        // Dispatch: in order, when an RUU slot (and LSQ entry) frees.
        let mut earliest = fetched;
        if self.slot_free.len() >= self.ruu_slots {
            earliest = earliest.max(self.slot_free.pop_front().expect("full queue"));
        }
        if uop.class.is_mem() && self.lsq_free.len() >= self.lsq_entries {
            earliest = earliest.max(self.lsq_free.pop_front().expect("full queue"));
        }
        let dispatched = self.dispatch.schedule(earliest);

        // Issue: out of order, operands + width + ports.
        let ready = self.operands_ready(&uop).max(dispatched + 1);
        let issue = if uop.class.is_mem() {
            let t = self.issue.schedule(ready);
            self.mem_ports.schedule(t)
        } else {
            self.issue.schedule(ready)
        };

        let complete = match uop.class {
            OpClass::Load => {
                let addr = uop.mem.expect("load carries an address").addr;
                self.mem.load(issue, addr)
            }
            OpClass::Store => {
                // Address/data ready at issue; memory update at commit
                // through the write buffer.
                issue + 1
            }
            OpClass::Branch => {
                let b = uop.branch.expect("branch carries info");
                let resolve = issue + 1;
                if !self.bpred.access(b.pc, b.taken) {
                    let restart = resolve + self.mispredict_penalty;
                    if restart > self.fetch_cycle {
                        self.fetch_cycle = restart;
                        self.fetch_in_cycle = 0;
                    }
                }
                resolve
            }
            c => issue + u64::from(c.latency()),
        };
        if let Some(d) = uop.dest {
            self.reg_ready[usize::from(d)] = complete;
        }

        // Commit: in order, after completion.
        let commit = self.commit.schedule(complete.max(self.last_commit));
        self.last_commit = commit;
        self.slot_free.push_back(commit);
        if uop.class.is_mem() {
            self.lsq_free.push_back(commit);
            if uop.class == OpClass::Store {
                // The store's memory side effect happens at commit.
                let addr = uop.mem.expect("store carries an address").addr;
                self.mem.store(commit, addr);
            }
        }
        self.finish = self.finish.max(commit);

        // Nothing can be scheduled before the oldest in-flight commit.
        if self.uops.is_multiple_of(4096) {
            self.cancel.check();
            let floor = self.slot_free.front().copied().unwrap_or(0);
            self.dispatch.prune(floor);
            self.issue.prune(floor);
            self.mem_ports.prune(floor);
            self.commit.prune(floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inorder::InOrderCore;
    use crate::machine::{Experiment, MemoryMode};
    use membw_trace::MemRef;

    fn run_ruu(uops: &[Uop], e: Experiment, mode: MemoryMode) -> u64 {
        let spec = MachineSpec::spec92(e);
        let mem = MemSystem::new(&spec.mem, mode);
        let mut core = RuuCore::new(&spec, mem);
        for &u in uops {
            core.uop(u);
        }
        core.into_result().0
    }

    fn run_inorder(uops: &[Uop], e: Experiment, mode: MemoryMode) -> u64 {
        let spec = MachineSpec::spec92(e);
        let mem = MemSystem::new(&spec.mem, mode);
        let mut core = InOrderCore::new(&spec, mem);
        for &u in uops {
            core.uop(u);
        }
        core.into_result().0
    }

    /// Interleaved long-latency loads and independent ALU work.
    fn miss_plus_alu(n: u64) -> Vec<Uop> {
        let mut uops = Vec::new();
        for i in 0..n {
            uops.push(Uop::load(
                MemRef::read(i * 0x40000, 4),
                Some(1),
                [None, None],
            ));
            // Dependent op right after the load (in-order pain).
            uops.push(Uop::compute(OpClass::IntAlu, Some(2), [Some(1), None]));
            // Independent work the OoO core can slide under the miss.
            for _ in 0..6 {
                uops.push(Uop::compute(OpClass::IntAlu, Some(3), [None, None]));
            }
        }
        uops
    }

    #[test]
    fn ooo_hides_latency_better_than_in_order() {
        let uops = miss_plus_alu(50);
        let t_in = run_inorder(&uops, Experiment::C, MemoryMode::Full);
        let t_ooo = run_ruu(&uops, Experiment::D, MemoryMode::Full);
        assert!(t_ooo < t_in, "out-of-order should win: {t_ooo} vs {t_in}");
    }

    #[test]
    fn wider_window_helps_on_miss_heavy_code() {
        // Same machine, only the RUU size varies; contention-free memory
        // so extra overlap cannot backfire through queueing.
        let uops = miss_plus_alu(80);
        let run_with_window = |slots: usize| {
            let mut spec = MachineSpec::spec92(Experiment::D);
            spec.ruu_slots = slots;
            let mem = MemSystem::new(&spec.mem, MemoryMode::LatencyOnly);
            let mut core = RuuCore::new(&spec, mem);
            for &u in &uops {
                core.uop(u);
            }
            core.into_result().0
        };
        let t_small = run_with_window(8);
        let t_big = run_with_window(64);
        assert!(
            t_big <= t_small,
            "bigger window cannot hurt: {t_big} vs {t_small}"
        );
    }

    #[test]
    fn dependent_chain_still_serializes() {
        let uops: Vec<Uop> = (0..100)
            .map(|_| Uop::compute(OpClass::IntAlu, Some(1), [Some(1), None]))
            .collect();
        let t = run_ruu(&uops, Experiment::D, MemoryMode::Perfect);
        assert!(t >= 100, "t = {t}");
    }

    #[test]
    fn independent_work_fills_the_width() {
        let uops: Vec<Uop> = (0..400)
            .map(|i| Uop::compute(OpClass::IntAlu, Some((i % 32) as u8), [None, None]))
            .collect();
        let t = run_ruu(&uops, Experiment::D, MemoryMode::Perfect);
        assert!((100..140).contains(&t), "4-wide: ~100 cycles, got {t}");
    }

    #[test]
    fn commit_is_in_order() {
        // A slow load followed by fast ALU ops: everything commits after
        // the load's completion, so total time tracks the load.
        let mut uops = vec![Uop::load(MemRef::read(0x80000, 4), Some(1), [None, None])];
        for _ in 0..8 {
            uops.push(Uop::compute(OpClass::IntAlu, Some(2), [None, None]));
        }
        let t_full = run_ruu(&uops, Experiment::D, MemoryMode::Full);
        let t_perfect = run_ruu(&uops, Experiment::D, MemoryMode::Perfect);
        assert!(t_full > t_perfect + 20, "{t_full} vs {t_perfect}");
    }

    #[test]
    fn lsq_bounds_inflight_memory_ops() {
        // More independent loads than LSQ entries: they cannot all overlap.
        let uops: Vec<Uop> = (0..64)
            .map(|i| Uop::load(MemRef::read(i * 0x40000, 4), Some(1), [None, None]))
            .collect();
        let t_small = {
            let mut spec = MachineSpec::spec92(Experiment::D);
            spec.lsq_entries = 2;
            let mem = MemSystem::new(&spec.mem, MemoryMode::LatencyOnly);
            let mut core = RuuCore::new(&spec, mem);
            for &u in &uops {
                core.uop(u);
            }
            core.into_result().0
        };
        let t_big = {
            let mut spec = MachineSpec::spec92(Experiment::D);
            spec.lsq_entries = 64;
            spec.ruu_slots = 64;
            let mem = MemSystem::new(&spec.mem, MemoryMode::LatencyOnly);
            let mut core = RuuCore::new(&spec, mem);
            for &u in &uops {
                core.uop(u);
            }
            core.into_result().0
        };
        assert!(t_small > t_big, "{t_small} vs {t_big}");
    }

    #[test]
    #[should_panic(expected = "RUU slots")]
    fn rejects_zero_window() {
        let mut spec = MachineSpec::spec92(Experiment::D);
        spec.ruu_slots = 0;
        let mem = MemSystem::new(&spec.mem, MemoryMode::Perfect);
        let _ = RuuCore::new(&spec, mem);
    }
}
