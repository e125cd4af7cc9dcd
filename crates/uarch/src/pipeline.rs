//! The out-of-order pipeline: fetch/dispatch, issue, writeback, commit.
//!
//! Structure follows SimpleScalar's `sim-outorder`: a unified RUU
//! (reorder buffer + issue window), an LSQ, a post-commit store buffer,
//! MSHR-limited cache misses, per-class functional-unit pools, and a
//! front end that runs down predicted paths — including *wrong* paths
//! after a mispredict, executed approximately against shadow register
//! state and cache tags (see [`crate::wrongpath`]).
//!
//! The correct-path oracle is a functional [`Emulator`] advanced at
//! fetch; wrong-path instructions are synthesized from the static
//! program image at the speculative fetch PC.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use spectral_cache::{AccessKind, CacheHierarchy, HitLevel};
use spectral_isa::{
    inst_index, BranchInfo, DecodedInst, DecodedProgram, Emulator, Inst, OpClass, Program, Reg,
};
use spectral_telemetry::Counter;

use crate::bpred::BranchPredictor;
use crate::config::MachineConfig;
use crate::stats::WindowStats;
use crate::wrongpath::ShadowRegs;

const INVALID_UID: u64 = u64::MAX;

// Process-wide pipeline counters, flushed once per `run`/
// `run_to_completion` (never per instruction) so the hot loop stays
// untouched. All compile to no-ops without the `telemetry` feature.
static TLM_FETCH_INSTS: Counter = Counter::new("uarch.fetch.insts");
static TLM_WRONG_PATH_INSTS: Counter = Counter::new("uarch.fetch.wrong_path_insts");
static TLM_ISSUE_INSTS: Counter = Counter::new("uarch.issue.insts");
static TLM_COMMIT_INSTS: Counter = Counter::new("uarch.commit.insts");
static TLM_CYCLES: Counter = Counter::new("uarch.commit.cycles");
static TLM_MISPREDICTS: Counter = Counter::new("uarch.bpred.mispredicts");
static TLM_L1D_MISSES: Counter = Counter::new("uarch.cache.l1d_misses");
static TLM_L2_MISSES: Counter = Counter::new("uarch.cache.l2_misses");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemClass {
    Load { forwarded: bool },
    Store,
}

#[derive(Debug, Clone)]
struct Entry {
    uid: u64,
    wrong_path: bool,
    op: OpClass,
    pc: u64,
    fall_through: u64,
    /// Outstanding (not-yet-complete) producers this entry waits on.
    /// When it reaches zero the entry enters the ready queue; issue no
    /// longer scans dependences at all.
    deps_left: u8,
    /// Uids of in-flight consumers to wake when this entry completes
    /// (the backing `Vec` is recycled through `DetailedSim::consumer_pool`
    /// so steady state allocates nothing).
    consumers: Vec<u64>,
    dst_int: Option<Reg>,
    dst_fp: Option<u8>,
    mem: Option<(MemClass, u64)>,
    issued: bool,
    complete: bool,
    complete_cycle: u64,
    /// Mispredicted correct-path branch: actual next PC to recover to.
    recover_to: Option<u64>,
    /// Branch outcome for commit-time predictor training.
    train: Option<BranchInfo>,
}

#[derive(Debug, Clone)]
struct Recovery {
    resolver_uid: u64,
    shadow: ShadowRegs,
    ras_tos: u32,
}

/// The cycle-level out-of-order timing simulator.
///
/// Construct with a cold ([`new`](Self::new)) or warmed
/// ([`with_state`](Self::with_state)) memory system and branch
/// predictor, then call [`run`](Self::run) to simulate a given number of
/// committed instructions. Accessors expose the warm structures so
/// warming strategies and live-point creation can snapshot or install
/// state.
#[derive(Debug)]
pub struct DetailedSim<'p> {
    cfg: MachineConfig,
    program: &'p Program,
    decoded: &'p DecodedProgram,
    oracle: Emulator<'p>,
    hierarchy: CacheHierarchy,
    bpred: BranchPredictor,
    shadow: ShadowRegs,

    cycle: u64,
    ruu: VecDeque<Entry>,
    next_uid: u64,
    lsq_count: u32,
    sbuf: VecDeque<u64>,
    mshr_busy_until: Vec<u64>,
    int_muldiv_busy: Vec<u64>,
    fp_muldiv_busy: Vec<u64>,

    int_producer: [u64; 32],
    fp_producer: [u64; 32],

    /// Unissued entries whose dependences are all satisfied, kept in
    /// ascending-uid (program) order so issue arbitration matches the
    /// old full-RUU scan bit for bit.
    ready: Vec<u64>,
    /// Entries woken since the last issue pass (by writeback or
    /// dispatch); merged into `ready` at the top of `issue_stage`.
    woken: Vec<u64>,
    /// Pending completion events `(complete_cycle, uid)` for issued
    /// entries — writeback pops due events instead of scanning the RUU.
    events: BinaryHeap<Reverse<(u64, u64)>>,
    /// Youngest in-flight store to each 8-byte word, replacing the
    /// reverse RUU scan in store-to-load dependence checks.
    store_by_word: HashMap<u64, u64>,
    /// Recycled consumer-list allocations.
    consumer_pool: Vec<Vec<u64>>,

    fetch_pc: u64,
    fetch_resume: u64,
    line_ready: (u64, u64), // (line number, ready cycle); line u64::MAX = none
    wrong_path: bool,
    recovery: Option<Recovery>,
    oracle_done: bool,
    commit_stop: u64,

    stats: WindowStats,
    fetched_insts: u64,
    issued_insts: u64,
    /// Cycles actually stepped, as opposed to skipped.
    #[cfg(test)]
    stepped: u64,
}

impl<'p> DetailedSim<'p> {
    /// Create a simulator with cold caches and predictor, with the
    /// correct-path oracle positioned wherever `oracle` currently is.
    pub fn new(cfg: &MachineConfig, program: &'p Program, oracle: Emulator<'p>) -> Self {
        let hierarchy = CacheHierarchy::new(cfg.hierarchy);
        let bpred = BranchPredictor::new(cfg.bpred);
        Self::with_state(cfg, program, oracle, hierarchy, bpred)
    }

    /// Create a simulator over pre-warmed memory-system and predictor
    /// state (the checkpointed-warming path).
    ///
    /// # Panics
    ///
    /// Panics if `hierarchy`'s geometry differs from `cfg.hierarchy`.
    pub fn with_state(
        cfg: &MachineConfig,
        program: &'p Program,
        oracle: Emulator<'p>,
        hierarchy: CacheHierarchy,
        bpred: BranchPredictor,
    ) -> Self {
        assert_eq!(
            hierarchy.config(),
            &cfg.hierarchy,
            "warm hierarchy geometry must match the machine configuration"
        );
        let fetch_pc = oracle.pc();
        DetailedSim {
            cfg: cfg.clone(),
            program,
            decoded: program.decoded(),
            oracle,
            hierarchy,
            bpred,
            shadow: ShadowRegs::new(),
            cycle: 0,
            ruu: VecDeque::new(),
            next_uid: 0,
            lsq_count: 0,
            sbuf: VecDeque::new(),
            mshr_busy_until: vec![0; cfg.mshrs as usize],
            int_muldiv_busy: vec![0; cfg.fu.int_muldiv as usize],
            fp_muldiv_busy: vec![0; cfg.fu.fp_muldiv as usize],
            int_producer: [INVALID_UID; 32],
            fp_producer: [INVALID_UID; 32],
            ready: Vec::new(),
            woken: Vec::new(),
            events: BinaryHeap::new(),
            store_by_word: HashMap::new(),
            consumer_pool: Vec::new(),
            fetch_pc,
            fetch_resume: 0,
            line_ready: (u64::MAX, 0),
            wrong_path: false,
            recovery: None,
            oracle_done: false,
            commit_stop: u64::MAX,
            stats: WindowStats::default(),
            fetched_insts: 0,
            issued_insts: 0,
            #[cfg(test)]
            stepped: 0,
        }
    }

    /// The machine configuration being simulated.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Shared view of the memory hierarchy (warm-state snapshotting).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Shared view of the branch predictor.
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// Shared view of the correct-path oracle.
    pub fn oracle(&self) -> &Emulator<'p> {
        &self.oracle
    }

    /// Cumulative statistics since construction.
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// Whether the oracle has exhausted the program and the pipeline has
    /// drained.
    pub fn is_done(&self) -> bool {
        self.oracle_done && self.ruu.is_empty()
    }

    /// Simulate until exactly `n` more instructions commit (or the
    /// program ends); returns the statistics delta for the interval.
    ///
    /// Commit is capped at the boundary so measurement intervals contain
    /// exactly the instructions the sample design specified.
    pub fn run(&mut self, n: u64) -> WindowStats {
        self.run_until(self.stats.committed + n, Self::step_cycle)
    }

    /// Simulate until the program ends and the pipeline drains; returns
    /// the statistics delta.
    pub fn run_to_completion(&mut self) -> WindowStats {
        self.run_until(u64::MAX, Self::step_cycle)
    }

    /// Call `step` until the committed count reaches `commit_stop` or the
    /// program ends; returns the statistics delta.
    fn run_until(&mut self, commit_stop: u64, mut step: impl FnMut(&mut Self)) -> WindowStats {
        let start = self.stats;
        let (fetched0, issued0) = (self.fetched_insts, self.issued_insts);
        self.commit_stop = commit_stop;
        while self.stats.committed < self.commit_stop && !self.is_done() {
            step(self);
        }
        self.commit_stop = u64::MAX;
        let delta = self.stats.since(&start);
        self.flush_telemetry(&delta, fetched0, issued0);
        delta
    }

    /// Flush this interval's counter deltas to the process-wide
    /// telemetry registry (one call per simulated interval, not per
    /// instruction; a no-op without the `telemetry` feature).
    fn flush_telemetry(&self, delta: &WindowStats, fetched0: u64, issued0: u64) {
        TLM_FETCH_INSTS.add(self.fetched_insts - fetched0);
        TLM_WRONG_PATH_INSTS.add(delta.wrong_path_fetched);
        TLM_ISSUE_INSTS.add(self.issued_insts - issued0);
        TLM_COMMIT_INSTS.add(delta.committed);
        TLM_CYCLES.add(delta.cycles);
        TLM_MISPREDICTS.add(delta.mispredicts);
        TLM_L1D_MISSES.add(delta.l1d_misses);
        TLM_L2_MISSES.add(delta.l2_misses);
    }

    /// Simulate one cycle, then skip the cycles that would repeat it:
    /// when no stage changed state, nothing can change before
    /// [`next_event`](Self::next_event), so the clock moves to the cycle
    /// just before it. The skipped cycles still count in `stats.cycles`.
    fn step_cycle(&mut self) {
        if !self.advance() {
            if let Some(next) = self.next_event() {
                self.cycle = next - 1;
            }
        }
    }

    /// Simulate one cycle; returns whether any stage changed state.
    fn advance(&mut self) -> bool {
        self.cycle += 1;
        #[cfg(test)]
        {
            self.stepped += 1;
        }
        // Stage order models same-cycle flow back-to-front.
        let mut changed = self.commit_stage();
        let ports_left = self.drain_store_buffer();
        changed |= ports_left < self.cfg.fu.mem_ports;
        changed |= self.writeback_stage();
        changed |= self.issue_stage(ports_left);
        changed |= self.fetch_stage();
        self.stats.cycles = self.cycle;
        changed
    }

    /// The earliest future cycle at which anything can change after a
    /// cycle in which nothing did. Every action blocked in such a cycle
    /// waits on one of these times: a completion event (an incomplete
    /// RUU head, a recovery that restarts a stalled or halted front
    /// end), the front end's resume cycle (mispredict refill, I-cache
    /// miss), a busy MSHR (a load or a store-buffer drain, and behind it
    /// a commit stalled on a full store buffer), or a busy unpipelined
    /// unit. A squashed load or divide leaves its MSHR or unit busy with
    /// no event, so those times are candidates beside the heap top. No
    /// other comparison with the clock can change its outcome (a
    /// completed head's `complete_cycle` is never in the future).
    fn next_event(&self) -> Option<u64> {
        let heap_top = self.events.peek().map(|&Reverse((when, _))| when);
        let units =
            self.mshr_busy_until.iter().chain(&self.int_muldiv_busy).chain(&self.fp_muldiv_busy);
        units.copied().chain(heap_top).chain([self.fetch_resume]).filter(|&t| t > self.cycle).min()
    }

    // --- commit --------------------------------------------------------

    fn commit_stage(&mut self) -> bool {
        let mut committed = 0;
        while committed < self.cfg.width && self.stats.committed < self.commit_stop {
            let Some(head) = self.ruu.front() else { break };
            if !head.complete || head.complete_cycle > self.cycle {
                break;
            }
            debug_assert!(!head.wrong_path, "wrong-path entry reached commit");
            if let Some((MemClass::Store, _)) = head.mem {
                if self.sbuf.len() >= self.cfg.store_buffer as usize {
                    break; // store buffer full: stall commit
                }
            }
            let head = self.ruu.pop_front().expect("checked above");
            match head.mem {
                Some((MemClass::Store, addr)) => {
                    // The word map tracks RUU residents only; drop the
                    // mapping unless a younger store superseded it.
                    if self.store_by_word.get(&(addr >> 3)) == Some(&head.uid) {
                        self.store_by_word.remove(&(addr >> 3));
                    }
                    self.sbuf.push_back(addr);
                    self.lsq_count -= 1;
                    self.stats.stores += 1;
                }
                Some((MemClass::Load { .. }, _)) => {
                    self.lsq_count -= 1;
                    self.stats.loads += 1;
                }
                None => {}
            }
            self.recycle_consumers(head.consumers);
            if let Some(info) = head.train {
                self.bpred.update(head.pc, head.fall_through, &info);
            }
            // Clear producer entries that still point at this uid.
            if let Some(r) = head.dst_int {
                if self.int_producer[r.index()] == head.uid {
                    self.int_producer[r.index()] = INVALID_UID;
                }
            }
            if let Some(f) = head.dst_fp {
                if self.fp_producer[f as usize] == head.uid {
                    self.fp_producer[f as usize] = INVALID_UID;
                }
            }
            self.stats.committed += 1;
            committed += 1;
        }
        committed > 0
    }

    // --- store buffer drain ---------------------------------------------

    /// Drain committed stores to the memory system; returns the memory
    /// ports left for loads this cycle.
    fn drain_store_buffer(&mut self) -> u32 {
        let mut ports = self.cfg.fu.mem_ports;
        while ports > 0 {
            let Some(&addr) = self.sbuf.front() else { break };
            let Some(mshr) = self.free_mshr() else { break };
            let out = self.hierarchy.access(AccessKind::Write, addr);
            if out.level != HitLevel::L1 {
                self.stats.l1d_misses += 1;
                let lat = self.cfg.access_latency(out.level, out.tlb_miss);
                self.mshr_busy_until[mshr] = self.cycle + lat;
                if out.level == HitLevel::Memory {
                    self.stats.l2_misses += 1;
                }
            }
            if out.tlb_miss {
                self.stats.dtlb_misses += 1;
            }
            self.sbuf.pop_front();
            ports -= 1;
        }
        ports
    }

    fn free_mshr(&self) -> Option<usize> {
        self.mshr_busy_until.iter().position(|&b| b <= self.cycle)
    }

    // --- writeback -------------------------------------------------------

    /// Locate an in-flight entry by uid. Uids are dense and the RUU is
    /// contiguous in uid space, so this is a front-offset index, not a
    /// search.
    #[inline]
    fn entry_index(&self, uid: u64) -> Option<usize> {
        let front = self.ruu.front()?;
        if uid < front.uid {
            return None;
        }
        let idx = (uid - front.uid) as usize;
        (idx < self.ruu.len()).then_some(idx)
    }

    /// Return a consumer list to the allocation pool.
    fn recycle_consumers(&mut self, mut v: Vec<u64>) {
        if v.capacity() > 0 {
            v.clear();
            self.consumer_pool.push(v);
        }
    }

    fn writeback_stage(&mut self) -> bool {
        let mut recover: Option<(u64, u64)> = None; // (resolver uid, target pc)
        let mut popped = false;
        // Pop due completion events instead of scanning the RUU; squash
        // purges events for squashed uids, so every event here refers to
        // a live issued entry.
        while let Some(&Reverse((when, uid))) = self.events.peek() {
            if when > self.cycle {
                break;
            }
            self.events.pop();
            popped = true;
            let Some(idx) = self.entry_index(uid) else { continue };
            let (consumers, recover_target) = {
                let e = &mut self.ruu[idx];
                debug_assert!(e.issued && !e.complete);
                e.complete = true;
                (std::mem::take(&mut e.consumers), e.recover_to.take())
            };
            if let Some(target) = recover_target {
                recover = Some((uid, target));
            }
            for &c in &consumers {
                if let Some(ci) = self.entry_index(c) {
                    let ce = &mut self.ruu[ci];
                    ce.deps_left -= 1;
                    if ce.deps_left == 0 {
                        self.woken.push(c);
                    }
                }
            }
            self.recycle_consumers(consumers);
        }
        if let Some((uid, target)) = recover {
            self.squash_younger(uid);
            self.fetch_pc = target;
            self.wrong_path = false;
            self.fetch_resume = self.cycle + 1 + self.cfg.bpred.mispredict_penalty;
            self.line_ready = (u64::MAX, 0);
            if let Some(rec) = self.recovery.take() {
                debug_assert_eq!(rec.resolver_uid, uid);
                self.shadow = rec.shadow;
                self.bpred.ras_restore(rec.ras_tos);
            }
        }
        popped
    }

    fn squash_younger(&mut self, uid: u64) {
        while let Some(back) = self.ruu.back() {
            if back.uid <= uid {
                break;
            }
            let e = self.ruu.pop_back().expect("non-empty");
            if e.mem.is_some() {
                self.lsq_count -= 1;
            }
            self.recycle_consumers(e.consumers);
        }
        self.next_uid = uid + 1;
        // Squashed uids will be reused by refetched instructions, so
        // every structure keyed by uid must forget them: the ready and
        // woken queues, pending completion events, and survivors'
        // consumer lists.
        self.ready.retain(|&u| u <= uid);
        self.woken.retain(|&u| u <= uid);
        if self.events.iter().any(|&Reverse((_, u))| u > uid) {
            let mut evs = std::mem::take(&mut self.events).into_vec();
            evs.retain(|&Reverse((_, u))| u <= uid);
            self.events = BinaryHeap::from(evs);
        }
        // Rebuild rename and store-word maps from surviving entries.
        self.int_producer = [INVALID_UID; 32];
        self.fp_producer = [INVALID_UID; 32];
        self.store_by_word.clear();
        for e in self.ruu.iter_mut() {
            e.consumers.retain(|&c| c <= uid);
            if let Some(r) = e.dst_int {
                self.int_producer[r.index()] = e.uid;
            }
            if let Some(f) = e.dst_fp {
                self.fp_producer[f as usize] = e.uid;
            }
            if let Some((MemClass::Store, a)) = e.mem {
                self.store_by_word.insert(a >> 3, e.uid);
            }
        }
    }

    // --- issue -----------------------------------------------------------

    /// Try to reserve the functional unit (and, for loads, a memory port
    /// plus cache access) for one ready entry; returns the result latency
    /// or `None` when the needed resource is busy this cycle.
    fn fu_latency(
        &mut self,
        op: OpClass,
        mem: Option<(MemClass, u64)>,
        int_alu_left: &mut u32,
        fp_alu_left: &mut u32,
        mem_ports: &mut u32,
    ) -> Option<u64> {
        match op {
            OpClass::IntAlu | OpClass::Branch | OpClass::Jump | OpClass::Nop | OpClass::Halt => {
                if *int_alu_left == 0 {
                    return None;
                }
                *int_alu_left -= 1;
                Some(1)
            }
            OpClass::IntMul | OpClass::IntDiv => {
                let unit = self.int_muldiv_busy.iter().position(|&b| b <= self.cycle)?;
                let lat =
                    if op == OpClass::IntMul { self.cfg.lat.int_mul } else { self.cfg.lat.int_div };
                // Divide is unpipelined: the unit stays busy.
                self.int_muldiv_busy[unit] =
                    if op == OpClass::IntDiv { self.cycle + lat } else { self.cycle + 1 };
                Some(lat)
            }
            OpClass::FpAlu => {
                if *fp_alu_left == 0 {
                    return None;
                }
                *fp_alu_left -= 1;
                Some(self.cfg.lat.fp_alu)
            }
            OpClass::FpMul | OpClass::FpDiv => {
                let unit = self.fp_muldiv_busy.iter().position(|&b| b <= self.cycle)?;
                let lat =
                    if op == OpClass::FpMul { self.cfg.lat.fp_mul } else { self.cfg.lat.fp_div };
                self.fp_muldiv_busy[unit] =
                    if op == OpClass::FpDiv { self.cycle + lat } else { self.cycle + 1 };
                Some(lat)
            }
            OpClass::Load => {
                let (class, addr) = mem.expect("load has a memory access");
                let forwarded = matches!(class, MemClass::Load { forwarded: true });
                if forwarded {
                    Some(self.cfg.lat.l1)
                } else {
                    if *mem_ports == 0 {
                        return None;
                    }
                    // Probe first so we only consume an MSHR on miss.
                    let would_hit = self.hierarchy.probe(AccessKind::Read, addr) == HitLevel::L1;
                    let mshr = if would_hit { None } else { self.free_mshr() };
                    if !would_hit && mshr.is_none() {
                        return None; // no MSHR: retry next cycle
                    }
                    *mem_ports -= 1;
                    // Wrong-path loads reach here too: they really do
                    // perturb cache tags.
                    let out = self.hierarchy.access(AccessKind::Read, addr);
                    let lat = self.cfg.access_latency(out.level, out.tlb_miss);
                    if out.level != HitLevel::L1 {
                        self.stats.l1d_misses += 1;
                        if out.level == HitLevel::Memory {
                            self.stats.l2_misses += 1;
                        }
                        if let Some(m) = mshr {
                            self.mshr_busy_until[m] = self.cycle + lat;
                        }
                    }
                    if out.tlb_miss {
                        self.stats.dtlb_misses += 1;
                    }
                    Some(lat)
                }
            }
            OpClass::Store => Some(1), // address generation; cache access at drain
        }
    }

    fn issue_stage(&mut self, mut mem_ports: u32) -> bool {
        // Fold newly-woken entries in and restore program order; issue
        // then walks only ready entries — the wakeup queues replace the
        // old every-cycle scan over the whole RUU.
        let woke = !self.woken.is_empty();
        if woke {
            self.ready.append(&mut self.woken);
            self.ready.sort_unstable();
        }
        let mut int_alu_left = self.cfg.fu.int_alu;
        let mut fp_alu_left = self.cfg.fu.fp_alu;
        let mut issued_total = 0u32;
        let issue_width = self.cfg.width * 2; // generous issue bandwidth

        let mut kept = 0usize;
        for i in 0..self.ready.len() {
            let uid = self.ready[i];
            if issued_total >= issue_width {
                self.ready[kept] = uid;
                kept += 1;
                continue;
            }
            let idx = self.entry_index(uid).expect("ready entries are in flight");
            let e = &self.ruu[idx];
            debug_assert!(!e.issued && e.deps_left == 0);
            let (op, mem) = (e.op, e.mem);
            match self.fu_latency(op, mem, &mut int_alu_left, &mut fp_alu_left, &mut mem_ports) {
                Some(latency) => {
                    let complete_cycle = self.cycle + latency;
                    let e = &mut self.ruu[idx];
                    e.issued = true;
                    e.complete_cycle = complete_cycle;
                    self.events.push(Reverse((complete_cycle, uid)));
                    issued_total += 1;
                    self.issued_insts += 1;
                }
                None => {
                    // Resource-stalled: stays ready for next cycle.
                    self.ready[kept] = uid;
                    kept += 1;
                }
            }
        }
        self.ready.truncate(kept);
        woke || issued_total > 0
    }

    // --- fetch / dispatch --------------------------------------------------

    fn fetch_stage(&mut self) -> bool {
        if self.cycle < self.fetch_resume {
            return false;
        }
        let before = (self.fetch_resume, self.line_ready, self.oracle_done);
        let mut fetched = 0u32;
        let mut cond_predictions = 0u32;
        let line_shift = self.cfg.hierarchy.l1i.line_shift();

        while fetched < self.cfg.width {
            if self.ruu.len() >= self.cfg.ruu_size as usize {
                break;
            }
            if self.oracle_done && !self.wrong_path {
                break;
            }

            // Instruction-cache lookup, one access per new line.
            let line = self.fetch_pc >> line_shift;
            if self.line_ready.0 != line {
                let out = self.hierarchy.access(AccessKind::Fetch, self.fetch_pc);
                let mut ready = self.cycle;
                if out.level != HitLevel::L1 {
                    self.stats.l1i_misses += 1;
                    ready = self.cycle + self.cfg.access_latency(out.level, false);
                }
                if out.tlb_miss {
                    ready += self.cfg.lat.tlb_miss;
                }
                self.line_ready = (line, ready);
            }
            if self.line_ready.1 > self.cycle {
                self.fetch_resume = self.line_ready.1;
                break;
            }

            if self.wrong_path {
                if !self.cfg.model_wrong_path {
                    break; // ablation: front end idles until recovery
                }
                // Synthesize from the pre-decoded image at the
                // speculative PC.
                let Some(idx) = inst_index(self.fetch_pc, self.program.len()) else {
                    break; // ran off the code segment: front end idles
                };
                let d = &self.decoded.insts()[idx];
                let is_branch = d.op == OpClass::Branch;
                if is_branch && cond_predictions >= self.cfg.bpred.predictions_per_cycle {
                    break;
                }
                let ok = self.fetch_wrong_path(d);
                if is_branch {
                    cond_predictions += 1;
                }
                if !ok {
                    break;
                }
            } else {
                // Peek the next correct-path instruction class before
                // consuming, to respect the prediction-rate limit.
                if self.oracle.is_halted() {
                    self.oracle_done = true;
                    break;
                }
                let next_class = inst_index(self.oracle.pc(), self.program.len())
                    .map(|i| self.decoded.insts()[i].op);
                let next_is_branch = next_class == Some(OpClass::Branch);
                if next_is_branch && cond_predictions >= self.cfg.bpred.predictions_per_cycle {
                    break;
                }
                // A memory op needs an LSQ slot; stall fetch until one
                // frees up (the wrong-path fetch applies the same check).
                if next_class.is_some_and(|c| c.is_mem()) && self.lsq_count >= self.cfg.lsq_size {
                    break;
                }
                let Some(di) = self.oracle.step() else {
                    self.oracle_done = true;
                    break;
                };
                if next_is_branch {
                    cond_predictions += 1;
                }
                self.fetch_correct_path(di);
            }
            fetched += 1;
            // A predicted-taken transfer ends the fetch group.
            if self.line_ready.0 != self.fetch_pc >> line_shift {
                // Redirected to a different line: stop this cycle.
                break;
            }
        }
        self.fetched_insts += u64::from(fetched);
        fetched > 0 || before != (self.fetch_resume, self.line_ready, self.oracle_done)
    }

    /// Dispatch one correct-path instruction; updates fetch_pc along the
    /// *predicted* path and flips into wrong-path mode on a mispredict.
    fn fetch_correct_path(&mut self, di: spectral_isa::DynInst) {
        let d = &self.decoded.insts()[di.index as usize];
        let fall_through = d.fall_through;

        // Predict.
        let mut recover_to = None;
        match di.branch {
            Some(info) => {
                let predicted_next = self.predict_next(di.pc, fall_through, d, &info);
                if predicted_next != di.next_pc {
                    // Mispredicted: checkpoint recovery state, go wrong-path.
                    self.stats.mispredicts += 1;
                    recover_to = Some(di.next_pc);
                    self.recovery = Some(Recovery {
                        resolver_uid: self.next_uid,
                        shadow: self.shadow.clone(),
                        ras_tos: self.bpred.ras_tos(),
                    });
                    self.wrong_path = true;
                }
                self.fetch_pc = predicted_next;
            }
            None => {
                self.fetch_pc = di.next_pc;
            }
        }

        // Keep the shadow registers in sync with committed values.
        self.shadow.observe_commit(di.int_dst, di.int_result);

        let mem = di.mem.map(|(op, addr)| match op {
            spectral_isa::MemOp::Read => {
                (MemClass::Load { forwarded: self.forwards_from_store(addr) }, addr)
            }
            spectral_isa::MemOp::Write => (MemClass::Store, addr),
        });
        let deps_left = self.register_deps(d, mem, self.next_uid);
        self.push_entry(Entry {
            uid: self.next_uid,
            wrong_path: false,
            op: di.op,
            pc: di.pc,
            fall_through,
            deps_left,
            consumers: Vec::new(),
            dst_int: di.int_dst,
            dst_fp: di.fp_dst,
            mem,
            issued: false,
            complete: false,
            complete_cycle: 0,
            recover_to,
            train: di.branch,
        });
    }

    /// Dispatch one wrong-path instruction (pre-decoded at the
    /// speculative fetch PC); returns `false` when the front end should
    /// stop (LSQ full).
    fn fetch_wrong_path(&mut self, d: &DecodedInst) -> bool {
        let op = d.op;
        let pc = self.fetch_pc;
        let fall_through = pc + spectral_isa::INST_BYTES;
        if op.is_mem() && self.lsq_count >= self.cfg.lsq_size {
            return false;
        }
        if op == OpClass::Halt {
            return false; // speculative halt: idle until recovery
        }
        self.stats.wrong_path_fetched += 1;

        // Approximate execution for addresses and shadow updates.
        let addr = self.shadow.exec_approx(&d.inst);
        let mem = match op {
            OpClass::Load => {
                addr.map(|a| (MemClass::Load { forwarded: self.forwards_from_store(a) }, a))
            }
            OpClass::Store => addr.map(|a| (MemClass::Store, a)),
            _ => None,
        };

        // Follow the predicted direction for speculative control flow.
        match d.inst {
            Inst::Branch { .. } => {
                let taken = self.bpred.predict_direction(pc);
                self.fetch_pc = if taken { d.target_addr } else { fall_through };
            }
            Inst::Jump { rd, .. } => {
                if rd != Reg::R0 {
                    self.bpred.ras_push(fall_through);
                }
                self.fetch_pc = d.target_addr;
            }
            Inst::JumpReg { rs1 } => {
                self.fetch_pc = if rs1 == Reg::R31 {
                    self.bpred.ras_pop()
                } else {
                    self.bpred.btb_target(pc).unwrap_or(fall_through)
                };
            }
            _ => self.fetch_pc = fall_through,
        }

        let deps_left = self.register_deps(d, mem, self.next_uid);
        self.push_entry(Entry {
            uid: self.next_uid,
            wrong_path: true,
            op,
            pc,
            fall_through,
            deps_left,
            consumers: Vec::new(),
            dst_int: d.int_dst,
            dst_fp: d.fp_dst,
            mem,
            issued: false,
            complete: false,
            complete_cycle: 0,
            recover_to: None,
            train: None,
        });
        true
    }

    /// Compute the front end's predicted next PC for a control transfer,
    /// performing speculative RAS actions.
    fn predict_next(
        &mut self,
        pc: u64,
        fall_through: u64,
        d: &DecodedInst,
        info: &BranchInfo,
    ) -> u64 {
        match d.inst {
            Inst::Branch { .. } => {
                if self.bpred.predict_direction(pc) {
                    d.target_addr
                } else {
                    fall_through
                }
            }
            Inst::Jump { rd, .. } => {
                if rd != Reg::R0 {
                    self.bpred.ras_push(fall_through);
                }
                d.target_addr
            }
            Inst::JumpReg { rs1 } => {
                if rs1 == Reg::R31 {
                    self.bpred.ras_pop()
                } else {
                    self.bpred.btb_target(pc).unwrap_or(fall_through)
                }
            }
            _ => {
                debug_assert!(false, "predict_next on non-control {info:?}");
                fall_through
            }
        }
    }

    /// Resolve producer uids for an instruction's register sources and,
    /// for loads, the youngest older in-flight store to the same word;
    /// subscribe `consumer` to every producer that has not yet
    /// completed. Returns the number of outstanding producers.
    fn register_deps(
        &mut self,
        d: &DecodedInst,
        mem: Option<(MemClass, u64)>,
        consumer: u64,
    ) -> u8 {
        let mut deps = [INVALID_UID; 3];
        let mut n = 0;
        for r in d.int_srcs.into_iter().flatten() {
            let p = self.int_producer[r.index()];
            if p != INVALID_UID && !deps.contains(&p) {
                deps[n] = p;
                n += 1;
            }
        }
        for f in d.fp_srcs.into_iter().flatten() {
            let p = self.fp_producer[f as usize];
            if p != INVALID_UID && !deps.contains(&p) && n < 3 {
                deps[n] = p;
                n += 1;
            }
        }
        if let Some((MemClass::Load { .. }, addr)) = mem {
            if let Some(&uid) = self.store_by_word.get(&(addr >> 3)) {
                if n < 3 && !deps.contains(&uid) {
                    deps[n] = uid;
                    n += 1;
                }
            }
        }
        let mut outstanding = 0u8;
        for &dep in deps.iter().take(n) {
            if let Some(pi) = self.entry_index(dep) {
                let pe = &mut self.ruu[pi];
                if !pe.complete {
                    pe.consumers.push(consumer);
                    outstanding += 1;
                }
            }
        }
        outstanding
    }

    fn forwards_from_store(&self, addr: u64) -> bool {
        self.store_by_word.contains_key(&(addr >> 3))
    }

    fn push_entry(&mut self, mut e: Entry) {
        debug_assert!(self.ruu.len() < self.cfg.ruu_size as usize);
        if e.mem.is_some() {
            debug_assert!(self.lsq_count < self.cfg.lsq_size);
            self.lsq_count += 1;
        }
        if let Some((MemClass::Store, a)) = e.mem {
            self.store_by_word.insert(a >> 3, e.uid);
        }
        if let Some(r) = e.dst_int {
            self.int_producer[r.index()] = e.uid;
        }
        if let Some(f) = e.dst_fp {
            self.fp_producer[f as usize] = e.uid;
        }
        if e.deps_left == 0 {
            self.woken.push(e.uid);
        }
        if let Some(pooled) = self.consumer_pool.pop() {
            e.consumers = pooled;
        }
        self.next_uid = e.uid + 1;
        self.ruu.push_back(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spectral_isa::ProgramBuilder;
    use spectral_workloads::{random_program, suite};

    impl DetailedSim<'_> {
        /// The reference for the idle-cycle skip: [`run`](Self::run)
        /// stepping every cycle.
        fn run_stepped(&mut self, n: u64) -> WindowStats {
            self.run_until(self.stats.committed + n, |sim| {
                sim.advance();
            })
        }
    }

    /// `run` lengths that cross every kind of boundary: one and a few
    /// instructions, and windows long enough to finish a short program.
    const WINDOWS: [u64; 4] = [1_000, 1, 7, 1 << 40];

    /// The paper's two machines, and 8-way variants that move the
    /// skip's wake-up times: slower memory, no wrong-path fetch, and
    /// smaller queues.
    fn machines() -> [MachineConfig; 5] {
        let eight = MachineConfig::eight_way();
        [
            eight.clone(),
            eight.clone().with_mem_latency(200),
            MachineConfig::sixteen_way(),
            eight.clone().without_wrong_path(),
            eight.with_queues(64, 32),
        ]
    }

    /// Simulate `p` on `cfg` in `run` calls of `lens` instructions, once
    /// with the idle-cycle skip and once stepping every cycle, and assert
    /// that every interval's statistics agree. Returns the skip's totals
    /// and the number of cycles it stepped.
    fn skip_matches_stepped(cfg: &MachineConfig, p: &Program, lens: &[u64]) -> (WindowStats, u64) {
        let mut skip = DetailedSim::new(cfg, p, Emulator::new(p));
        let mut stepped = DetailedSim::new(cfg, p, Emulator::new(p));
        for &n in lens {
            let (got, want) = (skip.run(n), stepped.run_stepped(n));
            assert_eq!(got, want, "{} on {}: run({n})", p.name(), cfg.name);
        }
        assert_eq!(stepped.stepped, stepped.stats.cycles, "the reference steps every cycle");
        (skip.stats, skip.stepped)
    }

    /// [`skip_matches_stepped`] over [`WINDOWS`] on `cfg`, asserting
    /// that the skip stepped under `max_share` of the cycles (a rule
    /// that misses a wake-up source steps through its waits instead);
    /// returns the statistics.
    fn skip_jumps(cfg: &MachineConfig, p: &Program, max_share: f64) -> WindowStats {
        let (stats, stepped) = skip_matches_stepped(cfg, p, &WINDOWS);
        let cycles = stats.cycles;
        assert!((stepped as f64) < max_share * cycles as f64, "stepped {stepped} of {cycles}");
        stats
    }

    /// An LCG-parity branch in a loop: about half its outcomes mispredict.
    fn unpredictable_branches(iters: i64) -> Program {
        let mut b = ProgramBuilder::new("lcg-branch");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, iters);
        b.li(Reg::R29, 12345);
        let top = b.label();
        b.li(Reg::R9, 0x5851_F42D_4C95_7F2D_u64 as i64);
        b.mul(Reg::R29, Reg::R29, Reg::R9);
        b.addi(Reg::R29, Reg::R29, 0x14057B7E);
        b.shri(Reg::R4, Reg::R29, 33);
        b.andi(Reg::R4, Reg::R4, 1);
        let skip = b.new_label();
        b.bne(Reg::R4, Reg::R0, skip);
        b.addi(Reg::R5, Reg::R5, 1);
        b.xori(Reg::R6, Reg::R5, 0x2A);
        b.bind(skip);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.build()
    }

    /// `count` iterations of `body` (given the loop's base register `r1`,
    /// which advances by `stride` bytes each iteration) over a fresh
    /// data area.
    fn strided_loop(count: i64, stride: i64, body: impl Fn(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new("strided");
        let base = b.alloc_data((count * stride / 8 + 8) as u64);
        b.li(Reg::R1, base as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, count);
        let top = b.label();
        body(&mut b);
        b.addi(Reg::R1, Reg::R1, stride);
        b.addi(Reg::R2, Reg::R2, 1);
        b.blt(Reg::R2, Reg::R3, top);
        b.halt();
        b.build()
    }

    #[test]
    fn skip_wakes_on_a_memory_miss_completing() {
        // A chase through fresh lines: each load waits on the one before
        // it, which misses to memory.
        let mut b = ProgramBuilder::new("chase");
        let nodes = 600u64;
        let base = b.alloc_data(nodes * 4);
        for i in 0..nodes {
            b.init_word(base + i * 32, base + (i + 1) * 32);
        }
        b.li(Reg::R1, base as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, nodes as i64 - 1);
        let top = b.label();
        b.load(Reg::R1, Reg::R1, 0);
        b.addi(Reg::R2, Reg::R2, 1);
        b.blt(Reg::R2, Reg::R3, top);
        b.halt();
        let stats = skip_jumps(&MachineConfig::eight_way(), &b.build(), 0.25);
        assert!(stats.l2_misses >= 100, "{stats:?}");
    }

    #[test]
    fn skip_wakes_on_mispredict_refill() {
        let stats = skip_jumps(&MachineConfig::eight_way(), &unpredictable_branches(2_000), 0.85);
        assert!(stats.mispredicts > 300, "{stats:?}");
    }

    #[test]
    fn skip_wakes_on_an_icache_fill() {
        // Straight-line code through cold instruction lines.
        let mut b = ProgramBuilder::new("straight");
        for i in 0..4_000 {
            b.addi(Reg::from_index(1 + i % 8), Reg::R0, i as i64);
        }
        b.halt();
        let stats = skip_jumps(&MachineConfig::eight_way(), &b.build(), 0.25);
        assert!(stats.l1i_misses >= 400, "{stats:?}");
    }

    #[test]
    fn skip_wakes_a_full_store_buffer_on_an_mshr_release() {
        // Stores to fresh lines: each drain misses and holds the one MSHR,
        // so commit stalls on the two-entry store buffer.
        let mut cfg = MachineConfig::eight_way();
        (cfg.store_buffer, cfg.mshrs) = (2, 1);
        let stats = skip_jumps(
            &cfg,
            &strided_loop(1_000, 64, |b| {
                b.store(Reg::R1, Reg::R2, 0);
            }),
            0.25,
        );
        assert!(stats.l1d_misses >= 900, "{stats:?}");
    }

    #[test]
    fn skip_wakes_a_load_on_an_mshr_release() {
        // Independent misses through one MSHR: ready loads wait on it.
        let mut cfg = MachineConfig::eight_way();
        cfg.mshrs = 1;
        let stats = skip_jumps(
            &cfg,
            &strided_loop(300, 64, |b| {
                b.load(Reg::R4, Reg::R1, 0);
                b.load(Reg::R5, Reg::R1, 32);
            }),
            0.25,
        );
        assert!(stats.l1d_misses >= 500, "{stats:?}");
    }

    #[test]
    fn skip_wakes_a_divide_on_the_divider_release() {
        // A divide on each side of an unpredictable branch, one divider,
        // and a miss per iteration: a wrong-path divide squashed at
        // recovery keeps the divider busy with no completion event, so
        // its release is the only wake-up before the miss returns.
        let mut cfg = MachineConfig::eight_way();
        cfg.fu.int_muldiv = 1;
        let stats = skip_jumps(
            &cfg,
            &strided_loop(400, 64, |b| {
                b.load(Reg::R20, Reg::R1, 0);
                b.li(Reg::R9, 0x5851_F42D_4C95_7F2D_u64 as i64);
                b.mul(Reg::R29, Reg::R29, Reg::R9);
                b.addi(Reg::R29, Reg::R29, 0x14057B7E);
                b.shri(Reg::R4, Reg::R29, 33);
                b.andi(Reg::R4, Reg::R4, 1);
                let skip = b.new_label();
                b.bne(Reg::R4, Reg::R0, skip);
                b.div(Reg::R5, Reg::R3, Reg::R2);
                b.bind(skip);
                b.div(Reg::R6, Reg::R3, Reg::R2);
            }),
            0.75,
        );
        assert!(stats.mispredicts > 50 && stats.l2_misses > 50, "{stats:?}");
    }

    #[test]
    fn skip_wakes_a_stalled_front_end_on_recovery() {
        // Without wrong-path fetch the front end idles from each
        // mispredict until the branch resolves.
        let cfg = MachineConfig::eight_way().without_wrong_path();
        let stats = skip_jumps(&cfg, &unpredictable_branches(2_000), 0.85);
        assert!(stats.mispredicts > 300 && stats.wrong_path_fetched == 0, "{stats:?}");
    }

    /// Every suite benchmark on every machine of [`machines`], in `run`
    /// calls of `lens` instructions from the program's start.
    fn suite_matches_stepped(lens: &[u64]) {
        for bench in suite() {
            let p = bench.build();
            for cfg in machines() {
                skip_matches_stepped(&cfg, &p, lens);
            }
        }
    }

    #[test]
    fn skip_matches_stepped_across_the_suite() {
        suite_matches_stepped(&[4_000, 6_000, 1, 7, 1_000]);
    }

    /// The same at fifty times the length; run in release with
    /// `cargo test --release -p spectral-uarch -- --ignored`.
    #[test]
    #[ignore = "about 20 s in release"]
    fn skip_matches_stepped_across_the_suite_at_length() {
        suite_matches_stepped(&[200_000, 300_000, 1, 7, 50_000]);
    }

    #[test]
    fn random_programs_reach_wrong_path_fetch() {
        let stats = skip_jumps(&MachineConfig::eight_way(), &random_program(3, 24, 40), 1.0);
        assert!(stats.mispredicts > 0 && stats.wrong_path_fetched > 0, "{stats:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The skip is exact on random programs with unlearnable
        /// branches, calls, indirect jumps, divides and memory traffic.
        #[test]
        fn skip_matches_stepped_on_random_programs(
            seed in any::<u64>(),
            ops in 1usize..24,
            trips in 1u64..30,
            machine in 0usize..5,
        ) {
            let p = random_program(seed, ops, trips);
            skip_matches_stepped(&machines()[machine], &p, &WINDOWS);
        }
    }

    fn counted_loop(n: i64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        let top = b.label();
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.build()
    }

    #[test]
    fn runs_simple_loop_to_completion() {
        let p = counted_loop(5_000);
        let cfg = MachineConfig::eight_way();
        let mut sim = DetailedSim::new(&cfg, &p, Emulator::new(&p));
        let stats = sim.run_to_completion();
        assert!(sim.is_done());
        // 2 setup + 2*5000 loop + halt.
        assert_eq!(stats.committed, 2 + 10_000 + 1);
        assert!(stats.cycles > 0);
        // A tight dependent loop on an 8-way machine: CPI below 2.
        assert!(stats.cpi() < 2.0, "cpi {}", stats.cpi());
    }

    #[test]
    fn run_n_stops_at_target() {
        let p = counted_loop(100_000);
        let cfg = MachineConfig::eight_way();
        let mut sim = DetailedSim::new(&cfg, &p, Emulator::new(&p));
        let w = sim.run(1000);
        assert_eq!(w.committed, 1000);
        let w2 = sim.run(500);
        assert_eq!(w2.committed, 500);
        assert_eq!(sim.stats().committed, 1500);
    }

    #[test]
    fn cold_caches_cost_cycles() {
        // Loads over a large array: cold run should take far more cycles
        // than a warm rerun of the same window.
        let mut b = ProgramBuilder::new("mem");
        let base = b.alloc_data(4096);
        b.li(Reg::R1, base as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 4096);
        let top = b.label();
        b.load(Reg::R4, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 8);
        b.addi(Reg::R2, Reg::R2, 1);
        b.blt(Reg::R2, Reg::R3, top);
        b.halt();
        let p = b.build();
        let cfg = MachineConfig::eight_way();

        let mut cold = DetailedSim::new(&cfg, &p, Emulator::new(&p));
        let cold_stats = cold.run_to_completion();

        // Warm: reuse the hierarchy the cold run built.
        let warm_h = cold.hierarchy().clone();
        let warm_b = BranchPredictor::from_snapshot(&cold.bpred().snapshot());
        let mut warm = DetailedSim::with_state(&cfg, &p, Emulator::new(&p), warm_h, warm_b);
        let warm_stats = warm.run_to_completion();

        assert_eq!(cold_stats.committed, warm_stats.committed);
        assert!(
            warm_stats.cycles * 3 < cold_stats.cycles * 2,
            "warm {} vs cold {} cycles",
            warm_stats.cycles,
            cold_stats.cycles
        );
        assert!(warm_stats.l1d_misses < cold_stats.l1d_misses / 4);
    }

    #[test]
    fn mispredicts_generate_wrong_path_work() {
        // Data-dependent branches (LCG parity) are hard to predict;
        // wrong-path instructions must appear.
        let p = unpredictable_branches(3000);
        let cfg = MachineConfig::eight_way();
        let mut sim = DetailedSim::new(&cfg, &p, Emulator::new(&p));
        let stats = sim.run_to_completion();
        assert!(stats.mispredicts > 300, "mispredicts {}", stats.mispredicts);
        assert!(stats.wrong_path_fetched > 300, "wrong path {}", stats.wrong_path_fetched);
        // Mispredicts must cost cycles: CPI noticeably above the
        // no-mispredict ideal.
        assert!(stats.cpi() > 0.8, "cpi {}", stats.cpi());
    }

    #[test]
    fn correctness_unaffected_by_speculation() {
        // Timing-model execution must commit exactly the functional
        // instruction stream regardless of speculation.
        let p = counted_loop(2_000);
        let mut emu = Emulator::new(&p);
        let mut functional = 0u64;
        while emu.step().is_some() {
            functional += 1;
        }
        let cfg = MachineConfig::eight_way();
        let mut sim = DetailedSim::new(&cfg, &p, Emulator::new(&p));
        let stats = sim.run_to_completion();
        assert_eq!(stats.committed, functional);
    }

    #[test]
    fn store_load_forwarding() {
        // store then immediately load the same address, repeatedly: must
        // not pay cache-miss latency on the loads after the first line fill.
        let mut b = ProgramBuilder::new("fw");
        let base = b.alloc_data(1);
        b.li(Reg::R1, base as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 2000);
        let top = b.label();
        b.store(Reg::R1, Reg::R2, 0);
        b.load(Reg::R4, Reg::R1, 0);
        b.addi(Reg::R2, Reg::R2, 1);
        b.blt(Reg::R2, Reg::R3, top);
        b.halt();
        let p = b.build();
        let cfg = MachineConfig::eight_way();
        let mut sim = DetailedSim::new(&cfg, &p, Emulator::new(&p));
        let stats = sim.run_to_completion();
        assert!(stats.cpi() < 3.0, "forwarding should keep cpi low, got {}", stats.cpi());
    }

    #[test]
    fn sixteen_way_beats_eight_way_on_ilp() {
        // Independent ALU work: the wider machine should need fewer cycles.
        let mut b = ProgramBuilder::new("ilp");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 2000);
        let top = b.label();
        for r in [Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7, Reg::R8, Reg::R9, Reg::R13] {
            b.addi(r, r, 1);
        }
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let p = b.build();
        let cfg8 = MachineConfig::eight_way();
        let cfg16 = MachineConfig::sixteen_way();
        let s8 = DetailedSim::new(&cfg8, &p, Emulator::new(&p)).run_to_completion();
        let s16 = DetailedSim::new(&cfg16, &p, Emulator::new(&p)).run_to_completion();
        assert_eq!(s8.committed, s16.committed);
        assert!(s16.cycles < s8.cycles, "16-way {} vs 8-way {}", s16.cycles, s8.cycles);
    }

    #[test]
    fn div_chain_is_slow() {
        let mut b = ProgramBuilder::new("div");
        b.li(Reg::R1, i64::MAX);
        b.li(Reg::R2, 3);
        b.li(Reg::R3, 0);
        b.li(Reg::R4, 500);
        let top = b.label();
        b.div(Reg::R1, Reg::R1, Reg::R2);
        b.addi(Reg::R1, Reg::R1, 1_000_003);
        b.addi(Reg::R3, Reg::R3, 1);
        b.blt(Reg::R3, Reg::R4, top);
        b.halt();
        let p = b.build();
        let cfg = MachineConfig::eight_way();
        let stats = DetailedSim::new(&cfg, &p, Emulator::new(&p)).run_to_completion();
        // Each iteration is serialized behind a 20-cycle divide.
        assert!(stats.cpi() > 3.0, "div chain cpi {}", stats.cpi());
    }

    #[test]
    fn deterministic_across_runs() {
        let p = counted_loop(3_000);
        let cfg = MachineConfig::eight_way();
        let a = DetailedSim::new(&cfg, &p, Emulator::new(&p)).run_to_completion();
        let b2 = DetailedSim::new(&cfg, &p, Emulator::new(&p)).run_to_completion();
        assert_eq!(a, b2);
    }
}
