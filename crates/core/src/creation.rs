//! Live-point creation: one functional-warming pass per benchmark.

use std::collections::HashSet;

use spectral_cache::{Cache, Csr, HierarchyConfig};
use spectral_isa::{DynInst, Emulator, MemOp, OpClass, Program, INST_BYTES};
use spectral_uarch::{BpredConfig, BranchPredictor, MachineConfig};

use crate::livepoint::{tlb_as_cache, WarmPayload};
use crate::livestate::StateScope;

/// How the unified-L2 Cache Set Record is fed during creation.
///
/// Functional warming feeds an L2 with the *misses* of the configured
/// L1s; a reusable record must pick one stream:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum L2StreamPolicy {
    /// Feed the L2 record with references that miss the **maximum** L1
    /// geometries. Exact for experiments whose L1s equal the maximums
    /// (the common case: sweep L2 sizes at fixed L1), slightly stale for
    /// smaller L1s. The default.
    #[default]
    FilteredByMaxL1,
    /// Feed the L2 record with the full combined reference stream
    /// (Barr-style MTR/CSR recording). Uniformly approximate for every
    /// covered configuration; useful when experiments vary L1 geometry.
    Unfiltered,
}

/// Parameters of a live-point creation pass.
///
/// The maximum hierarchy and the predictor list are the *only*
/// microarchitectural parameters a live-point library fixes (Table 3's
/// "fixed microarchitecture parameters" row); everything else —
/// pipeline widths, queue sizes, latencies, FU mixes — remains free at
/// simulation time.
#[derive(Debug, Clone)]
pub struct CreationConfig {
    /// Upper bounds on cache/TLB geometry (every simulated hierarchy
    /// must be covered by these).
    pub max_hierarchy: HierarchyConfig,
    /// Branch-predictor configurations to snapshot (one copy each).
    pub bpred_configs: Vec<BpredConfig>,
    /// Measurement-unit length in instructions (paper: 1000).
    pub unit_len: u64,
    /// Detailed-warming length in instructions (must cover the largest
    /// machine the library will serve; paper: 2000/4000).
    pub warm_len: u64,
    /// Number of live-points to create (the library's sample-size upper
    /// bound, §6.2).
    pub sample_size: u64,
    /// Seed for the sample design's random phase and the shuffle.
    pub seed: u64,
    /// Warm-state scope (Figure 5 ablation).
    pub scope: StateScope,
    /// Extra instructions past the window end whose reads are captured,
    /// covering the timing model's oracle lookahead.
    pub read_slack: u64,
    /// L2 record feeding policy.
    pub l2_policy: L2StreamPolicy,
}

impl Default for CreationConfig {
    /// A library serving both Table 1 machines: maximum geometry from
    /// the 16-way column, predictor snapshots for both, detailed
    /// warming sized for the 16-way (4000).
    fn default() -> Self {
        CreationConfig {
            max_hierarchy: HierarchyConfig::aggressive_16way(),
            bpred_configs: vec![BpredConfig::paper_2k(), BpredConfig::paper_8k()],
            unit_len: 1000,
            warm_len: 4000,
            sample_size: 400,
            seed: 0x5EC7,
            scope: StateScope::Full,
            read_slack: 1536,
            l2_policy: L2StreamPolicy::default(),
        }
    }
}

impl CreationConfig {
    /// A library dedicated to one machine: maximum geometry equal to the
    /// machine's own (smallest, fastest library; zero reconstruction
    /// slack), one predictor snapshot.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        CreationConfig {
            max_hierarchy: machine.hierarchy,
            bpred_configs: vec![machine.bpred],
            unit_len: 1000,
            warm_len: machine.detailed_warming,
            ..Self::default()
        }
    }

    /// Builder-style sample-size override.
    pub fn with_sample_size(mut self, n: u64) -> Self {
        self.sample_size = n;
        self
    }

    /// Builder-style scope override (Figure 5 ablation).
    pub fn with_scope(mut self, scope: StateScope) -> Self {
        self.scope = scope;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Measure a benchmark's committed-instruction count with a plain
/// functional pass (needed to place sample windows).
pub fn benchmark_length(program: &Program) -> u64 {
    let mut emu = Emulator::new(program);
    while emu.step().is_some() {}
    emu.seq()
}

/// The warm-state recorders driven by the creation pass.
#[derive(Debug, Clone)]
pub(crate) struct CreationWarmers {
    csr_l1i: Csr,
    csr_l1d: Csr,
    csr_l2: Csr,
    csr_itlb: Csr,
    csr_dtlb: Csr,
    bpreds: Vec<BranchPredictor>,
    /// Max-geometry L1 filters for the L2 stream policy.
    filter_l1i: Cache,
    filter_l1d: Cache,
    policy: L2StreamPolicy,
    last_fetch_line: u64,
    l1i_line_shift: u32,
}

impl CreationWarmers {
    pub fn new(cfg: &CreationConfig) -> Self {
        let h = &cfg.max_hierarchy;
        CreationWarmers {
            csr_l1i: Csr::new(h.l1i),
            csr_l1d: Csr::new(h.l1d),
            csr_l2: Csr::new(h.l2),
            csr_itlb: Csr::new(tlb_as_cache(&h.itlb)),
            csr_dtlb: Csr::new(tlb_as_cache(&h.dtlb)),
            bpreds: cfg.bpred_configs.iter().map(|c| BranchPredictor::new(*c)).collect(),
            filter_l1i: Cache::new(h.l1i),
            filter_l1d: Cache::new(h.l1d),
            policy: cfg.l2_policy,
            last_fetch_line: u64::MAX,
            l1i_line_shift: h.l1i.line_shift(),
        }
    }

    /// Observe one committed instruction.
    pub fn observe(&mut self, di: &DynInst) {
        let line = di.pc >> self.l1i_line_shift;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            self.csr_l1i.record(di.pc, false);
            self.csr_itlb.record(di.pc, false);
            match self.policy {
                L2StreamPolicy::Unfiltered => self.csr_l2.record(di.pc, false),
                L2StreamPolicy::FilteredByMaxL1 => {
                    if !self.filter_l1i.access(di.pc, false) {
                        self.csr_l2.record(di.pc, false);
                    }
                }
            }
        }
        if let Some((op, addr)) = di.mem {
            let write = op == MemOp::Write;
            self.csr_l1d.record(addr, write);
            self.csr_dtlb.record(addr, false);
            match self.policy {
                L2StreamPolicy::Unfiltered => self.csr_l2.record(addr, write),
                L2StreamPolicy::FilteredByMaxL1 => {
                    if !self.filter_l1d.access(addr, write) {
                        self.csr_l2.record(addr, write);
                    }
                }
            }
        }
        if di.op == OpClass::Branch || di.op == OpClass::Jump {
            if let Some(info) = di.branch {
                for bp in &mut self.bpreds {
                    bp.update(di.pc, di.pc + INST_BYTES, &info);
                }
            }
        }
    }

    /// Clone the current warm state into a live-point payload.
    pub fn snapshot(&self) -> WarmPayload {
        WarmPayload {
            l1i: self.csr_l1i.clone(),
            l1d: self.csr_l1d.clone(),
            l2: self.csr_l2.clone(),
            itlb: self.csr_itlb.clone(),
            dtlb: self.csr_dtlb.clone(),
            bpreds: self.bpreds.iter().map(|b| b.snapshot()).collect(),
        }
    }
}

/// Block/page sets touched by the correct path inside one window, used
/// to filter restricted live-state payloads.
#[derive(Debug, Default)]
pub(crate) struct TouchedState {
    pub l1i: HashSet<u64>,
    pub l1d: HashSet<u64>,
    pub l2: HashSet<u64>,
    pub itlb: HashSet<u64>,
    pub dtlb: HashSet<u64>,
}

impl TouchedState {
    pub fn observe(&mut self, di: &DynInst, h: &HierarchyConfig) {
        self.l1i.insert(h.l1i.block_of(di.pc));
        self.l2.insert(h.l2.block_of(di.pc));
        self.itlb.insert(di.pc / tlb_as_cache(&h.itlb).line_bytes());
        if let Some((_, addr)) = di.mem {
            self.l1d.insert(h.l1d.block_of(addr));
            self.l2.insert(h.l2.block_of(addr));
            self.dtlb.insert(addr / tlb_as_cache(&h.dtlb).line_bytes());
        }
    }
}

/// Filter a CSR down to the blocks in `touched` (restricted live-state:
/// untouched warm state is omitted and therefore cold at load time).
pub(crate) fn filter_csr(csr: &Csr, touched: &HashSet<u64>) -> Csr {
    let mut set_lens = Vec::with_capacity(csr.sets().len());
    let mut entries = Vec::new();
    for set in csr.sets() {
        let before = entries.len();
        entries.extend(set.iter().filter(|e| touched.contains(&e.block)));
        set_lens.push((entries.len() - before) as u8);
    }
    Csr::from_packed(*csr.max_config(), &set_lens, entries)
        .expect("a filtered record keeps its geometry")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectral_cache::CacheConfig;
    use spectral_workloads::tiny;

    #[test]
    fn benchmark_length_counts_commits() {
        let p = tiny().build();
        let n = benchmark_length(&p);
        assert!(n > 10_000);
    }

    #[test]
    fn default_config_covers_both_machines() {
        use spectral_cache::CacheHierarchy;
        let cfg = CreationConfig::default();
        let eight = MachineConfig::eight_way();
        let sixteen = MachineConfig::sixteen_way();
        assert!(CacheHierarchy::check_within(&eight.hierarchy, &cfg.max_hierarchy).is_ok());
        assert!(CacheHierarchy::check_within(&sixteen.hierarchy, &cfg.max_hierarchy).is_ok());
        assert!(cfg.bpred_configs.contains(&eight.bpred));
        assert!(cfg.bpred_configs.contains(&sixteen.bpred));
        assert!(cfg.warm_len >= eight.detailed_warming.max(sixteen.detailed_warming));
    }

    #[test]
    fn warmers_populate_all_records() {
        let p = tiny().build();
        let cfg = CreationConfig::for_machine(&MachineConfig::eight_way());
        let mut warmers = CreationWarmers::new(&cfg);
        let mut emu = Emulator::new(&p);
        for _ in 0..30_000 {
            match emu.step() {
                Some(di) => warmers.observe(&di),
                None => break,
            }
        }
        let snap = warmers.snapshot();
        assert!(snap.l1i.entry_count() > 0);
        assert!(snap.l1d.entry_count() > 0);
        assert!(snap.l2.entry_count() > 0, "filtered L2 stream still sees cold misses");
        assert!(snap.itlb.entry_count() > 0);
        assert!(snap.dtlb.entry_count() > 0);
        assert_eq!(snap.bpreds.len(), 1);
    }

    #[test]
    fn filtered_l2_sees_fewer_records_than_unfiltered() {
        let p = tiny().build();
        let mut filt_cfg = CreationConfig::for_machine(&MachineConfig::eight_way());
        filt_cfg.l2_policy = L2StreamPolicy::FilteredByMaxL1;
        let mut unf_cfg = filt_cfg.clone();
        unf_cfg.l2_policy = L2StreamPolicy::Unfiltered;
        let mut wf = CreationWarmers::new(&filt_cfg);
        let mut wu = CreationWarmers::new(&unf_cfg);
        let mut emu = Emulator::new(&p);
        for _ in 0..30_000 {
            match emu.step() {
                Some(di) => {
                    wf.observe(&di);
                    wu.observe(&di);
                }
                None => break,
            }
        }
        assert!(wf.snapshot().l2.clock() < wu.snapshot().l2.clock());
    }

    #[test]
    fn filter_csr_drops_untouched() {
        let cfg = CacheConfig::new(4096, 2, 32).unwrap();
        let mut csr = Csr::new(cfg);
        for i in 0..50u64 {
            csr.record(i * 32, false);
        }
        let touched: HashSet<u64> = (0..10u64).collect(); // blocks 0..10
        let filtered = filter_csr(&csr, &touched);
        assert_eq!(filtered.entry_count(), 10);
        assert!(filtered.sets().flatten().all(|e| touched.contains(&e.block)));
    }
}
