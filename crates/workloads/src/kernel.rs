//! Parameterized instruction kernels — the building blocks of the
//! synthetic benchmark suite.
//!
//! Register conventions (shared with [`bench`](crate::bench)):
//!
//! * `r1`–`r9`, `f1`–`f9` — kernel-local scratch, reset per invocation
//! * `r10`/`r11` — outer iteration counter / limit
//! * `r12`/`r13` — phase-dispatch scratch
//! * `r28` — persistent pointer-chase cursor
//! * `r29` — persistent LCG state (shared pseudo-randomness)
//! * `r30`/`r31` — stack pointer / link register

use spectral_isa::{Label, ProgramBuilder, Reg};

/// How predictable a kernel's data-dependent branches are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Predictability {
    /// Branch taken ~1 time in 8 (easily learned bias).
    Biased,
    /// Branch decided by an LCG bit (~50% taken, hard to predict).
    Random,
}

/// A parameterized instruction kernel. One invocation of a kernel is the
/// body of one outer-loop iteration of a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Sequential read-sum over `words` 64-bit words: high spatial
    /// locality, streaming reuse pattern.
    StreamSum {
        /// Array length in words.
        words: u64,
    },
    /// Strided walk over a power-of-two array: defeats L1 when the
    /// stride exceeds a line, exercises L2.
    StrideWalk {
        /// Array length in words (power of two).
        words: u64,
        /// Stride in words.
        stride: u64,
        /// Accesses per invocation.
        count: u64,
    },
    /// Pointer chasing around a shuffled cycle of `nodes` nodes:
    /// serialized, cache-miss-bound (mcf-style).
    PointerChase {
        /// Cycle length; footprint is `nodes * 8` bytes.
        nodes: u64,
        /// Hops per invocation.
        hops: u64,
    },
    /// LCG-indexed loads/stores over a power-of-two array: poor locality
    /// with an unpredictable load/store branch.
    RandomAccess {
        /// Array length in words (power of two).
        words: u64,
        /// Accesses per invocation.
        count: u64,
    },
    /// Data-dependent branch storms with bookkeeping ALU work
    /// (gcc/crafty-style control flow).
    Branchy {
        /// Branch pairs per invocation.
        count: u64,
        /// Direction entropy.
        predictability: Predictability,
    },
    /// Naive `n×n` FP matrix multiply (one full pass per invocation):
    /// FP-pipeline pressure with blocked reuse.
    MatmulBlocked {
        /// Matrix dimension.
        n: u64,
    },
    /// One smoothing sweep of a 3-point FP stencil over `words` elements
    /// (swim/mgrid-style streaming FP).
    Stencil {
        /// Array length in words.
        words: u64,
    },
    /// Hashed read-modify-write over a power-of-two table
    /// (store-buffer and MSHR pressure).
    HashWrite {
        /// Table length in words (power of two).
        slots: u64,
        /// Updates per invocation.
        count: u64,
    },
    /// Call/return chains through two shared leaf functions
    /// (RAS and call-overhead pressure, perlbmk/eon-style).
    CallChain {
        /// Calls per invocation.
        calls: u64,
    },
    /// Serialized integer divide chain: long-latency, ILP-free stretches
    /// (worst-case scheduling pressure).
    DivChain {
        /// Divides per invocation.
        count: u64,
    },
}

impl Kernel {
    /// Approximate committed instructions per invocation (used to pick
    /// outer iteration counts for a target benchmark length).
    pub fn approx_dyn_len(&self) -> u64 {
        match *self {
            Kernel::StreamSum { words } => 5 * words + 4,
            Kernel::StrideWalk { count, .. } => 8 * count + 5,
            Kernel::PointerChase { hops, .. } => 3 * hops + 2,
            Kernel::RandomAccess { count, .. } => 11 * count + 4,
            Kernel::Branchy { count, .. } => 9 * count + 4,
            Kernel::MatmulBlocked { n } => 10 * n * n * n + 8 * n * n + 4,
            Kernel::Stencil { words } => 10 * words.saturating_sub(2) + 6,
            Kernel::HashWrite { count, .. } => 10 * count + 4,
            Kernel::CallChain { calls } => 12 * calls + 3,
            Kernel::DivChain { count } => 3 * count + 3,
        }
    }

    /// Data-segment words this kernel needs.
    pub fn data_words(&self) -> u64 {
        match *self {
            Kernel::StreamSum { words } => words,
            Kernel::StrideWalk { words, .. } => words,
            Kernel::PointerChase { nodes, .. } => nodes,
            Kernel::RandomAccess { words, .. } => words,
            Kernel::Branchy { .. } => 0,
            Kernel::MatmulBlocked { n } => 3 * n * n,
            Kernel::Stencil { words } => 2 * words,
            Kernel::HashWrite { slots, .. } => slots,
            Kernel::CallChain { .. } => 0,
            Kernel::DivChain { .. } => 0,
        }
    }
}

/// Shared context handed to kernel emitters: allocated data bases and
/// shared function labels.
#[derive(Debug, Clone, Copy)]
pub struct EmitCtx {
    /// Base address of this kernel instance's data area (0 if none).
    pub base: u64,
    /// Label of shared leaf function `f` (calls `g`).
    pub fn_f: Label,
}

/// Emit the two shared leaf functions used by [`Kernel::CallChain`];
/// returns the label of `f`. Must be emitted in a spot control flow
/// jumps over (the benchmark builder places them before `main`).
pub fn emit_call_targets(b: &mut ProgramBuilder) -> Label {
    let fn_f = b.new_label();
    let fn_g = b.new_label();
    // f: save link, a little work, call g, restore link, return.
    b.bind(fn_f);
    b.addi(Reg::R27, Reg::R31, 0);
    b.addi(Reg::R4, Reg::R4, 3);
    b.xori(Reg::R5, Reg::R4, 0x55);
    b.call(Reg::R31, fn_g);
    b.addi(Reg::R31, Reg::R27, 0);
    b.jump_reg(Reg::R31);
    // g: leaf.
    b.bind(fn_g);
    b.addi(Reg::R6, Reg::R6, 1);
    b.shli(Reg::R7, Reg::R6, 2);
    b.jump_reg(Reg::R31);
    fn_f
}

/// Advance the shared LCG in `r29` (same constants as C++11's
/// `std::minstd`-style 64-bit mix; full-period odd multiplier).
pub(crate) fn lcg_step(b: &mut ProgramBuilder) {
    b.li(Reg::R9, 0x5851_F42D_4C95_7F2D_u64 as i64);
    b.mul(Reg::R29, Reg::R29, Reg::R9);
    b.addi(Reg::R29, Reg::R29, 0x1405_7B7E_F767_814F_u64 as i64 & 0x7FFF_FFFF);
}

impl Kernel {
    /// Emit one invocation of this kernel at the current position.
    pub fn emit(&self, b: &mut ProgramBuilder, ctx: EmitCtx) {
        match *self {
            Kernel::StreamSum { words } => {
                b.li(Reg::R1, ctx.base as i64);
                b.li(Reg::R2, 0);
                b.li(Reg::R3, words as i64);
                let top = b.label();
                b.load(Reg::R4, Reg::R1, 0);
                b.add(Reg::R5, Reg::R5, Reg::R4);
                b.addi(Reg::R1, Reg::R1, 8);
                b.addi(Reg::R2, Reg::R2, 1);
                b.blt(Reg::R2, Reg::R3, top);
            }
            Kernel::StrideWalk { words, stride, count } => {
                debug_assert!(words.is_power_of_two());
                b.li(Reg::R1, 0); // index
                b.li(Reg::R2, 0); // trip counter
                b.li(Reg::R3, count as i64);
                let top = b.label();
                b.andi(Reg::R4, Reg::R1, (words - 1) as i64);
                b.shli(Reg::R4, Reg::R4, 3);
                b.li(Reg::R5, ctx.base as i64);
                b.add(Reg::R5, Reg::R5, Reg::R4);
                b.load(Reg::R6, Reg::R5, 0);
                b.addi(Reg::R1, Reg::R1, stride as i64);
                b.addi(Reg::R2, Reg::R2, 1);
                b.blt(Reg::R2, Reg::R3, top);
            }
            Kernel::PointerChase { hops, .. } => {
                // r28 is the persistent cursor (prologue sets it to base).
                b.li(Reg::R2, 0);
                b.li(Reg::R3, hops as i64);
                let top = b.label();
                b.load(Reg::R28, Reg::R28, 0);
                b.addi(Reg::R2, Reg::R2, 1);
                b.blt(Reg::R2, Reg::R3, top);
            }
            Kernel::RandomAccess { words, count } => {
                debug_assert!(words.is_power_of_two());
                b.li(Reg::R2, 0);
                b.li(Reg::R3, count as i64);
                let top = b.label();
                lcg_step(b);
                b.shri(Reg::R4, Reg::R29, 17);
                b.andi(Reg::R4, Reg::R4, (words - 1) as i64);
                b.shli(Reg::R4, Reg::R4, 3);
                b.li(Reg::R5, ctx.base as i64);
                b.add(Reg::R5, Reg::R5, Reg::R4);
                let do_load = b.new_label();
                let join = b.new_label();
                b.shri(Reg::R6, Reg::R29, 23);
                b.andi(Reg::R6, Reg::R6, 1);
                b.beq(Reg::R6, Reg::R0, do_load);
                b.store(Reg::R5, Reg::R6, 0);
                b.jump(join);
                b.bind(do_load);
                b.load(Reg::R7, Reg::R5, 0);
                b.bind(join);
                b.addi(Reg::R2, Reg::R2, 1);
                b.blt(Reg::R2, Reg::R3, top);
            }
            Kernel::Branchy { count, predictability } => {
                b.li(Reg::R2, 0);
                b.li(Reg::R3, count as i64);
                let top = b.label();
                lcg_step(b);
                let mask = match predictability {
                    Predictability::Biased => 0x7, // taken 7/8 (strong bias)
                    Predictability::Random => 0x1, // taken 1/2
                };
                let skip = b.new_label();
                // Use high LCG bits: low bits of an LCG are periodic
                // (bit 0 strictly alternates), which a gshare predictor
                // learns trivially and would make "random" meaningless.
                b.shri(Reg::R4, Reg::R29, 31);
                b.andi(Reg::R4, Reg::R4, mask);
                b.bne(Reg::R4, Reg::R0, skip);
                b.addi(Reg::R5, Reg::R5, 1);
                b.xori(Reg::R6, Reg::R5, 0x2A);
                b.bind(skip);
                b.addi(Reg::R2, Reg::R2, 1);
                b.blt(Reg::R2, Reg::R3, top);
            }
            Kernel::MatmulBlocked { n } => {
                let (a, bb, c) = (ctx.base, ctx.base + 8 * n * n, ctx.base + 16 * n * n);
                // for i: for j: f1 = 0; for k: f1 += A[i,k]*B[k,j]; C[i,j] = f1
                b.li(Reg::R1, 0); // i
                b.li(Reg::R3, n as i64);
                let i_top = b.label();
                b.li(Reg::R2, 0); // j
                let j_top = b.label();
                b.fsub(1, 1, 1); // f1 = 0
                b.li(Reg::R4, 0); // k
                                  // row base of A: a + i*n*8 — hoisted
                b.li(Reg::R5, (8 * n) as i64);
                b.mul(Reg::R6, Reg::R1, Reg::R5); // i*n*8
                b.li(Reg::R7, a as i64);
                b.add(Reg::R6, Reg::R6, Reg::R7); // &A[i,0]
                let k_top = b.label();
                // A[i,k]
                b.shli(Reg::R8, Reg::R4, 3);
                b.add(Reg::R8, Reg::R6, Reg::R8);
                b.fload(2, Reg::R8, 0);
                // B[k,j] = bb + (k*n + j)*8
                b.mul(Reg::R8, Reg::R4, Reg::R5); // k*n*8
                b.shli(Reg::R9, Reg::R2, 3);
                b.add(Reg::R8, Reg::R8, Reg::R9);
                b.li(Reg::R9, bb as i64);
                b.add(Reg::R8, Reg::R8, Reg::R9);
                b.fload(3, Reg::R8, 0);
                b.fmul(4, 2, 3);
                b.fadd(1, 1, 4);
                b.addi(Reg::R4, Reg::R4, 1);
                b.blt(Reg::R4, Reg::R3, k_top);
                // C[i,j]
                b.mul(Reg::R8, Reg::R1, Reg::R5);
                b.shli(Reg::R9, Reg::R2, 3);
                b.add(Reg::R8, Reg::R8, Reg::R9);
                b.li(Reg::R9, c as i64);
                b.add(Reg::R8, Reg::R8, Reg::R9);
                b.fstore(Reg::R8, 1, 0);
                b.addi(Reg::R2, Reg::R2, 1);
                b.blt(Reg::R2, Reg::R3, j_top);
                b.addi(Reg::R1, Reg::R1, 1);
                b.blt(Reg::R1, Reg::R3, i_top);
            }
            Kernel::Stencil { words } => {
                let (src, dst) = (ctx.base, ctx.base + 8 * words);
                b.li(Reg::R1, 1); // i
                b.li(Reg::R3, (words - 1) as i64);
                b.li(Reg::R4, src as i64);
                b.li(Reg::R5, dst as i64);
                let top = b.label();
                b.shli(Reg::R2, Reg::R1, 3);
                b.add(Reg::R6, Reg::R4, Reg::R2);
                b.fload(1, Reg::R6, -8);
                b.fload(2, Reg::R6, 0);
                b.fload(3, Reg::R6, 8);
                b.fadd(4, 1, 3);
                b.fadd(4, 4, 2);
                b.add(Reg::R7, Reg::R5, Reg::R2);
                b.fstore(Reg::R7, 4, 0);
                b.addi(Reg::R1, Reg::R1, 1);
                b.blt(Reg::R1, Reg::R3, top);
            }
            Kernel::HashWrite { slots, count } => {
                debug_assert!(slots.is_power_of_two());
                b.li(Reg::R2, 0);
                b.li(Reg::R3, count as i64);
                let top = b.label();
                lcg_step(b);
                b.shri(Reg::R4, Reg::R29, 29);
                b.andi(Reg::R4, Reg::R4, (slots - 1) as i64);
                b.shli(Reg::R4, Reg::R4, 3);
                b.li(Reg::R5, ctx.base as i64);
                b.add(Reg::R5, Reg::R5, Reg::R4);
                b.load(Reg::R6, Reg::R5, 0);
                b.addi(Reg::R6, Reg::R6, 1);
                b.store(Reg::R5, Reg::R6, 0);
                b.addi(Reg::R2, Reg::R2, 1);
                b.blt(Reg::R2, Reg::R3, top);
            }
            Kernel::CallChain { calls } => {
                b.li(Reg::R2, 0);
                b.li(Reg::R3, calls as i64);
                let top = b.label();
                b.call(Reg::R31, ctx.fn_f);
                b.addi(Reg::R2, Reg::R2, 1);
                b.blt(Reg::R2, Reg::R3, top);
            }
            Kernel::DivChain { count } => {
                b.li(Reg::R1, u32::MAX as i64);
                b.li(Reg::R2, 3);
                b.li(Reg::R4, 0);
                b.li(Reg::R5, count as i64);
                let top = b.label();
                b.div(Reg::R1, Reg::R1, Reg::R2);
                b.addi(Reg::R1, Reg::R1, 1_000_003);
                b.addi(Reg::R4, Reg::R4, 1);
                b.blt(Reg::R4, Reg::R5, top);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectral_isa::{Emulator, ProgramBuilder, Reg};

    /// Emit a standalone program around one kernel and count dynamic
    /// instructions.
    fn run_kernel(k: Kernel) -> u64 {
        let mut b = ProgramBuilder::new("k");
        let main = b.new_label();
        b.jump(main);
        let fn_f = emit_call_targets(&mut b);
        b.bind(main);
        let base = b.alloc_data(k.data_words().max(1));
        if let Kernel::PointerChase { nodes, .. } = k {
            // Identity cycle for the test.
            for i in 0..nodes {
                b.init_word(base + i * 8, base + ((i + 1) % nodes) * 8);
            }
            b.li(Reg::R28, base as i64);
        }
        b.li(Reg::R29, 0x1234_5678);
        k.emit(&mut b, EmitCtx { base, fn_f });
        b.halt();
        let p = b.build();
        let mut emu = Emulator::new(&p);
        while emu.step().is_some() {}
        assert!(emu.is_halted());
        emu.seq()
    }

    #[test]
    fn all_kernels_terminate() {
        let kernels = [
            Kernel::StreamSum { words: 256 },
            Kernel::StrideWalk { words: 256, stride: 7, count: 100 },
            Kernel::PointerChase { nodes: 64, hops: 200 },
            Kernel::RandomAccess { words: 256, count: 100 },
            Kernel::Branchy { count: 100, predictability: Predictability::Random },
            Kernel::Branchy { count: 100, predictability: Predictability::Biased },
            Kernel::MatmulBlocked { n: 6 },
            Kernel::Stencil { words: 128 },
            Kernel::HashWrite { slots: 128, count: 100 },
            Kernel::CallChain { calls: 50 },
            Kernel::DivChain { count: 50 },
        ];
        for k in kernels {
            let n = run_kernel(k);
            assert!(n > 0, "{k:?} committed nothing");
        }
    }

    #[test]
    fn approx_dyn_len_within_2x() {
        let kernels = [
            Kernel::StreamSum { words: 512 },
            Kernel::StrideWalk { words: 512, stride: 5, count: 300 },
            Kernel::PointerChase { nodes: 128, hops: 400 },
            Kernel::RandomAccess { words: 512, count: 200 },
            Kernel::Branchy { count: 300, predictability: Predictability::Random },
            Kernel::MatmulBlocked { n: 8 },
            Kernel::Stencil { words: 256 },
            Kernel::HashWrite { slots: 256, count: 200 },
            Kernel::CallChain { calls: 100 },
            Kernel::DivChain { count: 100 },
        ];
        for k in kernels {
            let actual = run_kernel(k) as f64;
            let approx = k.approx_dyn_len() as f64;
            let ratio = actual / approx;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{k:?}: actual {actual}, approx {approx}, ratio {ratio:.2}"
            );
        }
    }

    #[test]
    fn branchy_bias_differs() {
        // Taken skips the work path. Biased takes ~7/8 (skips often),
        // Random ~1/2, so the biased variant commits fewer instructions.
        let biased =
            run_kernel(Kernel::Branchy { count: 1000, predictability: Predictability::Biased });
        let random =
            run_kernel(Kernel::Branchy { count: 1000, predictability: Predictability::Random });
        assert!(biased < random, "biased {biased} vs random {random}");
    }

    #[test]
    fn data_words_cover_matmul() {
        assert_eq!(Kernel::MatmulBlocked { n: 4 }.data_words(), 48);
        assert_eq!(Kernel::Stencil { words: 100 }.data_words(), 200);
        assert_eq!(
            Kernel::Branchy { count: 1, predictability: Predictability::Biased }.data_words(),
            0
        );
    }
}
