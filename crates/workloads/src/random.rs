//! Seeded random programs that reach the timing model's recovery paths.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use spectral_isa::{inst_addr, Program, ProgramBuilder, Reg};

use crate::kernel::{emit_call_targets, lcg_step};

/// Words in the buffer the random loads and stores address (4 KiB).
const BUFFER_WORDS: u64 = 512;

/// A seeded random program: a loop of `trips` iterations over `ops`
/// operations, each drawn from
///
/// * a branch on an LCG bit, which the predictor cannot learn
///   (mispredict recovery and wrong-path fetch),
/// * a call through `r31` to a function that calls another (the RAS),
/// * a `JumpReg` to one of four LCG-chosen targets (BTB-predicted
///   indirect jumps),
/// * a multiply, or a divide on the unpipelined divider,
/// * a load or a store at an LCG-chosen word of a 4 KiB buffer.
///
/// A mispredicted loop branch runs the wrong path into the final
/// `Halt`. The program is a pure function of its arguments.
///
/// Register use: `r1` buffer base, `r2`/`r3` scratch, `r4`–`r8` results,
/// `r9` LCG multiplier, `r10`/`r11` trip counter and limit, `r12`
/// divisor, `r27` saved link, `r29` LCG state, `r31` link.
pub fn random_program(seed: u64, ops: usize, trips: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new("random");
    let main = b.new_label();
    b.jump(main);
    let call = emit_call_targets(&mut b);
    b.bind(main);
    let buf = b.alloc_data(BUFFER_WORDS);
    b.li(Reg::R1, buf as i64);
    b.li(Reg::R12, 7);
    b.li(Reg::R29, (seed | 1) as i64);
    b.li(Reg::R10, 0);
    b.li(Reg::R11, trips as i64);
    let top = b.label();
    for _ in 0..ops {
        match rng.next_u64() % 7 {
            0 => {
                // High LCG bits: the low ones are periodic.
                lcg_step(&mut b);
                b.shri(Reg::R2, Reg::R29, 33);
                b.andi(Reg::R2, Reg::R2, 1);
                let skip = b.new_label();
                b.bne(Reg::R2, Reg::R0, skip);
                b.addi(Reg::R3, Reg::R3, 1);
                b.bind(skip);
            }
            1 => {
                b.call(Reg::R31, call);
            }
            2 => {
                // Jump to case k of four two-instruction cases laid out
                // right after the `jump_reg`, at 8-byte steps.
                lcg_step(&mut b);
                b.shri(Reg::R2, Reg::R29, 40);
                b.andi(Reg::R2, Reg::R2, 3);
                b.shli(Reg::R2, Reg::R2, 3);
                let cases = b.here() as usize + 3;
                b.li(Reg::R3, inst_addr(cases) as i64);
                b.add(Reg::R3, Reg::R3, Reg::R2);
                b.jump_reg(Reg::R3);
                let join = b.new_label();
                for k in 1..=4 {
                    b.addi(Reg::R8, Reg::R8, k);
                    b.jump(join);
                }
                b.bind(join);
            }
            3 => {
                b.mul(Reg::R5, Reg::R29, Reg::R3);
            }
            4 => {
                b.div(Reg::R6, Reg::R29, Reg::R12);
            }
            kind => {
                b.shri(Reg::R2, Reg::R29, 20);
                b.andi(Reg::R2, Reg::R2, ((BUFFER_WORDS - 1) * 8) as i64);
                b.add(Reg::R2, Reg::R2, Reg::R1);
                if kind == 5 {
                    b.load(Reg::R7, Reg::R2, 0);
                } else {
                    b.store(Reg::R2, Reg::R5, 0);
                }
            }
        }
    }
    b.addi(Reg::R10, Reg::R10, 1);
    b.blt(Reg::R10, Reg::R11, top);
    b.halt();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_length;

    #[test]
    fn same_arguments_same_program() {
        let (a, b) = (random_program(9, 20, 5), random_program(9, 20, 5));
        assert_eq!(a.insts(), b.insts());
        assert_ne!(a.insts(), random_program(10, 20, 5).insts());
    }

    #[test]
    fn every_program_halts() {
        for seed in 0..32 {
            let p = random_program(seed, 1 + seed as usize, 1 + seed % 7);
            let n = dynamic_length(&p);
            assert!(n > 0 && n < 100_000, "seed {seed}: {n} instructions");
        }
    }
}
