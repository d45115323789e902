//! Property-based tests for the chip layer.

use proptest::prelude::*;
use std::collections::HashMap;
use vlsi_core::{CoreError, ProcState, StagedExecutor, StagedProgram, VlsiChip};
use vlsi_prng::Prng;
use vlsi_topology::{Cluster, Coord, Region};
use vlsi_workloads::program::{BinOp, Expr, Program, Stmt};

fn chip() -> VlsiChip {
    VlsiChip::new(8, 8, Cluster::default())
}

/// The variables every dataset supplies.
const INPUTS: [&str; 3] = ["a", "b", "c"];
/// Every variable a random program may name: the inputs plus two that
/// only the program sets.
const VARS: [&str; 5] = ["a", "b", "c", "t", "u"];

/// A random expression of at most `depth` operator levels.
fn random_expr(rng: &mut Prng, depth: u32) -> Expr {
    match rng.gen_range(0..4u32) {
        0 => Expr::Const(rng.gen_range(-5..6i64)),
        1 if depth > 0 => {
            let op = *rng
                .choose(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Gt,
                    BinOp::Lt,
                    BinOp::Eq,
                ])
                .expect("non-empty");
            Expr::bin(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
        }
        _ => Expr::var(rng.choose(&VARS).expect("non-empty")),
    }
}

/// A random statement list at if-nesting `depth` (ifs nest up to 3
/// deep; lists, and so arms, may be empty).
fn random_stmts(rng: &mut Prng, depth: u32) -> Vec<Stmt> {
    (0..rng.gen_range(0..=3usize))
        .map(|_| {
            if depth < 3 && rng.gen_bool(0.4) {
                random_if(rng, depth)
            } else {
                let var = *rng.choose(&VARS).expect("non-empty");
                Stmt::Assign(var.into(), random_expr(rng, 2))
            }
        })
        .collect()
}

/// A random `if` at nesting `depth`, its arms one level deeper.
fn random_if(rng: &mut Prng, depth: u32) -> Stmt {
    Stmt::If {
        cond: random_expr(rng, 2),
        then_branch: random_stmts(rng, depth + 1),
        else_branch: random_stmts(rng, depth + 1),
    }
}

proptest! {
    /// Gather → release restores the chip exactly: all clusters free, all
    /// switches default, and the same region gathers again.
    #[test]
    fn gather_release_roundtrip(ox in 0u16..5, oy in 0u16..5, w in 1u16..4, h in 1u16..4) {
        let mut c = chip();
        let region = Region::rect(Coord::new(ox, oy), w, h);
        let id = c.gather(region.clone()).unwrap().id;
        prop_assert_eq!(c.free_clusters(), 64 - region.len());
        c.release_processor(id).unwrap();
        prop_assert_eq!(c.free_clusters(), 64);
        prop_assert_eq!(c.fabric().programmed_coords().count(), 0);
        c.gather(region).unwrap();
    }

    /// Any sequence of rectangular gathers either succeeds on disjoint
    /// free clusters or fails atomically (no partial reservations leak).
    #[test]
    fn gathers_are_atomic(rects in prop::collection::vec((0u16..6, 0u16..6, 1u16..4, 1u16..4), 1..8)) {
        let mut c = chip();
        let mut owned = 0usize;
        for (x, y, w, h) in rects {
            let region = Region::rect(Coord::new(x, y), w, h);
            match c.gather(region.clone()) {
                Ok(_) => owned += region.len(),
                Err(CoreError::Topology(_)) | Err(CoreError::OutOfGrid(_)) => {}
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
            prop_assert_eq!(c.free_clusters(), 64 - owned);
        }
    }

    /// Random structured programs — ifs nested up to depth 3, empty
    /// arms, inputs reassigned inside arms, a trailing block overwriting
    /// an input the arms read — lowered to guarded stages compute every
    /// variable they name exactly as the IR interpreter does, run
    /// sequentially and pipelined, and both walks cost the same
    /// execution cycles.
    #[test]
    fn lowered_programs_match_interpreter(seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        let (program, staged) = loop {
            let mut stmts = random_stmts(&mut rng, 0);
            let at = rng.gen_range(0..=stmts.len());
            stmts.insert(at, random_if(&mut rng, 0));
            // The trailing block overwrites an input the arms may read.
            let input = *rng.choose(&INPUTS).expect("non-empty");
            stmts.push(Stmt::Assign(input.into(), random_expr(&mut rng, 1)));
            let program = Program { stmts };
            let staged = StagedProgram::from_program(&program);
            if staged.stages.len() <= 12 {
                break (program, staged);
            }
        };
        let datasets: Vec<HashMap<String, i64>> = (0..4)
            .map(|_| {
                INPUTS
                    .iter()
                    .map(|v| (v.to_string(), rng.gen_range(-20..20i64)))
                    .collect()
            })
            .collect();
        let expected: Vec<Vec<i64>> = datasets
            .iter()
            .map(|ds| {
                let mut env = ds.clone();
                program.interpret(&mut env);
                // A variable only a dark arm assigns reads the mailbox
                // default, 0.
                let value = |v: &String| env.get(v).copied().unwrap_or(0);
                staged.outputs.iter().map(|(_, v)| value(v)).collect()
            })
            .collect();

        let mut c = chip();
        let exec = StagedExecutor::deploy(&mut c, staged).unwrap();
        let mut seq_cycles = 0;
        for (ds, want) in datasets.iter().zip(&expected) {
            let (got, stats) = exec.run(&mut c, ds).unwrap();
            prop_assert_eq!(&got, want, "run on {:?}: {:?}", ds, program);
            seq_cycles += stats.exec_cycles;
        }
        let (got, stats) = exec.run_pipelined(&mut c, &datasets).unwrap();
        prop_assert_eq!(&got, &expected, "run_pipelined: {:?}", program);
        prop_assert_eq!(stats.exec_cycles, seq_cycles);
        exec.release(&mut c).unwrap();
        prop_assert_eq!(c.free_clusters(), 64);
    }

    /// Chip fuzz: arbitrary interleavings of gather-by-count, release,
    /// relocate, and compact keep the bookkeeping invariant —
    /// free + owned == total, and the fabric's programmed set matches the
    /// live processors' regions exactly.
    #[test]
    fn chip_resource_accounting_invariant(ops in prop::collection::vec(0u8..5, 1..30)) {
        let mut c = chip();
        let mut live: Vec<vlsi_core::ProcessorId> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                0 | 1 => {
                    let k = (i % 7) + 1;
                    if let Ok(out) = c.gather_any(k) {
                        live.push(out.id);
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let id = live.remove(i % live.len());
                        c.release_processor(id).unwrap();
                    }
                }
                3 => {
                    if !live.is_empty() {
                        let id = live[i % live.len()];
                        let _ = c.relocate(id);
                    }
                }
                _ => {
                    c.compact();
                }
            }
            let owned: usize = live
                .iter()
                .map(|&id| c.processor(id).unwrap().scale())
                .sum();
            prop_assert_eq!(c.free_clusters(), 64 - owned);
            // Every owned cluster's switch belongs to exactly one live
            // processor's region.
            for &id in &live {
                for cell in c.processor(id).unwrap().region.clone().cells() {
                    prop_assert_eq!(
                        c.fabric().owner(cell).map(|t| t.0),
                        Some(id.0)
                    );
                }
            }
        }
    }

    /// Lifecycle fuzz: random legal/illegal transition requests never
    /// corrupt the state machine — the state is always one of the four,
    /// and illegal requests leave it unchanged.
    #[test]
    fn lifecycle_fuzz(ops in prop::collection::vec(0u8..5, 1..40)) {
        let mut c = chip();
        let id = c.gather(Region::rect(Coord::new(0, 0), 2, 2)).unwrap().id;
        for op in ops {
            let before = c.state(id).unwrap();
            let result = match op {
                0 => c.activate(id),
                1 => c.deactivate(id),
                2 => c.sleep(id, Some(3)),
                3 => c.wake(id),
                _ => {
                    c.tick_timers(1);
                    Ok(())
                }
            };
            let after = c.state(id).unwrap();
            if result.is_err() && op != 4 {
                prop_assert_eq!(before, after, "failed op must not change state");
            }
            prop_assert!(matches!(
                after,
                ProcState::Inactive | ProcState::Active | ProcState::Sleep
            ));
        }
    }
}
