//! Integration: the complete Figure 7 scenario on the chip.

use std::collections::HashMap;
use vlsi_processor::core::{
    CoreError, ProcState, StagedExecutor, StagedProgram, StagedRunStats, VlsiChip,
};
use vlsi_processor::topology::Cluster;
use vlsi_processor::workloads::figure7;

/// Deploys the lowered Figure 7 program; returns the executor and the
/// index of the result variable among its outputs.
fn deploy(chip: &mut VlsiChip) -> (StagedExecutor, usize) {
    let program = StagedProgram::from_program(&figure7::program());
    let buff = program
        .outputs
        .iter()
        .position(|(v, _)| v == figure7::RESULT_VAR)
        .expect("the program names its result");
    (StagedExecutor::deploy(chip, program).unwrap(), buff)
}

fn inputs(x: i64, y: i64) -> HashMap<String, i64> {
    HashMap::from([("x".to_string(), x), ("y".to_string(), y)])
}

#[test]
fn four_processor_speculative_pipeline() {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let blocks = figure7::program().partition();
    assert_eq!(blocks.len(), 4, "Figure 7(b): four atomic blocks");
    let (exec, buff) = deploy(&mut chip);
    assert_eq!(exec.processors().len(), 4);

    // Sweep a grid of inputs including the boundary x == y.
    for x in -5..=5i64 {
        for y in -5..=5i64 {
            let (out, stats) = exec.run(&mut chip, &inputs(x, y)).unwrap();
            assert_eq!(out[buff], figure7::reference(x, y));
            // Exactly one arm runs per invocation: entry + arm + buffer.
            assert_eq!(stats.stages_executed, 3);
        }
    }
}

#[test]
fn only_the_taken_arm_is_activated() {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let (exec, _) = deploy(&mut chip);
    let (_, stats) = exec.run(&mut chip, &inputs(10, 0)).unwrap();
    // 4 processors deployed, but only 3 activations (one arm stays dark).
    assert_eq!(stats.stages_executed, 3);
    assert_eq!(
        stats.mailbox_writes, 4,
        "x, y to the entry; x to the arm; z"
    );
    assert_eq!(exec.processors().len(), 4);
}

#[test]
fn mailbox_writes_respect_protection() {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let (exec, _) = deploy(&mut chip);
    let entry = exec.processors()[0];

    // While inactive, the supervisor can write operands.
    chip.write_mailbox(entry, 0, 0, &[vlsi_processor::object::Word(1)])
        .unwrap();
    // While active, the same write is a protection violation.
    chip.activate(entry).unwrap();
    assert!(matches!(
        chip.write_mailbox(entry, 0, 0, &[vlsi_processor::object::Word(2)]),
        Err(CoreError::ProtectionViolation { .. })
    ));
    chip.deactivate(entry).unwrap();
    assert_eq!(chip.state(entry).unwrap(), ProcState::Inactive);
}

#[test]
fn deployment_survives_many_runs_with_alternating_arms() {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let (exec, buff) = deploy(&mut chip);
    for i in 0..20i64 {
        let (x, y) = if i % 2 == 0 { (i, -i) } else { (-i, i) };
        let (out, _) = exec.run(&mut chip, &inputs(x, y)).unwrap();
        assert_eq!(out[buff], figure7::reference(x, y), "run {i}");
    }
    // All processors back to inactive after the runs.
    for &id in exec.processors() {
        assert_eq!(chip.state(id).unwrap(), ProcState::Inactive);
    }
}

/// Figure 7(d): the dataset batch streams through the block processors
/// as one wavefront. Each block configures once instead of once per
/// dataset; outputs and execution cycles equal the sequential runs.
#[test]
fn pipelined_batch_configures_each_block_once() {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let (exec, buff) = deploy(&mut chip);
    let datasets: Vec<_> = (0..8i64).map(|i| inputs(i, 7 - i)).collect();
    let mut seq = StagedRunStats::default();
    for ds in &datasets {
        let (_, s) = exec.run(&mut chip, ds).unwrap();
        seq.exec_cycles += s.exec_cycles;
        seq.config_cycles += s.config_cycles;
        seq.stages_executed += s.stages_executed;
    }
    let (outs, stats) = exec.run_pipelined(&mut chip, &datasets).unwrap();
    for (i, out) in outs.iter().enumerate() {
        let i = i as i64;
        assert_eq!(out[buff], figure7::reference(i, 7 - i));
    }
    assert_eq!(stats.stages_executed, seq.stages_executed);
    assert_eq!(stats.exec_cycles, seq.exec_cycles);
    assert!(
        stats.config_cycles < seq.config_cycles,
        "configure-once: {} vs {}",
        stats.config_cycles,
        seq.config_cycles
    );
    // Entry, then-arm, else-arm, buffer: the arms both write z, so the
    // wavefront is four levels deep.
    assert_eq!(stats.ticks, 4 + 8 - 1);
    exec.release(&mut chip).unwrap();
    assert_eq!(chip.free_clusters(), 64);
}
