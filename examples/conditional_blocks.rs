//! Figure 7: a conditional program partitioned onto four processors.
//!
//! ```text
//! cargo run --example conditional_blocks
//! ```
//!
//! The paper's example program
//!
//! ```text
//! if (x > y) z = x + 1; else z = y + 2;  z -> buff
//! ```
//!
//! is partitioned into four atomic basic blocks (Figure 7(b)); each block
//! is gathered as its own small processor. Execution follows Figure 7(d):
//! the preceding processor writes operands into the following processor's
//! memory blocks while that one is *inactive*, then activates it; the
//! branch condition decides which arm ever runs. Control flow never
//! flushes a datapath — it only chooses which processor to wake.

use std::collections::HashMap;
use vlsi_processor::core::{StagedExecutor, StagedProgram, VlsiChip};
use vlsi_processor::topology::Cluster;
use vlsi_processor::workloads::figure7;

fn main() {
    let mut chip = VlsiChip::new(8, 8, Cluster::default());
    let program = StagedProgram::from_program(&figure7::program());
    println!(
        "program lowered to {} atomic blocks, one stage each:",
        program.stages.len()
    );
    for s in &program.stages {
        let inputs: Vec<&str> = s.inputs.iter().map(|(v, _)| v.as_str()).collect();
        let outputs: Vec<&str> = s.outputs.iter().map(|(v, _)| v.as_str()).collect();
        println!(
            "  {}: inputs {inputs:?}, outputs {outputs:?}, condition tap: {}, guard {:?}",
            s.name,
            s.cond.is_some(),
            s.guard
        );
    }
    let buff = program
        .outputs
        .iter()
        .position(|(v, _)| v == figure7::RESULT_VAR)
        .expect("the program names its result");

    let exec = StagedExecutor::deploy(&mut chip, program).expect("deploy blocks");
    assert_eq!(exec.processors().len(), 4);
    println!(
        "deployed onto {} processors ({} clusters each), {} free clusters remain",
        exec.processors().len(),
        4,
        chip.free_clusters()
    );

    for (x, y) in [(9i64, 4i64), (2, 5), (5, 5), (-8, -3)] {
        let inputs = HashMap::from([("x".to_string(), x), ("y".to_string(), y)]);
        let (out, stats) = exec.run(&mut chip, &inputs).expect("run");
        let got = out[buff];
        let want = figure7::reference(x, y);
        assert_eq!(got, want);
        // Entry + the taken arm + buffer: the other arm stays dark.
        assert_eq!(stats.stages_executed, 3);
        println!(
            "x={x:3} y={y:3} -> buff={got:3}  ({} blocks activated, {} mailbox writes, {} exec cycles)",
            stats.stages_executed, stats.mailbox_writes, stats.exec_cycles
        );
    }
    println!("all cases match the reference semantics");
}
