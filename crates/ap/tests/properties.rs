//! Cross-layer property tests for the adaptive processor.

use proptest::prelude::*;
use vlsi_ap::{AdaptiveProcessor, ApConfig, ObjectStack, ReferenceOutcome};
use vlsi_object::{
    BoundObject, GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId,
    Operation, Word,
};

fn bound(id: u32) -> BoundObject {
    BoundObject::bind(LogicalObject::compute(
        ObjectId(id),
        LocalConfig::op(Operation::Pass),
    ))
}

proptest! {
    /// The hardware stack reports exactly the Mattson stack distances that
    /// the analytic model (`GlobalConfigStream::dependency_distances`)
    /// predicts for the same reference trace.
    #[test]
    fn stack_matches_mattson_distances(trace in prop::collection::vec(0u32..10, 1..100)) {
        // Analytic: build a degenerate stream with one reference per element.
        // referenced() yields sink then source; use self-loops to make each
        // element contribute its sink reference first, then drop the
        // duplicate by using nullary elements instead.
        let stream: GlobalConfigStream = trace
            .iter()
            .map(|&id| GlobalConfigElement::nullary(ObjectId(id)))
            .collect();
        let analytic = stream.dependency_distances();

        // Hardware: unbounded stack (capacity >= distinct IDs).
        let mut stack = ObjectStack::new(16);
        for (i, &id) in trace.iter().enumerate() {
            match stack.reference(ObjectId(id)) {
                ReferenceOutcome::Hit { distance } => {
                    prop_assert_eq!(analytic[i], (ObjectId(id), Some(distance)));
                }
                ReferenceOutcome::Miss => {
                    prop_assert_eq!(analytic[i], (ObjectId(id), None));
                    stack.insert_top(bound(id));
                }
            }
        }
    }

    /// Inclusion property at the processor level: a bigger array never
    /// misses more in scalar (virtual-hardware) mode.
    #[test]
    fn scalar_misses_monotone_in_capacity(
        chain in prop::collection::vec((0u32..12, 0u32..12), 1..60)
    ) {
        let stream: GlobalConfigStream = chain
            .iter()
            .map(|&(a, b)| GlobalConfigElement::unary(ObjectId(a), ObjectId(b)))
            .collect();
        let mut misses = Vec::new();
        for capacity in [2usize, 4, 8, 16] {
            let mut p = AdaptiveProcessor::new(ApConfig {
                compute_objects: capacity,
                ..ApConfig::default()
            });
            p.install((0..12u32).map(|i| {
                LogicalObject::compute(ObjectId(i), LocalConfig::op(Operation::Pass))
            }))
            .unwrap();
            p.execute_scalar(&stream).unwrap();
            misses.push(p.metrics().object_misses);
        }
        for w in misses.windows(2) {
            prop_assert!(w[1] <= w[0], "misses must not grow with capacity: {misses:?}");
        }
    }

    /// Streaming execution and scalar execution compute the same values
    /// for a random DAG over one constant source: unary and binary
    /// operations, each operand drawn from any earlier node, so chains,
    /// shared operands and fan-out all occur. Every tap of the streamed
    /// run must equal the scalar evaluator's value for that object.
    #[test]
    fn streaming_equals_scalar_on_chains(
        seed_value in 0u64..1000,
        ops in prop::collection::vec((0usize..7, 1u64..10, 0usize..64, 0usize..64), 1..10)
    ) {
        let table = [
            Operation::AddImm,
            Operation::MulImm,
            Operation::INot,
            Operation::Pass,
            Operation::IAdd,
            Operation::IMul,
            Operation::ICmpGt,
        ];
        // Build objects: 0 = const, i = operation i.
        let mut objects = vec![LogicalObject::compute(
            ObjectId(0),
            LocalConfig::with_imm(Operation::Const, Word(seed_value)),
        )];
        let mut elements = Vec::with_capacity(ops.len());
        for (i, &(op_idx, imm, a, b)) in ops.iter().enumerate() {
            let op = table[op_idx];
            let id = ObjectId(i as u32 + 1);
            objects.push(LogicalObject::compute(id, LocalConfig::with_imm(op, Word(imm))));
            // Operands come from earlier nodes only (ids 0..=i).
            let lhs = ObjectId((a % (i + 1)) as u32);
            let rhs = ObjectId((b % (i + 1)) as u32);
            elements.push(if op.arity() == 2 {
                GlobalConfigElement::binary(id, lhs, rhs)
            } else {
                GlobalConfigElement::unary(id, lhs)
            });
        }
        let stream: GlobalConfigStream = elements.into_iter().collect();

        // Streaming run.
        let mut p1 = AdaptiveProcessor::new(ApConfig::default());
        p1.install(objects.clone()).unwrap();
        p1.configure(stream.clone()).unwrap();
        let report = p1.execute(1, 1_000_000).unwrap();
        prop_assert!(report.drained);

        // Scalar run.
        let mut p2 = AdaptiveProcessor::new(ApConfig::default());
        p2.install(objects).unwrap();
        let values = p2.execute_scalar(&stream).unwrap();
        let last = ObjectId(ops.len() as u32);
        prop_assert!(report.taps.contains_key(&last), "the last node is a tap");
        for (id, streamed) in &report.taps {
            prop_assert_eq!(streamed.as_slice(), &[values[id]][..], "tap {:?}", id);
        }
    }

    /// Configure → release → configure is stable: the second configuration
    /// never misses (objects stay cached) and establishes the same routes.
    #[test]
    fn reconfiguration_hits_cache(n in 2usize..10) {
        let mut p = AdaptiveProcessor::new(ApConfig::default());
        p.install((0..n as u32).map(|i| {
            LogicalObject::compute(
                ObjectId(i),
                LocalConfig::with_imm(
                    if i == 0 { Operation::Const } else { Operation::AddImm },
                    Word(1),
                ),
            )
        }))
        .unwrap();
        let stream: GlobalConfigStream = (1..n as u32)
            .map(|i| GlobalConfigElement::unary(ObjectId(i), ObjectId(i - 1)))
            .collect();
        let first = p.configure(stream.clone()).unwrap();
        prop_assert_eq!(first.misses as usize, n);
        let second = p.configure(stream).unwrap();
        prop_assert_eq!(second.misses, 0);
        prop_assert_eq!(second.routes, first.routes);
    }
}
