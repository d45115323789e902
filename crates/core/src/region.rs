//! The SoA region executor: many APs advanced in one sweep per tick.
//!
//! [`VlsiChip::execute_batch`](crate::chip::VlsiChip::execute_batch)
//! detaches each named processor's configured datapath (plus its memory
//! blocks) into a [`SoaLane`] — flat struct-of-arrays slabs — and hands
//! the whole set here. [`sweep_lanes`] runs them *lane-major*: each
//! lane's dense arrays are driven front-to-back to completion while
//! they are hot in cache, then the sweep moves to the next lane.
//!
//! ## Sharding and determinism
//!
//! Lanes are fully independent (each owns its own memory blocks and
//! datapath state), so the sweep shards them into contiguous row
//! stripes — one per pool executor — and runs each stripe's sweep on
//! its own thread via [`Pool::run`]. Because no lane reads another
//! lane's state, the result of every lane is a pure function of that
//! lane alone: any stripe partition, any thread count, and the serial
//! path all produce byte-identical lanes. The ci.sh thread-matrix gate
//! (`soa_sweep` digest at 1/2/8 threads) and the one-lane-loop-vs-sweep
//! equivalence step hold this to one byte pattern.

use std::sync::Mutex;
use vlsi_ap::SoaLane;
use vlsi_par::Pool;

/// Runs every lane with `tap_limit` / `max_cycles` to completion
/// (drain, typed failure, or cycle-budget timeout — recorded per lane,
/// surfaced when the lane is dissolved).
///
/// With a serial pool, one stripe sweeps inline; with a threaded pool,
/// contiguous stripes of lanes sweep concurrently, bit-identical to the
/// serial schedule.
pub fn sweep_lanes(pool: &Pool, lanes: &mut [SoaLane], tap_limit: u64, max_cycles: u64) {
    if lanes.is_empty() {
        return;
    }
    let stripes = pool.threads().clamp(1, lanes.len());
    if stripes <= 1 {
        sweep_stripe(lanes, tap_limit, max_cycles);
        return;
    }
    let per = lanes.len().div_ceil(stripes);
    let chunks: Vec<Mutex<&mut [SoaLane]>> = lanes.chunks_mut(per).map(Mutex::new).collect();
    pool.run(chunks.len(), &|i| {
        let mut stripe = chunks[i].lock().expect("stripe lock");
        sweep_stripe(&mut stripe, tap_limit, max_cycles);
    });
}

/// Sweeps one stripe lane-major: each lane runs to completion while its
/// flat slabs are hot in cache, then the sweep moves to the next lane.
fn sweep_stripe(lanes: &mut [SoaLane], tap_limit: u64, max_cycles: u64) {
    for lane in lanes {
        lane.run(tap_limit, max_cycles);
    }
}
