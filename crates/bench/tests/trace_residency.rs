//! The runner replays captured traces from their replay plans alone: a
//! whole tiny-scale reproduction never materializes `DynInst` records,
//! so every trace a long-lived cache holds is exactly its plan. The plans
//! keep decoded instructions once per PC, so they stay within
//! [`MAX_PLAN_BYTES_PER_INST`] per committed instruction.

use mds_bench::{demands, experiment, Demand, Harness, PAPER_IDS};
use mds_runner::{Runner, TraceCache};
use mds_workloads::Scale;
use std::sync::Arc;

/// Bound on plan bytes per committed instruction. A plan pays a 4-byte
/// PC per record plus its per-load and per-store arrays (about 9 bytes
/// in all); one more per-record array of decoded facts would cross it.
const MAX_PLAN_BYTES_PER_INST: usize = 12;

#[test]
fn a_reproduction_keeps_only_replay_plans_resident() {
    let cache = Arc::new(TraceCache::persistent());
    let runner = Runner::new(2).with_shared_cache(Arc::clone(&cache));
    let mut h = Harness::with_runner(Scale::Tiny, runner);
    let ids: Vec<&str> = PAPER_IDS.into_iter().chain(["ablate-ooo"]).collect();
    let union: Vec<Demand> = ids.iter().flat_map(|id| demands(id)).collect();
    h.prefetch(&union);
    for id in &ids {
        assert!(experiment(&mut h, id).is_some(), "{id}");
    }

    let emulations = cache.misses();
    assert_eq!(emulations, mds_workloads::all().len() as u64);
    let mut plan_bytes = 0;
    let mut instructions = 0;
    for wl in mds_workloads::all() {
        let trace = cache.fetch(&wl, Scale::Tiny);
        plan_bytes += trace.replay_plan().resident_bytes();
        instructions += trace.len();
        assert_eq!(
            trace.resident_bytes(),
            trace.replay_plan().resident_bytes(),
            "{}: a runner path materialized records",
            wl.name
        );
    }
    assert_eq!(cache.misses(), emulations, "every trace was already cached");
    assert_eq!(cache.resident_bytes(), plan_bytes);
    assert!(
        plan_bytes <= MAX_PLAN_BYTES_PER_INST * instructions,
        "plans cost {plan_bytes} bytes for {instructions} instructions ({:.2} per instruction)",
        plan_bytes as f64 / instructions as f64
    );
}
