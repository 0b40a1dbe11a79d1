//! Steady-state `predict` takes no page faults: the compiled plans reuse
//! their per-thread scratch (padded images, packed panels, stage
//! activations), so after warm-up a call touches only memory it has
//! touched before, whatever the allocator's trim state.
//!
//! This is the only test in its binary. The count is the process-wide
//! `minflt` field of `/proc/self/stat`, which tests running alongside it
//! would disturb. Run it under `MALLOC_ARENA_MAX=1` as well: with one arena
//! every thread's frees land on the heap the main thread trims, which is
//! the setting where per-call buffers show up as faults.

use ensembler::{Defense, QuantizedDefense};
use ensembler_serve::demo_pipeline;
use ensembler_tensor::{Rng, Tensor};
use std::sync::Arc;

/// Calls per precision after warm-up.
const CALLS: usize = 200;
/// Mean minor faults per call allowed.
const MAX_FAULTS_PER_CALL: f64 = 8.0;
const BATCH: usize = 32;

/// Minor faults of this process so far: field 10 of `/proc/self/stat`,
/// counted after the parenthesised command name (which may hold spaces).
#[cfg(target_os = "linux")]
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is readable");
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    after_comm
        .split_whitespace()
        .nth(7)
        .and_then(|field| field.parse().ok())
        .expect("stat has a minflt field")
}

#[cfg(target_os = "linux")]
#[test]
fn steady_state_predict_takes_no_page_faults() {
    let pipeline: Arc<dyn Defense> = Arc::new(demo_pipeline(4, 2, 7).expect("demo pipeline"));
    let int8 = QuantizedDefense::quantize(Arc::clone(&pipeline));
    let size = pipeline.config().image_size;
    let mut rng = Rng::seed_from(11);
    let mut batch = || Tensor::from_fn(&[BATCH, 3, size, size], |_| rng.uniform(0.0, 1.0));

    for defense in [&*pipeline, &int8 as &dyn Defense] {
        for _ in 0..20 {
            defense.predict(&batch()).expect("warm-up predict");
        }
    }
    for defense in [&*pipeline, &int8 as &dyn Defense] {
        let mut faults = 0;
        for _ in 0..CALLS {
            let images = batch();
            let before = minor_faults();
            let logits = defense.predict(&images).expect("predict");
            faults += minor_faults() - before;
            assert_eq!(logits.shape(), &[BATCH, pipeline.config().num_classes]);
        }
        let per_call = faults as f64 / CALLS as f64;
        println!(
            "{}: {per_call:.1} minor faults per predict",
            defense.label()
        );
        assert!(
            per_call < MAX_FAULTS_PER_CALL,
            "{}: {per_call:.1} minor faults per predict, want < {MAX_FAULTS_PER_CALL}",
            defense.label()
        );
    }
}
