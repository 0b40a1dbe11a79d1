//! Bounded threads: the `par_map` pool starts its helpers once, so no
//! number of parallel calls changes the process thread count.
//!
//! This is the only test in its binary. The count is read from
//! `/proc/self/status`, which also counts the test harness's own threads,
//! so it must not share a process with tests running alongside it.

use ensembler_tensor::gemm::{gemm_nn_with, Parallelism};
use ensembler_tensor::par_map;

/// The `Threads:` field of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("status has a Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn a_thousand_parallel_calls_leave_the_thread_count_unchanged() {
    let items: Vec<u64> = (0..64).collect();
    let (m, k, n) = (96, 64, 64);
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];

    // Warm-up: the first parallel call starts the pool.
    assert_eq!(par_map(&items, |x| x + 1)[63], 64);
    let before = thread_count();

    let mut peak = before;
    for round in 0..1000u64 {
        // Every tenth round also samples the count from inside the call,
        // while the items are running.
        let sample = round % 10 == 0;
        let out = par_map(&items, |&x| {
            let during = if sample && x % 16 == 0 {
                thread_count()
            } else {
                0
            };
            (x * 2 + round, during)
        });
        assert_eq!(out[63].0, 126 + round);
        peak = out.iter().map(|&(_, during)| during).fold(peak, usize::max);
        if round % 10 == 0 {
            let c = gemm_nn_with(&a, &b, m, k, n, Parallelism::Parallel);
            assert!(c.iter().all(|&v| v == 8.0));
        }
    }
    assert_eq!(peak, before, "a parallel call ran on threads it started");
    assert_eq!(
        thread_count(),
        before,
        "parallel calls changed the thread count"
    );
}
