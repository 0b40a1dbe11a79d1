//! Data parallelism on one persistent thread pool, used by the ensemble
//! fan-out, the GEMM row bands and the `im2col` batch split.
//!
//! The workspace cannot depend on `rayon` (the build environment has no
//! network access), so this module provides the one primitive the stack
//! needs: [`par_map`], an order-preserving parallel map over a slice.
//!
//! * **One pool, created once.** The first parallel call starts
//!   `available_parallelism() − 1` helper threads, which then park on a
//!   condition variable for the life of the process. The calling thread is
//!   the remaining worker: it posts one ticket per helper it wants, then
//!   claims items itself. No call spawns a thread, so a `par_map` costs a
//!   wake-up, not a spawn, and the process thread count stays fixed.
//! * **Atomic claiming.** Workers claim items from an atomic counter, so
//!   uneven item costs balance across whoever is running.
//! * **Inline nesting.** A `par_map` issued while a `par_map` is already
//!   running on the same thread (inside an item, on the caller or on a
//!   helper) runs inline. The outermost fan-out owns the cores: the GEMM
//!   bands and `im2col` items inside one ensemble body stay on that body's
//!   thread instead of oversubscribing the machine.
//! * **Withdrawal.** When the caller runs out of items, it takes back every
//!   ticket no helper has started yet, and waits only for items already in
//!   progress. A caller never waits for a helper that the OS has not yet
//!   scheduled.
//! * **Panics.** A panic in any item reaches the caller of `par_map` after
//!   every started item has finished. Helpers survive it and serve the next
//!   call.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    /// Set while this thread runs inside a `par_map`; helpers set it for
    /// their whole life. A `par_map` that finds it set runs inline.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as inside a `par_map` until dropped, also
/// when an item's panic unwinds through it.
struct Region;

impl Region {
    fn enter() -> Self {
        IN_REGION.with(|flag| flag.set(true));
        Region
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        IN_REGION.with(|flag| flag.set(false));
    }
}

/// One `par_map` call as seen by the pool: a type-erased loop that claims
/// and runs items until none are left, plus the bookkeeping the caller
/// needs to know when every helper is done with it.
struct Job<'a> {
    /// Claims and runs items until the counter passes the end.
    run: &'a (dyn Fn() + Sync),
    /// Helpers that took a ticket for this job and have not finished it.
    /// Only read and changed while holding the pool's queue lock, which
    /// orders every access, so `Relaxed` suffices.
    in_progress: AtomicUsize,
    /// The first panic payload a helper caught while running items.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The process-wide pool: a queue of tickets, each letting one helper join
/// one job, and the condition variables helpers and callers park on.
struct Pool {
    helpers: usize,
    queue: Mutex<VecDeque<&'static Job<'static>>>,
    /// Signalled when tickets are queued.
    work: Condvar,
    /// Signalled when a helper finishes a ticket.
    done: Condvar,
}

/// Locks ignoring poisoning: nothing panics while holding these locks, and
/// item panics are caught before they could cross one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Threads a parallel call can run on: the caller plus the pool's helpers.
/// Read from the host once; asking the OS costs microseconds per call.
pub(crate) fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// The pool, started on first use. Its helpers are never joined: they park
/// between calls for the life of the process, and catch every panic an item
/// raises, so none can die with a panic to report.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers = workers() - 1;
        for index in 0..helpers {
            std::thread::Builder::new()
                .name(format!("par_map-{index}"))
                .spawn(helper_loop)
                .expect("spawning a par_map pool helper");
        }
        Pool {
            helpers,
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    })
}

/// Body of every helper thread: take a ticket, run its job's items, report
/// back, repeat.
fn helper_loop() {
    IN_REGION.with(|flag| flag.set(true));
    let pool = pool();
    loop {
        let job = {
            let mut queue = lock(&pool.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    job.in_progress.fetch_add(1, Ordering::Relaxed);
                    break job;
                }
                queue = pool
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job.run)) {
            lock(&job.panic).get_or_insert(payload);
        }
        // The decrement is this helper's last touch of `job`: once the
        // caller sees zero under this lock it may return and free the job.
        let _queue = lock(&pool.queue);
        job.in_progress.fetch_sub(1, Ordering::Relaxed);
        pool.done.notify_all();
    }
}

/// Runs `job` on the calling thread and on up to `tickets` helpers, and
/// returns once no helper can touch it any more.
fn run_on_pool(pool: &'static Pool, job: &Job<'_>, tickets: usize) {
    // SAFETY: the only unsafe in the pool. It erases the lifetime of `job`
    // so helpers can hold it in the `'static` queue. The reference stays
    // valid for every use: a helper touches the job only between popping a
    // ticket and decrementing `in_progress` under the queue lock, and this
    // function does not return (not even by unwinding, as the caller's own
    // items run under `catch_unwind`) until it has removed every ticket
    // still queued and seen `in_progress` reach zero under that same lock.
    let shared: &'static Job<'static> = unsafe { std::mem::transmute(job) };
    {
        let mut queue = lock(&pool.queue);
        queue.extend(std::iter::repeat_n(shared, tickets));
    }
    if tickets == 1 {
        pool.work.notify_one();
    } else {
        pool.work.notify_all();
    }
    let own = catch_unwind(AssertUnwindSafe(job.run));
    let mut queue = lock(&pool.queue);
    queue.retain(|queued| !std::ptr::eq(*queued, shared));
    while job.in_progress.load(Ordering::Relaxed) > 0 {
        queue = pool
            .done
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(queue);
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(payload) = lock(&job.panic).take() {
        resume_unwind(payload);
    }
}

/// Maps `f` over `items` in parallel, preserving input order in the output.
///
/// Runs inline when there is at most one item, when the host reports one
/// core, or when called from inside another `par_map` (see the module
/// docs). Otherwise the calling thread and the pool's helpers claim items
/// one at a time. Panics raised by `f` are propagated to the caller.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::parallel::par_map;
///
/// let squares = par_map(&[1, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 || IN_REGION.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    let pool = pool();
    if pool.helpers == 0 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = std::iter::repeat_with(|| Mutex::new(None))
        .take(n)
        .collect();
    // `next` only hands out indices; results travel through the slot
    // mutexes, so the claim needs no ordering beyond its atomicity.
    let run = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= n {
            break;
        }
        let value = f(&items[index]);
        *lock(&slots[index]) = Some(value);
    };
    let job = Job {
        run: &run,
        in_progress: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    {
        let _region = Region::enter();
        run_on_pool(pool, &job, pool.helpers.min(n - 1));
    }

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index was claimed exactly once")
        })
        .collect()
}

/// Splits `data` into consecutive `chunk`-element pieces (the last may be
/// shorter) and calls `f(index, piece)` on each. With `parallel` set the
/// pieces go through [`par_map`], each written in place by whichever worker
/// claims it; otherwise they run in order on the calling thread.
///
/// # Panics
///
/// Panics if `chunk` is zero, or if `f` panics.
pub(crate) fn for_each_chunk_mut<T, F>(data: &mut [T], chunk: usize, parallel: bool, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if parallel {
        let pieces: Vec<(usize, Mutex<&mut [T]>)> =
            data.chunks_mut(chunk).map(Mutex::new).enumerate().collect();
        par_map(&pieces, |(index, piece)| f(*index, &mut lock(piece)));
    } else {
        for (index, piece) in data.chunks_mut(chunk).enumerate() {
            f(index, piece);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        assert_eq!(par_map(&[] as &[usize], |x| *x), Vec::<usize>::new());
        assert_eq!(par_map(&[7usize], |x| x + 1), vec![8]);
    }

    #[test]
    fn runs_on_all_items_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map(&[1, 2, 3, 4, 5, 6, 7, 8], |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(out.len(), 8);
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics() {
        let _ = par_map(&[1, 2, 3, 4], |x| {
            if *x == 3 {
                panic!("boom");
            }
            *x
        });
    }

    #[test]
    fn nested_par_map_completes_and_matches_the_serial_map() {
        let outer: Vec<usize> = (0..9).collect();
        let got = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..50).map(|j| i * 100 + j).collect();
            par_map(&inner, |x| x * 3).into_iter().sum::<usize>()
        });
        let want: Vec<usize> = outer
            .iter()
            .map(|&i| (0..50).map(|j| (i * 100 + j) * 3).sum())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_pool_serves_the_next_call() {
        use std::time::Duration;
        if pool().helpers == 0 {
            return; // a single-core host has no helper to panic
        }
        let caller = std::thread::current().id();
        let claimed = (Mutex::new(false), Condvar::new());
        // Every item a helper claims panics. Items on the calling thread
        // block until a helper has claimed one, so on a multi-core host the
        // panic is raised on a helper, not on the caller.
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                let (flag, signal) = &claimed;
                if std::thread::current().id() != caller {
                    *lock(flag) = true;
                    signal.notify_all();
                    panic!("helper boom");
                }
                let guard = lock(flag);
                let _ = signal.wait_timeout_while(guard, Duration::from_secs(10), |c| !*c);
                x
            })
        }));
        // The caller left its region although an item panicked.
        assert!(!IN_REGION.with(Cell::get));
        let payload = result.expect_err("a helper item panicked");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "helper boom");
        let squares = par_map(&items, |x| x * x);
        assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    scope.spawn(move || {
                        let items: Vec<u64> = (0..200).map(|i| i + t * 1000).collect();
                        let mut last = Vec::new();
                        for _ in 0..50 {
                            last = par_map(&items, |x| x * x + t);
                        }
                        last
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller"))
                .collect()
        });
        for (t, got) in results.iter().enumerate() {
            let t = t as u64;
            let want: Vec<u64> = (0..200).map(|i| i + t * 1000).map(|x| x * x + t).collect();
            assert_eq!(got, &want, "caller {t}");
        }
    }

    #[test]
    fn chunks_are_written_in_place() {
        for parallel in [false, true] {
            let mut data = vec![0u32; 1000];
            for_each_chunk_mut(&mut data, 64, parallel, |index, piece| {
                for (offset, v) in piece.iter_mut().enumerate() {
                    *v = (index * 64 + offset) as u32;
                }
            });
            assert_eq!(data, (0..1000).collect::<Vec<u32>>());
        }
    }
}
