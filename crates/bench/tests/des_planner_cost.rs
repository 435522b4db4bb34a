//! CI gate on the cost of the tail planner's DES confirmation run. The
//! planner reads one order statistic of a 200 000-request run, so
//! `des::sojourn_quantile` must keep a single sojourn buffer and clearly
//! beat `des::simulate`, which keeps and sorts both latency CDFs. Both
//! checks are ratios or byte counts, so runner speed cannot flap them.
//!
//! A global allocator in this binary counts the bytes each thread
//! requests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hecmix_bench::best_of;
use hecmix_queueing::des::{self, DesConfig, ServiceDist};

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation while the thread tears down goes uncounted.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

/// The system allocator, counting requested bytes per thread.
struct Counting;

// SAFETY: each method passes its arguments unchanged to the same method
// of `System`, so the guarantees its caller gives under `GlobalAlloc`'s
// contract are exactly the ones `System` needs. Counting only updates a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The result of `f` and the bytes it requested on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

#[test]
fn planner_des_run_selects_instead_of_sorting() {
    // The planner's shape: one core, constant service, unbounded, ρ = 0.7.
    let cfg = DesConfig {
        pps: 0.7 / 100e-6,
        n_requests: 200_000,
        service: ServiceDist::Constant(100e-6),
        seed: 42,
    };
    let n = cfg.n_requests as usize;

    let (selected, select_bytes) = allocated_by(|| des::sojourn_quantile(&cfg, 0.99).unwrap());
    let (out, simulate_bytes) = allocated_by(|| des::simulate(&cfg).unwrap());
    assert_eq!(selected, out.sojourn.quantile(0.99));
    // One f64 per request, plus a little for the queue.
    assert!(
        select_bytes <= 8 * n + 64 * 1024,
        "sojourn_quantile allocated {select_bytes} B for {n} requests"
    );
    // Sojourn and wait buffers: proves the counter sees the samples.
    assert!(
        simulate_bytes >= 16 * n,
        "simulate allocated only {simulate_bytes} B for {n} requests"
    );

    let (select, sort) = best_of(
        5,
        || des::sojourn_quantile(&cfg, 0.99),
        || des::simulate(&cfg).map(|o| o.sojourn.quantile(0.99)),
    );
    assert!(
        select.as_secs_f64() <= 0.6 * sort.as_secs_f64(),
        "selecting the p99 took {select:?}, sorting both CDFs {sort:?}"
    );
}
