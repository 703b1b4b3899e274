//! The graph census ranks occupied members in an `i32` union-find, so
//! it must refuse a group past `i32::MAX` with a typed error — and
//! refuse it before it allocates anything proportional to `n`. A
//! counting allocator measures every byte the refusal requests; this
//! file holds a single test so no other test allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gossip_model::scenario::{Backend, FanoutSpec, Scenario};
use gossip_model::ModelError;
use gossip_rgraph::{GraphBackend, UnionFind};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged, so `System` meets the contract the caller relies on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_group_past_i32_is_refused_before_the_census_allocates() {
    let scenario = Scenario::new(UnionFind::MAX_LEN + 1, FanoutSpec::poisson(4.0))
        .with_failure_ratio(0.9)
        .with_replications(1);
    let before = BYTES.load(Ordering::Relaxed);
    let refusal = GraphBackend.evaluate(&scenario);
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    match refusal {
        Err(ModelError::InvalidParameter { name, value, .. }) => {
            assert_eq!(name, "n");
            assert_eq!(value, (UnionFind::MAX_LEN + 1) as f64);
        }
        other => panic!("expected a typed refusal of n, got {other:?}"),
    }
    // The Po(4) alias table is a few hundred bytes; one byte per member
    // would be 2 GiB.
    assert!(
        allocated < 1 << 16,
        "the refusal allocated {allocated} bytes"
    );
    // The largest group the census accepts is not refused for its size.
    let largest = Scenario::new(UnionFind::MAX_LEN, FanoutSpec::poisson(4.0));
    assert!(largest.validate().is_ok());
}
