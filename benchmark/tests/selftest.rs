//! Tests of the benchmark itself: the output oracle must catch a lossy set,
//! and the `Traced` wrapper must not change which code path a reclaimer or
//! a structure takes.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.
//! (This test binary does not install the counting allocator, so the leak
//! half of the oracle is exercised only by the benchmark binary.)

use conc_ds::{ConcurrentSet, HarrisList, LazyList};
use nbr::NbrPlus;
use nbr_benchmark::traced::Traced;
use nbr_benchmark::trial::trial;
use nbr_benchmark::workload::{smr_config, Structure, Workload};
use smr_baselines::{Debra, HazardEras, HazardPointers, Ibr};
use smr_common::{impl_smr_node, NodeHeader, Smr, SmrConfig};
use smr_harness::{Buildable, KeyDist, WorkloadMix};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn tiny() -> Workload {
    Workload {
        name: "tiny",
        structure: Structure::LazyList,
        mix: WorkloadMix::UPDATE_HEAVY,
        key_range: 64,
        prefill: 32,
        dist: KeyDist::Uniform,
        workers: 2,
        stalled_reader: false,
        rounds: 1,
    }
}

const WINDOW: Duration = Duration::from_millis(50);

/// A lazy list that reports its first insert as done without doing it.
struct Lossy<S: Smr> {
    inner: LazyList<S>,
    dropped: AtomicBool,
}

impl<S: Smr> ConcurrentSet<S> for Lossy<S> {
    fn smr(&self) -> &S {
        self.inner.smr()
    }
    fn contains(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        self.inner.contains(ctx, key)
    }
    fn insert(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        if !self.dropped.swap(true, Ordering::Relaxed) {
            return true;
        }
        self.inner.insert(ctx, key)
    }
    fn remove(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        self.inner.remove(ctx, key)
    }
    fn size(&self, ctx: &mut S::ThreadCtx) -> usize {
        self.inner.size(ctx)
    }
    fn name() -> &'static str {
        "lossy-lazy-list"
    }
}

impl<S: Smr> Buildable<S> for Lossy<S> {
    fn build(config: SmrConfig) -> Self {
        Self {
            inner: LazyList::new(config),
            dropped: AtomicBool::new(false),
        }
    }
}

#[test]
fn oracle_passes_a_correct_set() {
    let t = trial::<Debra, LazyList<Debra>>(&tiny(), 7, WINDOW, None);
    assert!(t.attempted > 0 && t.timed_ops > 0);
    assert_eq!(t.failed, 0, "{:?}", t.oracle);
    assert_eq!(t.oracle.expected, t.oracle.size);
}

#[test]
fn oracle_reports_a_dropped_insert() {
    let t = trial::<Debra, Lossy<Debra>>(&tiny(), 7, WINDOW, None);
    assert!(
        t.failed > 0,
        "a dropped insert must fail ops: {:?}",
        t.oracle
    );
}

#[test]
fn stalled_reader_pins_debra_but_not_nbr_plus() {
    let wl = Workload {
        workers: 1,
        stalled_reader: true,
        ..tiny()
    };
    let debra = trial::<Debra, LazyList<Debra>>(&wl, 3, WINDOW, None);
    let nbrp = trial::<NbrPlus, LazyList<NbrPlus>>(&wl, 3, WINDOW, None);
    assert_eq!(debra.failed + nbrp.failed, 0);
    let cfg = smr_config();
    assert!(
        nbrp.max_garbage <= 2 * cfg.hi_watermark as u64,
        "NBR+ neutralizes the stalled reader: {}",
        nbrp.max_garbage
    );
    assert!(
        debra.max_garbage > nbrp.max_garbage,
        "DEBRA frees nothing past the pinned epoch: {} vs {}",
        debra.max_garbage,
        nbrp.max_garbage
    );
}

#[test]
fn traced_trial_records_layers() {
    let t = trial::<Traced<NbrPlus>, LazyList<Traced<NbrPlus>>>(&tiny(), 5, WINDOW, None);
    assert_eq!(t.failed, 0, "{:?}", t.oracle);
    let c = t.layers.expect("a traced trial reports layers").counts;
    assert_eq!(c.ops, t.timed_ops);
    assert!(c.allocs > 0 && c.protects > 0 && c.read_phases >= c.ops);
    assert!(c.child_ns < c.op_ns);
    assert!(c.scans > 0, "the window must see at least one scan");
}

// `Traced` must pass the traversal contract through unchanged: HP cannot
// follow pointers out of unlinked records, the epoch and era schemes can.
const _: () = assert!(!<Traced<HazardPointers> as Smr>::CAN_TRAVERSE_UNLINKED);
const _: () = assert!(<Traced<Debra> as Smr>::CAN_TRAVERSE_UNLINKED);
const _: () = assert!(<Traced<Ibr> as Smr>::CAN_TRAVERSE_UNLINKED);

#[test]
fn traced_hp_still_forbids_traversing_unlinked_records() {
    // The constants are checked at compile time above; the Harris list under
    // Traced<HP> (one-at-a-time unlinking) still behaves as a set.
    let list = HarrisList::<Traced<HazardPointers>>::new(SmrConfig::for_tests());
    let mut ctx = list.smr().register(0);
    let mut model = BTreeSet::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..5_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = 1 + x % 97;
        match x % 3 {
            0 => assert_eq!(list.insert(&mut ctx, key), model.insert(key)),
            1 => assert_eq!(list.remove(&mut ctx, key), model.remove(&key)),
            _ => assert_eq!(list.contains(&mut ctx, key), model.contains(&key)),
        }
    }
    assert_eq!(list.size(&mut ctx), model.len());
    list.smr().unregister(&mut ctx);
}

struct Node {
    header: NodeHeader,
}
impl_smr_node!(Node);

/// IBR and HE override `alloc` (they stamp the birth era after the pool
/// pop, and advance the era every `epoch_freq` allocations); the trait's
/// default never advances the era. `Traced` must reach the override.
fn alloc_reaches_override<S: Smr>() {
    let cfg = SmrConfig::for_tests();
    let smr = Traced::<S>::new(cfg.clone());
    let mut ctx = smr.register(0);
    let era = smr.global_era();
    let nodes: Vec<_> = (0..4 * cfg.epoch_freq)
        .map(|_| {
            smr.alloc(
                &mut ctx,
                Node {
                    header: NodeHeader::new(),
                },
            )
        })
        .collect();
    assert!(
        smr.global_era() > era,
        "{} alloc did not advance the era",
        S::NAME
    );
    assert!(smr.thread_stats(&ctx).epoch_advances > 0);
    for n in nodes {
        // SAFETY: allocated above by this reclaimer and never published.
        unsafe { smr.dealloc_unpublished(&mut ctx, n) };
    }
    smr.unregister(&mut ctx);
}

#[test]
fn traced_ibr_routes_alloc_to_its_override() {
    alloc_reaches_override::<Ibr>();
}

#[test]
fn traced_he_routes_alloc_to_its_override() {
    alloc_reaches_override::<HazardEras>();
}
