//! The reference kernel every latency is divided by.
//!
//! On a shared two-core host the same binary's op time drifts by tens of
//! percent in regimes that last seconds to minutes. The kernel is timed
//! right beside each op and the op's time is reported as a ratio to it,
//! so drift that slows both cancels.
//!
//! Definition (changing any of it requires a re-baseline): one `run` is
//! 1. a pointer chase of [`CHASE_STEPS`] steps around a single random
//!    cycle of [`CHASE_LEN`] `u32` slots (256 KiB: L2-resident and
//!    latency-bound, like graph traversal), then
//! 2. [`BIT_SWEEPS`] forward sweeps over [`BIT_ROWS`] bitsets of
//!    [`BIT_WORDS`] words (128 KiB), each row becoming
//!    `(row | pred) & !(pred >> 1)` — the union/kill shape of a
//!    bit-vector fixpoint pass, streaming through L2, then
//! 3. [`SCAN_REPS`] passes of a lexer-like scan over [`SCAN_LEN`] bytes of
//!    pseudo-source (L1-resident, branchy), hashing identifier runs.
//!
//! Parts 1-2 are the *memory* part, part 3 the *scan* part; each is timed
//! on its own. A workload's reference duration is the memory part plus
//! its [`Mix`] weight times the scan part. The weights match the ops:
//! `scaled`'s op is a memory-bound fixpoint over a few MiB of graph and
//! uses the memory part alone; `table1`'s and `service`'s ops are mostly
//! front end (lexing, parsing, hashing, small allocations) over small
//! working sets and use [`Mix::FRONT_END`]. On a shared 2-core host the
//! memory part alone slowed up to 2x while those ops slowed 1.5x, which
//! moved their ratio by 15% from one batch of runs to the next.
//!
//! Within the memory part the chase is about 15% and the sweeps 85%: of
//! the mixes tried, this one kept `scaled`'s ratio steadiest, and both
//! move with the memory-bound ops when the host's memory hierarchy slows
//! down. The scan alone barely moves then, so it is never used alone.
//!
//! All buffers are built by [`RefKernel::new`] from a fixed seed; `run`
//! allocates nothing, uses one thread, and returns the same checksum on
//! every call.

use mpi_dfa_lang::rng::SplitMix64;
use std::time::Instant;

pub const CHASE_LEN: usize = 1 << 16;
pub const CHASE_STEPS: usize = 40_000;
pub const BIT_ROWS: usize = 256;
pub const BIT_WORDS: usize = 64;
pub const BIT_SWEEPS: usize = 360;
pub const SCAN_LEN: usize = 8 * 1024;
pub const SCAN_REPS: usize = 40;

/// The memory part's typical duration on the 2-core x86-64 host the
/// benchmark was tuned on (run medians 1.6-2.3 ms). With
/// [`SCAN_NOMINAL_S`], converts set-up time from kernel units to seconds;
/// both are fixed units, not measurements.
pub const MEMORY_NOMINAL_S: f64 = 0.002;
/// The scan part's typical duration on that host (about 0.8 ms).
pub const SCAN_NOMINAL_S: f64 = 0.0008;

/// A workload's weighting of the kernel's parts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Weight of the scan part; the memory part's is 1.
    pub scan: f64,
}

impl Mix {
    /// The memory part alone (`scaled`).
    pub const MEMORY: Mix = Mix { scan: 0.0 };
    /// Front-end-heavy ops (`table1`, `service`).
    pub const FRONT_END: Mix = Mix { scan: 2.0 };

    /// The reference duration of one sample, ns.
    pub fn weigh(self, t: PartTimes) -> u64 {
        t.memory_ns + (self.scan * t.scan_ns as f64).round() as u64
    }

    /// The reference's nominal duration, s: the unit `setup_s` is
    /// converted with.
    pub fn nominal_s(self) -> f64 {
        MEMORY_NOMINAL_S + self.scan * SCAN_NOMINAL_S
    }
}

/// The time of each part of one run, ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartTimes {
    pub memory_ns: u64,
    pub scan_ns: u64,
}

/// The kernel's seed. Fixed: the workload seed never reaches the kernel.
const KERNEL_SEED: u64 = 0x00C0_FFEE_5EED;

pub struct RefKernel {
    mix: Mix,
    text: Vec<u8>,
    next: Vec<u32>,
    init_bits: Vec<u64>,
    bits: Vec<u64>,
}

impl RefKernel {
    pub fn new(mix: Mix) -> RefKernel {
        let mut rng = SplitMix64::new(KERNEL_SEED);
        // Sattolo's shuffle: a single cycle through every slot.
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            let j = rng.below(i);
            next.swap(i, j);
        }
        let init_bits: Vec<u64> = (0..BIT_ROWS * BIT_WORDS).map(|_| rng.next_u64()).collect();
        let alphabet = b"abcdefghijklmnopqrstuvwxyz_0123456789 (){};=,.\n";
        let text = (0..SCAN_LEN)
            .map(|_| alphabet[rng.below(alphabet.len())])
            .collect();
        RefKernel {
            mix,
            text,
            next,
            bits: init_bits.clone(),
            init_bits,
        }
    }

    /// The workload's weighting of the parts.
    pub fn mix(&self) -> Mix {
        self.mix
    }

    /// One kernel sample; returns its checksum and the time of each part.
    pub fn run(&mut self) -> (u64, PartTimes) {
        let t0 = Instant::now();
        let mut at = 0u32;
        let mut chase = 0u64;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
            chase = chase.wrapping_add(u64::from(at));
        }

        self.bits.copy_from_slice(&self.init_bits);
        for _ in 0..BIT_SWEEPS {
            for r in 1..BIT_ROWS {
                let (done, rest) = self.bits.split_at_mut(r * BIT_WORDS);
                let pred = &done[(r - 1) * BIT_WORDS..];
                for (cur, &p) in rest[..BIT_WORDS].iter_mut().zip(pred) {
                    *cur = (*cur | p) & !(p >> 1);
                }
            }
        }
        let bits = self.bits.iter().fold(0u64, |h, &w| h.rotate_left(7) ^ w);
        let t1 = Instant::now();

        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut scan = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..SCAN_REPS {
            let mut in_word = false;
            for &b in &self.text {
                match b {
                    b'a'..=b'z' | b'_' => {
                        scan = (scan ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                        in_word = true;
                    }
                    b'0'..=b'9' if in_word => {
                        scan = (scan ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                    }
                    _ => {
                        if in_word {
                            scan = scan.rotate_left(5);
                        }
                        in_word = false;
                    }
                }
            }
        }
        let t2 = Instant::now();

        let times = PartTimes {
            memory_ns: (t1 - t0).as_nanos() as u64,
            scan_ns: (t2 - t1).as_nanos() as u64,
        };
        (chase ^ bits.rotate_left(21) ^ scan.rotate_left(42), times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts allocations made by the current thread, so tests running in
    /// parallel do not disturb each other's counts.
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|c| c.set(c.get() + 1));
            // SAFETY: forwards the caller's layout to the system allocator.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn run_allocates_nothing_after_setup() {
        let mut k = RefKernel::new(Mix::MEMORY);
        let before = ALLOCS.with(Cell::get);
        for _ in 0..3 {
            std::hint::black_box(k.run());
        }
        assert_eq!(
            ALLOCS.with(Cell::get),
            before,
            "kernel allocated during run"
        );
    }

    #[test]
    fn checksum_is_deterministic() {
        let mut a = RefKernel::new(Mix::MEMORY);
        let first = a.run().0;
        assert_eq!(a.run().0, first, "a second run on the same kernel differs");
        assert_eq!(RefKernel::new(Mix::MEMORY).run().0, first, "a fresh kernel differs");
        assert_eq!(
            first, GOLDEN_CHECKSUM,
            "kernel definition changed: re-baseline"
        );
    }

    #[test]
    fn mix_weighs_the_parts() {
        let t = PartTimes {
            memory_ns: 2_000,
            scan_ns: 800,
        };
        assert_eq!(Mix::MEMORY.weigh(t), 2_000);
        assert_eq!(Mix::FRONT_END.weigh(t), 3_600);
        assert!((Mix::FRONT_END.nominal_s() - 0.0036).abs() < 1e-12);
        let mut k = RefKernel::new(Mix::MEMORY);
        let (_, times) = k.run();
        assert!(times.memory_ns > 0 && times.scan_ns > 0);
    }

    /// The checksum of the kernel as defined above.
    const GOLDEN_CHECKSUM: u64 = 10_325_764_988_581_385_373;
}
