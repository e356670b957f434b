//! Thread-local scratch arena for allocation-free steady-state kernels.
//!
//! Inference on a deployed network executes the same sequence of kernels
//! with the same buffer sizes on every call — im2col columns, GEMM
//! accumulators, stage outputs, spike-count buffers. Allocating those
//! per call is pure churn, so the hot paths borrow buffers from a
//! per-thread pool instead: [`take_f32`] / [`take_i32`] hand out a zeroed
//! buffer (reusing retained capacity when a previously [`put_f32`] /
//! [`put_i32`] buffer can hold it) and the caller returns it when done.
//! After a warm-up call, a fixed-shape pipeline hits the pool on every
//! take and performs **zero heap allocations** — which
//! [`fresh_allocations`] lets tests and benchmarks assert directly.
//!
//! The pool is thread-local: no locks, no cross-thread sharing, and the
//! worker threads of [`crate::parallel`] each get their own pool. Those
//! workers are persistent (parked between jobs, not respawned per call), so
//! scratch reuse materializes on every thread that runs kernels — the
//! serial (`QSNC_THREADS=1`) inference path that the single-core deployment
//! benchmarks measure, and the pool workers alike.
//!
//! Telemetry (when enabled) tallies pool traffic under the frozen names
//! `tensor.scratch.take` and `tensor.scratch.alloc`; their ratio is the
//! arena hit rate.

use std::cell::RefCell;

/// Retained buffers plus per-thread traffic counters.
struct Pool {
    f32s: Vec<Vec<f32>>,
    i32s: Vec<Vec<i32>>,
    i16s: Vec<Vec<i16>>,
    u32s: Vec<Vec<u32>>,
    u8s: Vec<Vec<u8>>,
    takes: u64,
    allocs: u64,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            f32s: Vec::new(),
            i32s: Vec::new(),
            i16s: Vec::new(),
            u32s: Vec::new(),
            u8s: Vec::new(),
            takes: 0,
            allocs: 0,
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool::new()) };
}

/// Upper bound on buffers retained per element type; beyond this, returned
/// buffers are dropped instead of pooled (a leak guard, not a perf knob —
/// the inference pipeline holds well under this many live buffers).
const MAX_POOLED: usize = 32;

macro_rules! impl_take_put {
    ($take:ident, $put:ident, $field:ident, $t:ty, $zero:expr) => {
        /// Borrows a zeroed buffer of exactly `len` elements from this
        /// thread's pool, reusing retained capacity when possible. Return
        /// it with the matching `put` function once done; dropping it
        /// instead is safe but forfeits the reuse.
        pub fn $take(len: usize) -> Vec<$t> {
            let (mut buf, fresh) = POOL.with(|p| {
                let mut p = p.borrow_mut();
                p.takes += 1;
                // Prefer the smallest retained buffer that can hold `len`
                // without reallocating; fall back to any retained buffer
                // (its capacity grows once, then stabilizes).
                let pick = p
                    .$field
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.capacity() >= len)
                    .min_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i);
                match pick {
                    Some(i) => (p.$field.swap_remove(i), false),
                    None => {
                        p.allocs += 1;
                        match p.$field.pop() {
                            Some(b) => (b, true), // will grow: counts as alloc
                            None => (Vec::new(), true),
                        }
                    }
                }
            });
            if fresh && qsnc_telemetry::enabled() {
                qsnc_telemetry::counter_add("tensor.scratch.alloc", 1);
            }
            if qsnc_telemetry::enabled() {
                qsnc_telemetry::counter_add("tensor.scratch.take", 1);
            }
            buf.clear();
            buf.resize(len, $zero);
            buf
        }

        /// Returns a buffer to this thread's pool for later reuse.
        pub fn $put(buf: Vec<$t>) {
            if buf.capacity() == 0 {
                return;
            }
            POOL.with(|p| {
                let mut p = p.borrow_mut();
                if p.$field.len() < MAX_POOLED {
                    p.$field.push(buf);
                }
            });
        }
    };
}

impl_take_put!(take_f32, put_f32, f32s, f32, 0.0f32);
impl_take_put!(take_i32, put_i32, i32s, i32, 0i32);
// i16 panels: the widened operands the SIMD kernels consume (spike counts
// widened from i32 for the FC dot kernel, the integer conv's padded plane).
impl_take_put!(take_i16, put_i16, i16s, i16, 0i16);
// u32 tables: the integer convolution's per-call tap-pair offsets.
impl_take_put!(take_u32, put_u32, u32s, u32, 0u32);
// Byte buffers: wire-frame payloads in the serving layer, whose connection
// threads are persistent and so amortize the pool exactly like the serial
// inference path does.
impl_take_put!(take_u8, put_u8, u8s, u8, 0u8);

/// Number of pool misses (takes that had to allocate or grow) on this
/// thread since the process started. A steady-state loop over fixed-shape
/// work must not advance this counter — the property the allocation-free
/// pipeline tests assert.
pub fn fresh_allocations() -> u64 {
    POOL.with(|p| p.borrow().allocs)
}

/// Number of [`take_f32`]/[`take_i32`] calls on this thread. Together with
/// [`fresh_allocations`] this gives the arena hit rate.
pub fn takes() -> u64 {
    POOL.with(|p| p.borrow().takes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_requested_len() {
        let mut b = take_f32(17);
        assert_eq!(b.len(), 17);
        assert!(b.iter().all(|&v| v == 0.0));
        b.fill(3.0);
        put_f32(b);
        // Reused buffer must come back zeroed.
        let b2 = take_f32(17);
        assert!(b2.iter().all(|&v| v == 0.0));
        put_f32(b2);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        // Warm up holding both buffers live at once, mirroring the loop —
        // taken sequentially, the second take would just reuse the first
        // buffer and the pool would retain only one.
        let a = take_i32(64);
        let b = take_i32(32);
        put_i32(a);
        put_i32(b);
        let base = fresh_allocations();
        for _ in 0..100 {
            let a = take_i32(64);
            let b = take_i32(32);
            put_i32(a);
            put_i32(b);
        }
        assert_eq!(fresh_allocations(), base, "steady-state takes must hit the pool");
    }

    #[test]
    fn smaller_request_reuses_larger_buffer() {
        let big = take_f32(1000);
        put_f32(big);
        let base = fresh_allocations();
        let small = take_f32(10);
        assert_eq!(fresh_allocations(), base);
        put_f32(small);
    }

    #[test]
    fn mixed_sizes_pick_best_fit() {
        let a = take_f32(100);
        let b = take_f32(1000);
        put_f32(a);
        put_f32(b);
        let base = fresh_allocations();
        // Both sizes live simultaneously: each take must find its buffer.
        let a = take_f32(100);
        let b = take_f32(1000);
        assert_eq!(fresh_allocations(), base);
        assert!(a.capacity() >= 100 && b.capacity() >= 1000);
        put_f32(a);
        put_f32(b);
    }
}
