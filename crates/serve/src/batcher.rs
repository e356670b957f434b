//! Micro-batching over the bounded request queue.
//!
//! The workers share one [`MicroBatcher`] behind a mutex and pull their
//! own batches from it; there is no batcher thread between the queue and
//! the workers. An idle worker blocks for the first request, then takes
//! whatever else is already queued without waiting — up to `max_batch`,
//! and only requests for the same engine version — and runs at once. A
//! lone request therefore never waits for batch-mates, and under load the
//! queue refills while the worker infers, so batches grow with the
//! backlog. A non-zero `max_delay` (`QSNC_SERVE_MAX_DELAY_US`, default 0)
//! adds an extra wait for stragglers, opened only once the queue has been
//! drained. While every worker is busy, admitted requests stay in the
//! bounded queue, which is where the `Busy` backpressure engages.

use crate::event_loop::LoopShared;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a finished inference result goes: back to the event loop that
/// owns the connection, via its completion queue + wakeup pipe.
pub(crate) struct ReplyRoute {
    /// The owning loop's shared half.
    pub(crate) shared: Arc<LoopShared>,
    /// Connection slot index in that loop.
    pub(crate) conn: u32,
    /// Slot generation — a stale completion (connection since closed and
    /// slot reused) is dropped instead of misdelivered.
    pub(crate) generation: u32,
    /// The client's request tag (`None` for a v1 frame).
    pub(crate) tag: Option<u32>,
}

/// One admitted inference request travelling from a front end to a worker.
pub(crate) struct Request {
    /// Decoded input example.
    pub(crate) input: Vec<f32>,
    /// The model entry + engine version this request was admitted against.
    /// Resolved by the front end **at admission**, so a hot swap mid-queue
    /// never changes which engine serves it. `None` only in batcher unit
    /// tests, which exercise windowing without a compiled network.
    pub(crate) lease: Option<crate::registry::Lease>,
    /// Where the worker sends the result. `None` only in batcher unit
    /// tests, which never reach a worker.
    pub(crate) route: Option<ReplyRoute>,
    /// When the request was admitted to the queue (serve.latency_us start).
    pub(crate) enqueued: Instant,
    /// Microseconds the front end spent decoding the frame (for the slow
    /// trace; zero when telemetry is off).
    pub(crate) decode_us: u64,
    /// Process-wide request id (for the slow trace; zero when telemetry is
    /// off).
    pub(crate) id: u64,
}

/// A finished inference result, carrying the worker-side stage timings the
/// event loop needs to assemble a complete slow-request trace.
pub(crate) struct WorkerReply {
    /// Index of the largest logit.
    pub(crate) argmax: u32,
    /// The class logits, bit-identical to `infer_reference`.
    pub(crate) logits: Vec<f32>,
    /// Microseconds the request spent queued (plus any `max_delay` window)
    /// before a worker took its batch (zero when telemetry is off).
    pub(crate) queue_us: u64,
    /// Microseconds the batched `infer_batch_into` call took; shared by
    /// every request in the batch (zero when telemetry is off).
    pub(crate) infer_us: u64,
    /// How many requests shared the batch this one rode in.
    pub(crate) batch: u32,
}

/// Histogram bucket edges for `serve.batch.size`.
pub(crate) const BATCH_SIZE_EDGES: &[f64] = &[2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Histogram bucket edges for `serve.queue.depth`.
pub(crate) const QUEUE_DEPTH_EDGES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// The consuming half of the request queue plus the batching policy.
pub(crate) struct MicroBatcher {
    rx: Receiver<Request>,
    max_batch: usize,
    max_delay: Duration,
    /// Shared queue-occupancy gauge, decremented as requests are popped.
    depth: Arc<AtomicUsize>,
    /// A request popped from the queue but held back because it targets a
    /// different engine version than the batch being assembled — it opens
    /// the next batch instead. Already depth-decremented.
    carry: Option<Request>,
}

impl MicroBatcher {
    pub(crate) fn new(
        rx: Receiver<Request>,
        max_batch: usize,
        max_delay: Duration,
        depth: Arc<AtomicUsize>,
    ) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        MicroBatcher { rx, max_batch, max_delay, depth, carry: None }
    }

    /// Whether `req` can run in the same `infer_batch_into` call as the
    /// batch opener: a batch is **version-homogeneous** — one engine
    /// snapshot per batch — so a request for a different model (or a
    /// just-swapped version of the same model) ends the window and opens
    /// the next batch.
    fn joins(batch: &[Request], req: &Request) -> bool {
        match (batch.first().and_then(|r| r.lease.as_ref()), req.lease.as_ref()) {
            (Some(a), Some(b)) => a.same_version(b),
            // Lease-less requests only exist in unit tests; batch freely.
            _ => true,
        }
    }

    /// Blocks for the next batch: the first request (or the carried one),
    /// then every request already queued, up to `max_batch`. Waits
    /// `max_delay` for more only after the queue has run empty. Returns
    /// `None` once every producer has disconnected and the queue is
    /// drained — buffered requests are still delivered first, which is
    /// what makes shutdown drain rather than drop.
    pub(crate) fn next_batch(&mut self) -> Option<Vec<Request>> {
        let mut batch = Vec::with_capacity(self.max_batch);
        match self.carry.take() {
            // A carried request was depth-decremented when first popped.
            Some(req) => batch.push(req),
            None => {
                let req = self.rx.recv().ok()?;
                self.depth.fetch_sub(1, Ordering::Relaxed);
                batch.push(req);
            }
        }
        let mut deadline = None;
        while batch.len() < self.max_batch {
            let req = match self.rx.try_recv() {
                Ok(req) => req,
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    // The queue is drained: the window, if any, opens now.
                    let deadline = *deadline.get_or_insert_with(|| Instant::now() + self.max_delay);
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    match self.rx.recv_timeout(remaining) {
                        Ok(req) => req,
                        Err(_) => break,
                    }
                }
            };
            self.depth.fetch_sub(1, Ordering::Relaxed);
            if !Self::joins(&batch, &req) {
                // Different engine version: flush now, start the next
                // batch from this request.
                self.carry = Some(req);
                break;
            }
            batch.push(req);
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn request(v: f32) -> Request {
        Request {
            input: vec![v],
            lease: None,
            route: None,
            enqueued: Instant::now(),
            decode_us: 0,
            id: 0,
        }
    }

    #[test]
    fn flushes_at_max_batch_before_deadline() {
        let (tx, rx) = mpsc::sync_channel(16);
        let depth = Arc::new(AtomicUsize::new(0));
        // A generous delay: the flush below must come from the size bound.
        let mut batcher = MicroBatcher::new(rx, 3, Duration::from_secs(30), Arc::clone(&depth));
        for i in 0..5 {
            depth.fetch_add(1, Ordering::Relaxed);
            tx.send(request(i as f32)).unwrap();
        }
        let start = Instant::now();
        let batch = batcher.next_batch().expect("batch");
        assert_eq!(batch.len(), 3);
        assert!(start.elapsed() < Duration::from_secs(5), "flush must not wait the delay out");
        assert_eq!(depth.load(Ordering::Relaxed), 2);
        assert_eq!(batch[0].input, vec![0.0]);
        assert_eq!(batch[2].input, vec![2.0]);
    }

    #[test]
    fn flushes_partial_batch_at_deadline() {
        let (tx, rx) = mpsc::sync_channel(16);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut batcher = MicroBatcher::new(rx, 8, Duration::from_millis(20), Arc::clone(&depth));
        depth.fetch_add(1, Ordering::Relaxed);
        tx.send(request(7.0)).unwrap();
        let batch = batcher.next_batch().expect("batch");
        assert_eq!(batch.len(), 1, "deadline must flush a partial batch");
        // Keep the sender alive to this point so disconnect wasn't the cause.
        drop(tx);
    }

    #[test]
    fn drains_queue_after_disconnect_then_stops() {
        let (tx, rx) = mpsc::sync_channel(16);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut batcher = MicroBatcher::new(rx, 2, Duration::from_millis(5), Arc::clone(&depth));
        for i in 0..3 {
            depth.fetch_add(1, Ordering::Relaxed);
            tx.send(request(i as f32)).unwrap();
        }
        drop(tx);
        assert_eq!(batcher.next_batch().expect("first").len(), 2);
        assert_eq!(batcher.next_batch().expect("drained remainder").len(), 1);
        assert!(batcher.next_batch().is_none(), "drained queue must end the loop");
        assert_eq!(depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_delay_takes_what_is_queued_without_waiting() {
        let (tx, rx) = mpsc::sync_channel(16);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut batcher = MicroBatcher::new(rx, 3, Duration::ZERO, Arc::clone(&depth));
        for i in 0..5 {
            depth.fetch_add(1, Ordering::Relaxed);
            tx.send(request(i as f32)).unwrap();
        }
        let batch = batcher.next_batch().expect("batch");
        assert_eq!(batch.len(), 3, "an idle worker takes every queued request up to max_batch");
        assert_eq!(depth.load(Ordering::Relaxed), 2);
        assert_eq!(batch[0].input, vec![0.0]);
        assert_eq!(batch[2].input, vec![2.0]);
    }
}
