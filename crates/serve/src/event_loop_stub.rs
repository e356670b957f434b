//! Stand-in for [`event_loop`](crate::event_loop) on platforms without the
//! raw-syscall epoll layer (`crate::sys`). Its [`spawn`] always fails with
//! [`io::ErrorKind::Unsupported`], so [`crate::Server::spawn`] reports the
//! platform as unsupported; the rest only keeps the crate compiling with
//! one code path for the batcher and workers on every platform.

#![allow(dead_code)]

use crate::batcher::{Request, WorkerReply};
use crate::registry::ModelRegistry;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// See the real `event_loop::LoopConfig`.
#[derive(Clone)]
pub(crate) struct LoopConfig {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) max_inflight: usize,
    pub(crate) max_conns: usize,
    pub(crate) slow_us: Option<u64>,
}

/// See the real `event_loop::LoopShared`. Unreachable on this platform.
pub(crate) struct LoopShared {
    never: std::convert::Infallible,
}

impl LoopShared {
    pub(crate) fn wake(&self) {
        match self.never {}
    }

    pub(crate) fn complete(&self, _completion: Completion) {
        match self.never {}
    }
}

/// See the real `event_loop::Completion`.
pub(crate) struct Completion {
    pub(crate) conn: u32,
    pub(crate) generation: u32,
    pub(crate) tag: Option<u32>,
    pub(crate) reply: WorkerReply,
    pub(crate) enqueued: Instant,
    pub(crate) decode_us: u64,
    pub(crate) id: u64,
}

/// See the real `event_loop::SpawnedLoops`.
pub(crate) type SpawnedLoops = (Vec<JoinHandle<()>>, Vec<Arc<LoopShared>>);

/// Always fails: this platform has no epoll front end.
pub(crate) fn spawn(
    _listener: TcpListener,
    _loops: usize,
    _cfg: LoopConfig,
    _running: Arc<AtomicBool>,
    _req_tx: SyncSender<Request>,
    _depth: Arc<AtomicUsize>,
    _active: Arc<AtomicUsize>,
) -> io::Result<SpawnedLoops> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the epoll event-loop front end is only available on Linux x86-64/aarch64",
    ))
}
