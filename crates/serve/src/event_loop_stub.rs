//! Stand-in for [`event_loop`](crate::event_loop) on platforms without the
//! raw-syscall epoll layer (`crate::sys`). Its [`spawn`] always fails with
//! [`io::ErrorKind::Unsupported`], so [`crate::Server::spawn`] reports the
//! platform as unsupported; the rest only keeps the crate compiling.

#![allow(dead_code)]

use crate::registry::ModelRegistry;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::thread::JoinHandle;

/// See the real `event_loop::LoopConfig`.
#[derive(Clone)]
pub(crate) struct LoopConfig {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) max_inflight: usize,
    pub(crate) max_conns: usize,
    pub(crate) slow_us: Option<u64>,
    pub(crate) max_batch: usize,
}

/// See the real `event_loop::LoopShared`. Unreachable on this platform.
pub(crate) struct LoopShared {
    never: std::convert::Infallible,
}

impl LoopShared {
    pub(crate) fn wake(&self) {
        match self.never {}
    }
}

/// See the real `event_loop::SpawnedLoops`.
pub(crate) type SpawnedLoops = (Vec<JoinHandle<()>>, Vec<Arc<LoopShared>>);

/// Always fails: this platform has no epoll front end.
pub(crate) fn spawn(
    _listener: TcpListener,
    _loops: usize,
    _cfg: LoopConfig,
    _running: Arc<AtomicBool>,
    _active: Arc<AtomicUsize>,
) -> io::Result<SpawnedLoops> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the epoll event-loop front end is only available on Linux x86-64/aarch64",
    ))
}
