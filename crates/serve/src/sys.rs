//! Raw `epoll` syscalls — the only kernel interface `std::net` does not
//! expose that the event-loop front end needs.
//!
//! The crate is zero-dependency by design, so instead of pulling in `libc`
//! or `mio` these three syscalls (`epoll_create1`, `epoll_ctl`,
//! `epoll_pwait`) are issued directly with inline assembly on x86-64 and
//! aarch64 Linux. Everything else stays in `std`: sockets are ordinary
//! `TcpStream`/`TcpListener`/`UnixStream` values put into non-blocking
//! mode, reads and writes go through `std::io`, and the epoll instance
//! itself is wrapped in an [`OwnedFd`] so the close-on-drop path is std's,
//! not ours.
//!
//! On any other platform the module compiles to nothing and
//! [`crate::Server::spawn`] fails with `io::ErrorKind::Unsupported`.

#![allow(clippy::upper_case_acronyms)]

use std::io;
use std::os::fd::{FromRawFd, OwnedFd, RawFd};

/// Readiness: the fd has bytes to read.
pub(crate) const EPOLLIN: u32 = 0x001;
/// Readiness: the fd can accept writes.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never needs registering).
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, never needs registering).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half — lets a half-close surface as an event
/// even while the local read buffer still holds unparsed frames.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

/// `epoll_ctl` op: register a new fd.
pub(crate) const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` op: deregister an fd.
pub(crate) const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` op: change an fd's interest set.
pub(crate) const EPOLL_CTL_MOD: i32 = 3;

/// `EPOLL_CLOEXEC` — same bit as `O_CLOEXEC`.
const EPOLL_CLOEXEC: usize = 0o2000000;

/// One readiness event. The kernel ABI packs this struct on x86-64 (the
/// `data` field sits at offset 4); other architectures use natural
/// alignment — getting this wrong corrupts every second event, so the
/// layout is asserted in the tests below.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    pub(crate) const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const EPOLL_CREATE1: usize = 291;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
}

/// Issues a six-argument Linux syscall and returns the raw kernel result
/// (`-errno` on failure, as the kernel ABI defines).
///
/// # Safety
///
/// The caller must uphold the contract of the specific syscall: every
/// pointer argument must be valid for the kernel's access pattern for the
/// duration of the call.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: `syscall` clobbers only rcx/r11 (declared) and the return
    // register; argument registers follow the x86-64 Linux ABI.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// See the x86-64 variant; aarch64 passes arguments in x0–x5 with the
/// syscall number in x8.
///
/// # Safety
///
/// Same contract as the x86-64 variant.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: `svc 0` follows the aarch64 Linux syscall ABI; no additional
    // registers are clobbered.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
    }
    ret
}

/// Converts a raw kernel return value into `io::Result<usize>`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// Creates a new epoll instance (close-on-exec). The returned [`OwnedFd`]
/// closes it on drop through std.
pub(crate) fn epoll_create() -> io::Result<OwnedFd> {
    // SAFETY: epoll_create1 reads no memory.
    let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
    // SAFETY: the fd was just returned by the kernel and is owned by no
    // other wrapper.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
}

/// Registers, modifies, or removes `fd` in the epoll interest list.
/// `events`/`data` are ignored by the kernel for `EPOLL_CTL_DEL`.
pub(crate) fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let ev = EpollEvent { events, data };
    // SAFETY: `ev` lives across the call; the kernel copies it before
    // returning. A null pointer is valid (and conventional) for DEL.
    let ptr = if op == EPOLL_CTL_DEL { 0 } else { (&raw const ev) as usize };
    check(unsafe { syscall6(nr::EPOLL_CTL, epfd as usize, op as usize, fd as usize, ptr, 0, 0) })?;
    Ok(())
}

/// Waits for readiness events, filling `events` and returning how many
/// arrived. `timeout_ms` of `-1` blocks indefinitely. `EINTR` retries
/// internally so callers never see a spurious empty wake.
pub(crate) fn epoll_wait(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        // SAFETY: `events` is a valid writable buffer of the declared
        // length for the duration of the call; the sigmask is null (no
        // signal-mask swap), for which sigsetsize is ignored.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                0,
            )
        };
        match check(ret) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_event_matches_kernel_abi() {
        // x86-64 packs the struct (data at offset 4, size 12); everywhere
        // else natural alignment applies (data at offset 8, size 16).
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
            assert_eq!(std::mem::align_of::<EpollEvent>(), 1);
        } else {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
    }

    #[test]
    fn create_register_wait_round_trip() {
        let ep = epoll_create().expect("epoll_create1");
        let (a, b) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_ADD, a.as_raw_fd(), EPOLLIN, 42).expect("ctl add");

        // Nothing readable yet: a zero-timeout wait returns no events.
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll_wait(ep.as_raw_fd(), &mut events, 0).expect("wait"), 0);

        // One byte in: exactly one event, carrying our cookie.
        use std::io::Write as _;
        (&b).write_all(&[1]).unwrap();
        let n = epoll_wait(ep.as_raw_fd(), &mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 42);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        // MOD to write-interest only: the pending byte no longer wakes us.
        epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_MOD, a.as_raw_fd(), EPOLLOUT, 43).expect("ctl mod");
        let n = epoll_wait(ep.as_raw_fd(), &mut events, 100).expect("wait");
        assert_eq!(n, 1, "an idle writable socket reports EPOLLOUT");
        assert_eq!({ events[0].data }, 43);
        assert_ne!({ events[0].events } & EPOLLOUT, 0);

        // DEL: no more events at all.
        epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_DEL, a.as_raw_fd(), 0, 0).expect("ctl del");
        assert_eq!(epoll_wait(ep.as_raw_fd(), &mut events, 50).expect("wait"), 0);
    }

    #[test]
    fn ctl_on_bad_fd_reports_error() {
        let ep = epoll_create().unwrap();
        let err = epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_ADD, -1, EPOLLIN, 0).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(9), "EBADF expected, got {err}");
    }
}
