//! Direct `extern "C"` bindings to the handful of Linux syscalls the OS
//! transport needs.
//!
//! The container builds offline, so the usual `libc` crate is unavailable;
//! consistent with the shim policy (DESIGN.md §7) the [`crate::tcp`] module
//! links the few functions it needs straight out of the C library that std
//! already links. Everything here is `pub(crate)`: the rest of the crate
//! (and the workspace) only ever sees the safe [`crate::tcp`] wrappers.
//!
//! Scope: epoll (the [`crate::tcp::OsReactor`] event source), `poll` (the
//! blocking client helpers), `recv` with `MSG_PEEK` (socket-state probes
//! behind [`crate::Endpoint::readable`]), `ioctl(FIONREAD)`, raw
//! `socket`/`setsockopt`/`bind`/`listen` (needed because std cannot set
//! `SO_REUSEPORT` before binding — the accept-sharding path), `writev`
//! (vectored header+body responses), a `pipe2` self-pipe per reactor
//! (a cross-thread post ends the dispatcher's `epoll_wait` through it),
//! and `splice` with `fcntl(F_SETPIPE_SZ)` for the body pipes
//! ([`crate::BodyPipe`]) that carry unprojected bodies kernel to kernel.

#![allow(non_camel_case_types)]

use std::os::unix::io::RawFd;

pub(crate) type c_int = i32;

/// One epoll registration/report record.
///
/// The kernel ABI packs this struct on x86_64 (and only there); mirroring
/// the `cfg_attr` keeps the binding correct on other Linux targets too.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct epoll_event {
    pub events: u32,
    /// User data; the reactor stores the registered file descriptor.
    pub u64: u64,
}

/// One `poll(2)` entry.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct pollfd {
    pub fd: c_int,
    pub events: i16,
    pub revents: i16,
}

/// One segment of a vectored write (`writev(2)`).
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct iovec {
    pub iov_base: *const u8,
    pub iov_len: usize,
}

/// An IPv4 socket address in kernel layout (`sin_port`/`sin_addr` are
/// big-endian). Only the loopback/IPv4 accept-sharding path needs the raw
/// form; everything else goes through std.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct sockaddr_in {
    pub sin_family: u16,
    pub sin_port: u16,
    pub sin_addr: u32,
    pub sin_zero: [u8; 8],
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery; consumers must drain to `WouldBlock`, exactly
/// the contract `crate::poller` already imposes on the simulated sources.
pub(crate) const EPOLLET: u32 = 1 << 31;

pub(crate) const EPOLL_CTL_ADD: c_int = 1;
pub(crate) const EPOLL_CTL_DEL: c_int = 2;
pub(crate) const EPOLL_CTL_MOD: c_int = 3;

pub(crate) const EPOLL_CLOEXEC: c_int = 0o2000000;

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;

pub(crate) const MSG_PEEK: c_int = 0x02;
pub(crate) const MSG_DONTWAIT: c_int = 0x40;

pub(crate) const FIONREAD: u64 = 0x541B;

pub(crate) const AF_INET: c_int = 2;
pub(crate) const SOCK_STREAM: c_int = 1;
pub(crate) const SOCK_CLOEXEC: c_int = 0o2000000;

pub(crate) const SOL_SOCKET: c_int = 1;
pub(crate) const SO_REUSEADDR: c_int = 2;
pub(crate) const SO_REUSEPORT: c_int = 15;

pub(crate) const O_NONBLOCK: c_int = 0o4000;
pub(crate) const O_CLOEXEC: c_int = 0o2000000;

/// `fcntl` commands resizing / reading a pipe's capacity.
pub(crate) const F_SETPIPE_SZ: c_int = 1031;
pub(crate) const F_GETPIPE_SZ: c_int = 1032;

/// `splice(2)` flags: move pages instead of copying where the kernel can,
/// and never block on the pipe (the socket is non-blocking already).
pub(crate) const SPLICE_F_MOVE: u32 = 1;
pub(crate) const SPLICE_F_NONBLOCK: u32 = 2;

/// Atomic-write bound of a pipe: a write of at most this many bytes is
/// all or nothing.
pub(crate) const PIPE_BUF: usize = 4096;

pub(crate) const EINTR: c_int = 4;
pub(crate) const EAGAIN: c_int = 11;
/// Out of memory (kernel buffers) — treated as transient accept pressure.
pub(crate) const ENOMEM: c_int = 12;
/// File-table overflow (system-wide fd exhaustion).
pub(crate) const ENFILE: c_int = 23;
/// Per-process fd limit hit — the classic accept-loop killer.
pub(crate) const EMFILE: c_int = 24;
/// No kernel buffer space — transient accept pressure.
pub(crate) const ENOBUFS: c_int = 105;

extern "C" {
    pub(crate) fn epoll_create1(flags: c_int) -> c_int;
    pub(crate) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub(crate) fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub(crate) fn poll(fds: *mut pollfd, nfds: u64, timeout: c_int) -> c_int;
    pub(crate) fn recv(fd: c_int, buf: *mut u8, len: usize, flags: c_int) -> isize;
    pub(crate) fn ioctl(fd: c_int, request: u64, arg: *mut c_int) -> c_int;
    pub(crate) fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    pub(crate) fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_int,
        optlen: u32,
    ) -> c_int;
    pub(crate) fn bind(fd: c_int, addr: *const sockaddr_in, addrlen: u32) -> c_int;
    pub(crate) fn listen(fd: c_int, backlog: c_int) -> c_int;
    pub(crate) fn writev(fd: c_int, iov: *const iovec, iovcnt: c_int) -> isize;
    pub(crate) fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    pub(crate) fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    pub(crate) fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    pub(crate) fn close(fd: c_int) -> c_int;
    pub(crate) fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    pub(crate) fn splice(
        fd_in: c_int,
        off_in: *mut i64,
        fd_out: c_int,
        off_out: *mut i64,
        len: usize,
        flags: u32,
    ) -> isize;
}

/// The current thread's `errno` value (via std, so no binding to the
/// libc-internal TLS symbol is needed).
pub(crate) fn errno() -> c_int {
    std::io::Error::last_os_error().raw_os_error().unwrap_or(0)
}

/// Blocks until `fd` reports any of `events` (or an error/hangup), up to
/// `timeout`. Returns `true` if the descriptor is ready, `false` on
/// timeout. Used by the blocking client helpers, never by dispatchers.
/// `poll(2)` counts whole milliseconds, so a timeout is rounded up: a
/// caller that waits out a deadline in a loop must not spin through its
/// last sub-millisecond remainder with zero-timeout polls.
pub(crate) fn wait_ready(fd: RawFd, events: i16, timeout: std::time::Duration) -> bool {
    let mut entry = pollfd {
        fd,
        events,
        revents: 0,
    };
    let millis = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    loop {
        let rc = unsafe { poll(&mut entry, 1, millis) };
        if rc > 0 {
            return true;
        }
        if rc == 0 {
            return false;
        }
        if errno() != EINTR {
            return true; // Let the caller's read/write surface the error.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_instance_can_be_created_and_driven() {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        assert!(epfd >= 0, "epoll_create1 failed: errno {}", errno());
        // An empty instance times out promptly.
        let mut events = [epoll_event { events: 0, u64: 0 }; 4];
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), 4, 10) };
        assert_eq!(n, 0);
        use std::os::fd::{FromRawFd, OwnedFd};
        drop(unsafe { OwnedFd::from_raw_fd(epfd) });
    }

    #[test]
    fn writev_gathers_segments_into_one_stream() {
        use std::io::Read;
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut accepted, _) = listener.accept().unwrap();
        let head = b"HEAD";
        let body = b"-BODY";
        let iov = [
            iovec {
                iov_base: head.as_ptr(),
                iov_len: head.len(),
            },
            iovec {
                iov_base: body.as_ptr(),
                iov_len: body.len(),
            },
        ];
        let n = unsafe { writev(stream.as_raw_fd(), iov.as_ptr(), 2) };
        assert_eq!(n, 9, "writev failed: errno {}", errno());
        let mut buf = [0u8; 9];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"HEAD-BODY");
    }

    #[test]
    fn two_sockets_can_share_a_port_with_reuseport() {
        let bound = |port: u16| -> c_int {
            let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
            assert!(fd >= 0);
            let one: c_int = 1;
            assert_eq!(
                unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, 4) },
                0
            );
            let addr = sockaddr_in {
                sin_family: AF_INET as u16,
                sin_port: port.to_be(),
                sin_addr: u32::from(std::net::Ipv4Addr::LOCALHOST).to_be(),
                sin_zero: [0; 8],
            };
            assert_eq!(
                unsafe { bind(fd, &addr, std::mem::size_of::<sockaddr_in>() as u32) },
                0,
                "bind failed: errno {}",
                errno()
            );
            assert_eq!(unsafe { listen(fd, 16) }, 0);
            fd
        };
        // Resolve a free port via the first socket, then share it.
        let first = bound(0);
        use std::os::fd::{FromRawFd, OwnedFd};
        let first = unsafe { std::net::TcpListener::from_raw_fd(first) };
        let port = first.local_addr().unwrap().port();
        let second = bound(port);
        drop(unsafe { OwnedFd::from_raw_fd(second) });
    }

    #[test]
    fn wait_ready_times_out_on_a_silent_socket() {
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let started = std::time::Instant::now();
        assert!(!wait_ready(
            stream.as_raw_fd(),
            POLLIN,
            std::time::Duration::from_millis(30)
        ));
        assert!(started.elapsed() >= std::time::Duration::from_millis(25));
        // A sub-millisecond remainder blocks too, rather than returning at
        // once.
        let started = std::time::Instant::now();
        assert!(!wait_ready(
            stream.as_raw_fd(),
            POLLIN,
            std::time::Duration::from_micros(300)
        ));
        assert!(started.elapsed() >= std::time::Duration::from_micros(300));
    }
}
