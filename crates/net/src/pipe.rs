//! Body pipes: the kernel buffer a message body crosses the middlebox in
//! when no rule reads it (DESIGN.md §11, "pass-through bodies").
//!
//! A body pipe is one `pipe2(O_NONBLOCK | O_CLOEXEC)` per streamed
//! message. The source connection fills it ([`crate::Endpoint::fill_pipe`])
//! and the destination connection drains it
//! ([`crate::Endpoint::drain_pipe`]). On the OS transport both moves are
//! `splice(2)`, so the bytes go socket → pipe → socket and never enter
//! user space. The simulated transport has no kernel buffers to splice
//! from, so its side of a move copies through user space with the same
//! accounting as its reads and writes; a sim/TCP pair copies on the sim
//! side and splices on the kernel side.

use crate::error::NetError;
use crate::sys;
use parking_lot::{Mutex, MutexGuard};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

/// The capacity a body pipe asks the kernel for (`F_SETPIPE_SZ`): a
/// 1 MiB body fits whole, so its source rarely waits on its destination.
/// If the kernel refuses (a process over its pipe budget), the pipe keeps
/// the default size and works the same, in more rounds.
pub const BODY_PIPE_BYTES: usize = 1 << 20;

/// One message body's kernel pipe. Owns both ends; dropping it closes
/// them.
#[derive(Debug)]
pub struct BodyPipe {
    read: OwnedFd,
    write: OwnedFd,
    capacity: usize,
    /// Bytes a copying drain took out of the pipe that its simulated
    /// destination has not accepted yet; they leave first on the next
    /// drain. Always empty on a pipe drained by `splice(2)`.
    spill: Mutex<Vec<u8>>,
}

impl BodyPipe {
    /// Opens a pipe sized to [`BODY_PIPE_BYTES`], or to the kernel default
    /// if the resize is refused.
    pub fn new() -> Result<Self, NetError> {
        let mut pipe = Self::with_default_size()?;
        // SAFETY: plain fcntl on a descriptor this pipe owns.
        let rc = unsafe {
            sys::fcntl(
                pipe.write.as_raw_fd(),
                sys::F_SETPIPE_SZ,
                BODY_PIPE_BYTES as sys::c_int,
            )
        };
        if rc > 0 {
            pipe.capacity = rc as usize;
        }
        Ok(pipe)
    }

    /// Opens a pipe at the kernel's default size (64 KiB on Linux): what
    /// [`BodyPipe::new`] falls back to, opened directly so the small-pipe
    /// protocol can be exercised on purpose.
    pub fn with_default_size() -> Result<Self, NetError> {
        let mut fds = [0 as sys::c_int; 2];
        // SAFETY: `fds` is a live two-element array, as pipe2 requires.
        if unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) } != 0 {
            return Err(crate::tcp::last_os_error());
        }
        // SAFETY: pipe2 succeeded, so both descriptors are fresh and ours.
        let (read, write) = unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) };
        // SAFETY: plain fcntl on a descriptor we own.
        let capacity = unsafe { sys::fcntl(write.as_raw_fd(), sys::F_GETPIPE_SZ) };
        Ok(BodyPipe {
            read,
            write,
            capacity: capacity.max(sys::PIPE_BUF as sys::c_int) as usize,
            spill: Mutex::new(Vec::new()),
        })
    }

    pub(crate) fn read_fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    pub(crate) fn write_fd(&self) -> RawFd {
        self.write.as_raw_fd()
    }

    /// Bytes in the kernel pipe (`FIONREAD`), not counting the spill.
    pub(crate) fn queued(&self) -> usize {
        let mut queued: sys::c_int = 0;
        // SAFETY: FIONREAD writes one int through the pointer.
        if unsafe { sys::ioctl(self.read_fd(), sys::FIONREAD, &mut queued) } == 0 {
            queued.max(0) as usize
        } else {
            0
        }
    }

    pub(crate) fn spill(&self) -> MutexGuard<'_, Vec<u8>> {
        self.spill.lock()
    }

    /// Copies up to `max` bytes that `read` produces into the pipe — the
    /// fill of a source with no kernel buffer to splice from. Each round
    /// reads at most [`sys::PIPE_BUF`] bytes and writes them in one
    /// atomic write, and only while the pipe is at most half full: pages
    /// written in pieces may sit half empty, so that is the bound under
    /// which a free page is certain and no byte read is ever left over.
    pub(crate) fn copy_in(
        &self,
        max: usize,
        mut read: impl FnMut(&mut [u8]) -> Result<usize, NetError>,
    ) -> Result<usize, NetError> {
        let mut chunk = [0u8; sys::PIPE_BUF];
        let mut moved = 0;
        while moved < max && self.queued() + sys::PIPE_BUF <= self.capacity / 2 {
            let want = (max - moved).min(sys::PIPE_BUF);
            let n = match read(&mut chunk[..want]) {
                Ok(n) => n,
                Err(_) if moved > 0 => break,
                Err(e) => return Err(e),
            };
            // SAFETY: `chunk[..n]` is initialised and live for the call.
            let rc = unsafe { sys::write(self.write_fd(), chunk.as_ptr(), n) };
            assert_eq!(rc, n as isize, "an atomic pipe write below half capacity");
            moved += n;
        }
        if moved == 0 && max > 0 {
            return Err(NetError::WouldBlock);
        }
        Ok(moved)
    }

    /// Copies up to `max` bytes out of the pipe through `write` — the
    /// drain into a destination with no kernel buffer to splice into.
    /// Whatever `write` does not take stays in the spill for next time.
    pub(crate) fn copy_out(
        &self,
        max: usize,
        write: impl FnOnce(&[u8]) -> Result<usize, NetError>,
    ) -> Result<usize, NetError> {
        let mut spill = self.spill();
        if spill.is_empty() {
            let want = max.min(self.capacity);
            spill.resize(want, 0);
            // SAFETY: `spill` holds `want` writable bytes.
            let rc = unsafe { sys::read(self.read_fd(), spill.as_mut_ptr(), want) };
            spill.truncate(rc.max(0) as usize);
            if spill.is_empty() {
                return Err(NetError::WouldBlock);
            }
        }
        let n = write(&spill[..max.min(spill.len())])?;
        spill.drain(..n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_body_pipe_asks_for_a_mebibyte() {
        let pipe = BodyPipe::new().unwrap();
        // A refused resize keeps the default; either way it is a real pipe.
        assert!(pipe.capacity == BODY_PIPE_BYTES || pipe.capacity >= sys::PIPE_BUF);
        assert!(BodyPipe::with_default_size().unwrap().capacity < BODY_PIPE_BYTES);
    }

    /// Copying in stops at half capacity with nothing read left over, and
    /// copying out keeps what the destination refused.
    #[test]
    fn copies_in_and_out_lose_no_byte() {
        let pipe = BodyPipe::with_default_size().unwrap();
        let source: Vec<u8> = (0..200_000u32).map(|i| i as u8).collect();
        let mut at = 0;
        let moved = pipe
            .copy_in(source.len(), |buf| {
                let n = buf.len().min(source.len() - at);
                buf[..n].copy_from_slice(&source[at..at + n]);
                at += n;
                Ok(n)
            })
            .unwrap();
        assert_eq!(moved, at, "every byte read went into the pipe");
        assert!(moved <= pipe.capacity / 2);
        let mut out = Vec::new();
        assert_eq!(pipe.copy_out(10, |b| Ok(b.len().min(3))), Ok(3));
        out.extend_from_slice(&source[..3]);
        while out.len() < moved {
            pipe.copy_out(usize::MAX, |b| {
                out.extend_from_slice(b);
                Ok(b.len())
            })
            .unwrap();
        }
        assert_eq!(&out[..], &source[..moved]);
        assert_eq!(
            pipe.copy_out(16, |b| Ok(b.len())),
            Err(NetError::WouldBlock)
        );
    }
}
