//! Minimal readiness polling over raw file descriptors.
//!
//! The workspace vendors every dependency, so there is no `mio` or
//! `libc` crate to lean on. On Unix we declare the one libc symbol we
//! need — `poll(2)` — directly; the kernel interface is stable ABI.
//! Elsewhere the event loop falls back to optimistic readiness: report
//! every socket ready and let nonblocking reads/writes return
//! `WouldBlock`, throttled by the poll timeout.

/// Readable readiness (POLLIN).
pub(crate) const POLLIN: i16 = 0x1;
/// Writable readiness (POLLOUT).
pub(crate) const POLLOUT: i16 = 0x4;

/// One entry of a poll set, matching `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    /// File descriptor to watch.
    pub(crate) fd: i32,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub(crate) events: i16,
    /// Kernel-reported events (includes POLLERR/POLLHUP/POLLNVAL,
    /// which are always watched implicitly).
    pub(crate) revents: i16,
}

impl PollFd {
    /// A fresh entry watching `events` on `fd`.
    pub(crate) fn new(fd: i32, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(unix)]
mod imp {
    use super::PollFd;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Blocks until an entry is ready or `timeout_ms` elapses.
    /// Returns the number of ready entries (0 on timeout).
    pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        // SAFETY: `PollFd` is #[repr(C)] and layout-identical to
        // `struct pollfd`; the slice pointer/length pair is valid for
        // the duration of the call.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

#[cfg(not(unix))]
mod imp {
    use super::PollFd;

    /// Fallback: sleep for the timeout, then report everything ready.
    /// Nonblocking I/O turns spurious readiness into `WouldBlock`.
    pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        if timeout_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
        }
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

pub(crate) use imp::poll_fds;

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_reports_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();

        let mut fds = [PollFd::new(server_side.as_raw_fd(), POLLIN)];
        // Nothing written yet: on Unix this must time out with no
        // readiness; the portable fallback may report optimistically.
        if cfg!(unix) {
            let n = poll_fds(&mut fds, 50).unwrap();
            assert_eq!(n, 0, "unexpected readiness before any write");
            assert_eq!(fds[0].revents, 0);
        }

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert!(n >= 1);
        assert_ne!(fds[0].revents, 0);
    }
}
