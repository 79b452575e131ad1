//! A std-only readiness poller: epoll on Linux via a thin syscall shim.
//! Linux is the one supported target; other platforms fail to compile
//! with an error that names epoll.
//!
//! The event loop in [`crate::http`] drives every connection through this
//! interface: register a socket with a `u64` token and an interest set,
//! wait for readiness events, react. The poller is level-triggered —
//! an event repeats while the condition holds, so the loop never needs to
//! drain a socket "to completion" to stay correct.
//!
//! The shim declares the handful of libc symbols it needs (`epoll_*`,
//! `pipe2`, `read`, `write`, `close`) as `extern "C"` functions instead of
//! pulling in a bindings crate: std already links the platform libc, so
//! this keeps the crate std-only in the dependency sense while still
//! speaking the kernel's readiness API directly.
//!
//! [`Wakeup`] is the cross-thread nudge: a nonblocking self-pipe whose
//! read end is registered in the poller. Worker threads finishing a job
//! call [`Wakeup::notify`]; the event loop wakes, drains the pipe, and
//! collects completions. Byte contents are meaningless — only readiness
//! carries information.

#[cfg(not(target_os = "linux"))]
compile_error!("service::poll supports Linux only: the event loop is built on epoll");

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (or a peer hangup, which also reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition on the descriptor.
    pub error: bool,
}

mod sys {
    // x86_64 is the one Linux ABI where epoll_event is packed.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
}

mod pipe_sys {
    pub const O_NONBLOCK: i32 = 0o4000;
    pub const O_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

/// Level-triggered readiness poller over a set of registered descriptors.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Create the epoll instance.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: if read { sys::EPOLLIN } else { 0 } | if write { sys::EPOLLOUT } else { 0 },
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token` with the given interest set.
    pub fn register(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, read, write)
    }

    /// Change the interest set of an already-registered descriptor.
    pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, read, write)
    }

    /// Remove `fd` from the interest set (closing the fd does this too;
    /// deregistering explicitly keeps the bookkeeping obvious).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait up to `timeout` (None = forever) and append readiness events to
    /// `out`. Interrupted waits (`EINTR`) return an empty batch.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        const MAX_EVENTS: usize = 256;
        let mut raw: Vec<sys::EpollEvent> = Vec::with_capacity(MAX_EVENTS);
        let timeout_ms = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        let n =
            unsafe { sys::epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        unsafe { raw.set_len(n as usize) };
        for ev in &raw {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { pipe_sys::close(self.epfd) };
    }
}

/// A nonblocking self-pipe used to interrupt [`Poller::wait`] from another
/// thread (job completions). Register [`Wakeup::read_fd`] in the poller;
/// call [`Wakeup::notify`] from anywhere; [`Wakeup::drain`] in the loop.
pub struct Wakeup {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Wakeup {
    /// Create the pipe, both ends nonblocking and close-on-exec.
    pub fn new() -> io::Result<Wakeup> {
        let mut fds = [0i32; 2];
        let rc = unsafe {
            pipe_sys::pipe2(fds.as_mut_ptr(), pipe_sys::O_NONBLOCK | pipe_sys::O_CLOEXEC)
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Wakeup {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The readable end, for poller registration.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Nudge the event loop. A full pipe means a wakeup is already
    /// pending, which is all a nudge needs — the `EAGAIN` is ignored.
    pub fn notify(&self) {
        let byte = 1u8;
        unsafe { pipe_sys::write(self.write_fd, &byte, 1) };
    }

    /// Discard every pending wakeup byte.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { pipe_sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

// The write end is shared with worker threads through `Arc<Wakeup>`; the
// raw fds are owned exclusively by this struct.
unsafe impl Send for Wakeup {}
unsafe impl Sync for Wakeup {}

impl Drop for Wakeup {
    fn drop(&mut self) {
        unsafe {
            pipe_sys::close(self.read_fd);
            pipe_sys::close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wakeup_pipe_reports_readable() {
        let poller = Poller::new().unwrap();
        let wake = Wakeup::new().unwrap();
        poller.register(wake.read_fd(), 7, true, false).unwrap();

        // Nothing pending: a zero-timeout wait returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7));

        wake.notify();
        wake.notify(); // coalesces; still just readable
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Drained: readable goes away (level-triggered).
        wake.drain();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7));
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        let fd = server.as_raw_fd();
        poller.register(fd, 42, true, false).unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        // Ask for write interest too: a fresh socket is instantly writable.
        poller.modify(fd, 42, true, true).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.writable));

        poller.deregister(fd).unwrap();
        let mut buf = [0u8; 8];
        let mut s = &server;
        assert_eq!(s.read(&mut buf).unwrap(), 4);
    }
}
