//! The readiness queue: `epoll(7)` on Linux; elsewhere a stub whose
//! constructor fails.

use std::io;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub type RawFd = i32;

/// Which readiness classes a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when a read would not block.
    pub readable: bool,
    /// Report when a write would not block.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READABLE: Self = Self {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITABLE: Self = Self {
        readable: false,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The caller-chosen registration token.
    pub token: u64,
    /// A read would not block (includes EOF — the read returns 0).
    pub readable: bool,
    /// A write would not block.
    pub writable: bool,
    /// The peer hung up or the source errored; the source should be
    /// drained (reads still surface buffered bytes) and closed.
    pub closed: bool,
}

/// A level-triggered readiness queue over raw file descriptors.
///
/// Registrations are keyed by fd; each carries a caller token returned in
/// [`Event::token`]. The poller never owns the fds — the caller keeps the
/// sockets alive and must deregister before closing them.
pub struct Poller {
    inner: imp::Poller,
}

impl Poller {
    /// Creates the queue. On targets other than Linux this returns
    /// `ErrorKind::Unsupported`.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: imp::Poller::new()?,
        })
    }

    /// Starts watching `fd` with `interest`; `token` comes back verbatim
    /// in events for this fd.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Changes an existing registration's interest (and token).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stops watching `fd`. Must be called before the fd is closed.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one source is ready or `timeout` lapses
    /// (`None` = wait forever), appending reports to `events`. Returns the
    /// number appended (0 = timeout). Spurious wakeups are allowed.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.inner.wait(events, timeout)
    }
}

/// Clamps an optional timeout to the millisecond `int` the syscalls take
/// (`-1` = infinite), rounding up so a 100µs timeout doesn't busy-spin.
#[cfg(target_os = "linux")]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
            ms.min(i32::MAX as u128) as i32
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Kernel ABI for `struct epoll_event`: packed on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    pub struct Poller {
        epfd: RawFd,
    }

    // SAFETY: epoll fds are thread-safe kernel objects; concurrent
    // epoll_ctl/epoll_wait on the same epfd are defined behavior.
    unsafe impl Send for Poller {}
    unsafe impl Sync for Poller {}

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: no pointers involved; the return value is checked.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`; pre-2.6.9 kernels required a non-null
            // event pointer for DEL, which this satisfies anyway.
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                // SAFETY: `buf` is a valid writable array of exactly the
                // length passed; the kernel fills at most that many.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        buf.as_mut_ptr(),
                        buf.len() as c_int,
                        timeout_ms(timeout),
                    )
                };
                if rc < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                break rc as usize;
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: we own the epfd and close it exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;
    type RawFd = i32;

    /// Stub for every target but Linux: construction fails; serving is
    /// Linux-only.
    pub struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "readiness polling requires Linux",
            ))
        }
        pub fn register(&self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
            unreachable!("stub Poller cannot be constructed")
        }
        pub fn modify(&self, _: RawFd, _: u64, _: Interest) -> io::Result<()> {
            unreachable!("stub Poller cannot be constructed")
        }
        pub fn deregister(&self, _: RawFd) -> io::Result<()> {
            unreachable!("stub Poller cannot be constructed")
        }
        pub fn wait(&self, _: &mut Vec<Event>, _: Option<Duration>) -> io::Result<usize> {
            unreachable!("stub Poller cannot be constructed")
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn timeout_expires_without_events() {
        let p = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        let n = p
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn read_readiness_is_level_triggered() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 7, Interest::READABLE).unwrap();

        let mut events = Vec::new();
        assert_eq!(p.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Level-triggered: still ready until drained.
        events.clear();
        assert!(p.wait(&mut events, Some(Duration::ZERO)).unwrap() >= 1);
        let mut buf = [0u8; 8];
        let mut b2 = &b;
        assert_eq!(b2.read(&mut buf).unwrap(), 1);
        events.clear();
        assert_eq!(p.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);

        p.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn peer_close_reports_closed() {
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 3, Interest::READABLE).unwrap();
        drop(a);
        let mut events = Vec::new();
        assert!(p.wait(&mut events, Some(Duration::from_secs(5))).unwrap() >= 1);
        let ev = events.iter().find(|e| e.token == 3).unwrap();
        assert!(ev.closed || ev.readable, "close must surface as an event");
        p.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn modify_switches_interest() {
        let (_a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        assert_eq!(p.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        // A fresh socket's send buffer is writable immediately.
        p.modify(b.as_raw_fd(), 2, Interest::WRITABLE).unwrap();
        assert!(p.wait(&mut events, Some(Duration::from_secs(5))).unwrap() >= 1);
        assert!(events.iter().any(|e| e.token == 2 && e.writable));
        p.deregister(b.as_raw_fd()).unwrap();
    }
}
