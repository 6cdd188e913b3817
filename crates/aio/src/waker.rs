//! Cross-thread wakeups for a blocked [`Poller::wait`](crate::Poller::wait).

#[cfg(not(unix))]
use std::io;

#[cfg(unix)]
mod unix {
    use std::io::{self, Read, Write};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A self-pipe built from a nonblocking `UnixStream` pair.
    ///
    /// Register [`fd`](Self::fd) (the read end) with the poller under a
    /// reserved token; any thread may then call [`wake`](Self::wake) to
    /// make the event loop's wait return. Wakes coalesce on the `pending`
    /// flag, not on the pipe (a socket pair buffers many bytes): only the
    /// wake that raises the flag sends a byte, and [`drain`](Self::drain)
    /// lowers it once the pipe is empty.
    #[derive(Debug)]
    pub struct Waker {
        tx: UnixStream,
        rx: UnixStream,
        /// A byte is in flight (or about to be) and the loop has not yet
        /// drained it.
        pending: AtomicBool,
    }

    impl Waker {
        /// Builds the pair; both ends nonblocking.
        pub fn new() -> io::Result<Self> {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Self {
                tx,
                rx,
                pending: AtomicBool::new(false),
            })
        }

        /// The fd to register with [`Interest::READABLE`](crate::Interest).
        pub fn fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }

        /// Makes the next (or current) `wait` return. Callable from any
        /// thread; never blocks. Work published before the call is seen
        /// by the loop once it returns from [`drain`](Self::drain).
        pub fn wake(&self) {
            // Only the wake that raises the flag sends a byte. One that
            // finds it up adds nothing: the loop has yet to lower it, and
            // the swap in `drain` that does reads this swap's write.
            if !self.pending.swap(true, Ordering::AcqRel) {
                let _ = (&self.tx).write(&[1u8]);
            }
        }

        /// Drains pending wake bytes, then re-arms [`wake`](Self::wake).
        /// The event loop calls this whenever the waker token surfaces,
        /// before processing work queues.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
            // Lower the flag only once the pipe is empty: lowered first, a
            // wake landing between the two steps would send a byte this
            // drain swallows and leave the flag up with an empty pipe,
            // so every later wake would be skipped. A swap, not a store,
            // so a wake that found the flag up is visible to the loop.
            self.pending.swap(false, Ordering::AcqRel);
        }
    }
}

#[cfg(unix)]
pub use unix::Waker;

/// Non-Unix stub (the poller is unsupported there too).
#[cfg(not(unix))]
#[derive(Debug)]
pub struct Waker;

#[cfg(not(unix))]
impl Waker {
    pub fn new() -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "waker requires a Unix target",
        ))
    }
    pub fn fd(&self) -> i32 {
        unreachable!("stub Waker cannot be constructed")
    }
    pub fn wake(&self) {}
    pub fn drain(&self) {}
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::{Interest, Poller};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wake_interrupts_wait() {
        let p = Poller::new().unwrap();
        let w = Arc::new(Waker::new().unwrap());
        p.register(w.fd(), u64::MAX, Interest::READABLE).unwrap();

        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
        });

        let mut events = Vec::new();
        let n = p.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        w.drain();

        // Drained: no residual readiness.
        events.clear();
        assert_eq!(p.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        t.join().unwrap();

        // Coalescing: many wakes, one drain.
        for _ in 0..1000 {
            w.wake();
        }
        events.clear();
        assert!(p.wait(&mut events, Some(Duration::from_secs(5))).unwrap() >= 1);
        w.drain();
        events.clear();
        assert_eq!(p.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
        p.deregister(w.fd()).unwrap();
    }

    /// Producers post a request, wake, and wait for the loop's reply; the
    /// loop answers every posted request after each wait. A wait that
    /// times out while a request is posted is a lost wake.
    #[test]
    fn concurrent_wakes_are_never_lost() {
        const PRODUCERS: usize = 3;
        const ROUNDS: u64 = 20_000;
        let p = Poller::new().unwrap();
        let w = Arc::new(Waker::new().unwrap());
        p.register(w.fd(), u64::MAX, Interest::READABLE).unwrap();
        let posted: Arc<Vec<AtomicU64>> =
            Arc::new((0..PRODUCERS).map(|_| AtomicU64::new(0)).collect());
        let answered: Arc<Vec<AtomicU64>> =
            Arc::new((0..PRODUCERS).map(|_| AtomicU64::new(0)).collect());
        let stalled = Arc::new(AtomicBool::new(false));

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|i| {
                let (w, posted, answered, stalled) = (
                    Arc::clone(&w),
                    Arc::clone(&posted),
                    Arc::clone(&answered),
                    Arc::clone(&stalled),
                );
                std::thread::spawn(move || {
                    for round in 1..=ROUNDS {
                        posted[i].store(round, Ordering::Release);
                        w.wake();
                        while answered[i].load(Ordering::Acquire) != round {
                            if stalled.load(Ordering::Acquire) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        let mut events = Vec::new();
        let finished =
            |answered: &[AtomicU64]| answered.iter().all(|a| a.load(Ordering::Acquire) == ROUNDS);
        while !finished(&answered) {
            events.clear();
            let n = p
                .wait(&mut events, Some(Duration::from_millis(500)))
                .unwrap();
            let waiting = (0..PRODUCERS)
                .filter(|&i| {
                    posted[i].load(Ordering::Acquire) != answered[i].load(Ordering::Acquire)
                })
                .count();
            // A wake racing the timeout shows up on a second, zero-length
            // wait; a lost one does not.
            if n == 0 && waiting > 0 && p.wait(&mut events, Some(Duration::ZERO)).unwrap() == 0 {
                stalled.store(true, Ordering::Release);
                break;
            }
            if events.iter().any(|e| e.token == u64::MAX) {
                w.drain();
            }
            for i in 0..PRODUCERS {
                let round = posted[i].load(Ordering::Acquire);
                answered[i].store(round, Ordering::Release);
            }
        }
        for t in producers {
            t.join().unwrap();
        }
        assert!(
            !stalled.load(Ordering::Acquire),
            "a posted request waited 500 ms with no wake: a wake was lost"
        );
        p.deregister(w.fd()).unwrap();
    }
}
