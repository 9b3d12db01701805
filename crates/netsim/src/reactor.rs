//! Readiness-notification plumbing for the shared-reactor transports:
//! a hand-rolled level-triggered `epoll(7)` wrapper, an `eventfd(2)`
//! waker, a non-blocking TCP connect helper, and socket-buffer sizing.
//!
//! The vendored dependency set cannot grow (no `mio`, no `libc`), so
//! the handful of C entry points needed — `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, `socket`, `connect`, `close`, `setsockopt`,
//! `getsockopt` — are declared directly against the platform libc the
//! standard library already links. Linux-only constants are fine:
//! every supported environment (dev container, CI) is Linux, and the
//! transports built on this module are loopback test backends, not
//! portable production servers.
//!
//! Why epoll and not `poll(2)`: a poller owns many mostly idle sockets
//! (a client keeps a warm connection to every server it consulted), and
//! `poll` makes every wakeup rebuild and scan the whole set. An epoll
//! set is registered once per socket and changed only when a socket's
//! interest changes, so a wakeup costs O(ready sockets).

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};

/// Readable (epoll's `EPOLLIN`).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable (epoll's `EPOLLOUT`).
pub(crate) const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;

/// The token pollers register their own [`Waker`] under; sockets use
/// the tokens below it.
pub(crate) const WAKER_TOKEN: u64 = u64::MAX;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x80000;

/// Mirrors `struct epoll_event` (ready mask, caller's token). The
/// kernel's x86_64 ABI packs it (12 bytes); every other architecture
/// uses natural alignment (16 bytes).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    events: u32,
    token: u64,
}

impl EpollEvent {
    /// An empty slot for [`Epoll::wait`] to fill.
    pub const EMPTY: Self = Self {
        events: 0,
        token: 0,
    };

    /// The token the socket was registered under.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Readable, or in a state (`HUP`/`ERR`) a read will diagnose.
    pub fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0
    }

    /// Writable, or in a state (`HUP`/`ERR`) a write will diagnose.
    pub fn writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
}

/// A level-triggered epoll set. Each registered descriptor carries a
/// caller-chosen `u64` token (the reactors use slab indices), which
/// [`Epoll::wait`] hands back with its readiness.
///
/// Register a descriptor only while it has a non-empty interest mask:
/// epoll always reports `EPOLLHUP`/`EPOLLERR`, so a hung-up socket
/// left in the set with no interest would wake a level-triggered loop
/// forever. Delete it instead, and add it back when interest returns.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub fn new() -> io::Result<Self> {
        // SAFETY: a syscall taking no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh, open descriptor nothing else owns.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest,
            token,
        };
        // SAFETY: the epoll fd is open for `self`'s lifetime and `event`
        // is a live, correctly laid out `epoll_event` (ignored by DEL).
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Adds `fd` with the given interest (`EPOLLIN`/`EPOLLOUT` bits).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest of a registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the set.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events` from the front; returns
    /// how many slots were filled (0 on timeout). Retries `EINTR`.
    /// `timeout_ms < 0` blocks indefinitely.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        loop {
            // SAFETY: the kernel writes at most `max` events into the
            // live slice behind the pointer.
            let rc =
                unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;
const SO_RCVBUF: i32 = 8;

/// Asks the kernel for `bytes` of send and of receive buffer on
/// `socket`, and returns the receive buffer it granted as `getsockopt`
/// reports it: Linux doubles the request to cover its bookkeeping and
/// caps it at `net.core.rmem_max`, so the grant shows what a burst can
/// really queue on this host.
pub(crate) fn size_socket_buffers(socket: &UdpSocket, bytes: usize) -> io::Result<usize> {
    let fd = socket.as_raw_fd();
    let value = i32::try_from(bytes).unwrap_or(i32::MAX);
    let int_len = std::mem::size_of::<i32>() as u32;
    for name in [SO_RCVBUF, SO_SNDBUF] {
        // SAFETY: `fd` stays open for the call (borrowed from `socket`),
        // and `value` is a live `i32` whose size is passed as the length.
        let rc = unsafe { setsockopt(fd, SOL_SOCKET, name, &value, int_len) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    let mut granted: i32 = 0;
    let mut len = int_len;
    // SAFETY: `fd` stays open for the call; `granted` and `len` are live
    // locals, and `len` tells the kernel `granted` holds one `i32`.
    let rc = unsafe { getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &mut granted, &mut len) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    usize::try_from(granted).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("negative receive buffer {granted}"),
        )
    })
}

/// Wakes a thread blocked in [`Epoll::wait`] from any other thread: the
/// poller registers [`Waker::fd`] for `EPOLLIN`, other threads call
/// [`Waker::wake`]. Built on a non-blocking `eventfd(2)` counter. An
/// atomic flag coalesces bursts so a storm of wakes costs one `write`,
/// not one per call.
pub(crate) struct Waker {
    event: File,
    armed: AtomicBool,
}

impl Waker {
    pub fn new() -> io::Result<Self> {
        // SAFETY: a syscall taking no pointers.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            // SAFETY: `fd` is a fresh, open descriptor nothing else
            // owns.
            event: unsafe { File::from_raw_fd(fd) },
            armed: AtomicBool::new(false),
        })
    }

    pub fn fd(&self) -> RawFd {
        self.event.as_raw_fd()
    }

    pub fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel)
            && (&self.event).write(&1u64.to_ne_bytes()).is_err()
        {
            // The write failed, so the counter was not bumped; staying
            // armed would suppress every later wake. Disarm so the next
            // wake retries the write.
            self.armed.store(false, Ordering::Release);
        }
    }

    /// Resets the eventfd counter; the poller calls this once per
    /// wakeup, before it rescans its work queues. Order matters:
    /// resetting *before* disarming means a `wake` racing this either
    /// lands while still armed (write skipped — safe, because the
    /// poller's rescan follows the disarm and will observe that
    /// wake's work) or lands after the disarm (counter left non-zero —
    /// one spurious wakeup). Disarming first would let the read eat a
    /// racing wake's write while `armed` stayed true, suppressing every
    /// subsequent wake.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.event).read(&mut buf);
        self.armed.store(false, Ordering::Release);
    }
}

/// Mirrors `struct sockaddr_in`; `port` and `addr` are stored
/// big-endian as the kernel expects.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port: u16,
    addr: u32,
    zero: [u8; 8],
}

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0x800;
const SOCK_CLOEXEC: i32 = 0x80000;
const EINPROGRESS: i32 = 115;

/// Starts a TCP connect without blocking: the returned stream is
/// non-blocking and usually still mid-handshake. Register it for
/// `EPOLLOUT`; once writable, `take_error()` distinguishes an
/// established connection (`None`) from a refused one. `std` offers no
/// non-blocking connect, hence the raw `socket(2)`/`connect(2)` pair.
/// IPv4 only — these transports bind loopback v4 listeners.
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "non-blocking connect supports IPv4 only",
        ));
    };
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let sa = SockAddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    let rc = unsafe { connect(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) };
    if rc != 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            unsafe { close(fd) };
            return Err(err);
        }
    }
    Ok(unsafe { TcpStream::from_raw_fd(fd) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// Waits once on a fresh set holding just `fd`.
    fn wait_one(fd: RawFd, interest: u32, timeout_ms: i32) -> Option<EpollEvent> {
        let epoll = Epoll::new().unwrap();
        epoll.add(fd, 7, interest).unwrap();
        let mut events = [EpollEvent::EMPTY; 4];
        let n = epoll.wait(&mut events, timeout_ms).unwrap();
        assert!(n <= 1);
        (n == 1).then(|| events[0])
    }

    #[test]
    fn epoll_event_matches_the_kernel_layout() {
        let expected = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<EpollEvent>(), expected);
    }

    #[test]
    fn poll_times_out_when_nothing_is_ready() {
        let waker = Waker::new().unwrap();
        let t0 = Instant::now();
        assert!(wait_one(waker.fd(), EPOLLIN, 50).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn waker_unblocks_poll_from_another_thread() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let event = wait_one(waker.fd(), EPOLLIN, 2_000).expect("woken");
        assert_eq!(event.token(), 7);
        assert!(event.readable());
        waker.drain();
        handle.join().unwrap();
        // Coalescing: many wakes after a drain ring once, and one drain
        // silences them all.
        waker.wake();
        waker.wake();
        waker.wake();
        assert!(wait_one(waker.fd(), EPOLLIN, 1_000).is_some());
        waker.drain();
        assert!(wait_one(waker.fd(), EPOLLIN, 20).is_none());
    }

    #[test]
    fn modified_and_deleted_interest_stops_reporting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let epoll = Epoll::new().unwrap();
        let mut events = [EpollEvent::EMPTY; 4];
        epoll.add(stream.as_raw_fd(), 3, EPOLLOUT).unwrap();
        assert_eq!(epoll.wait(&mut events, 1_000).unwrap(), 1);
        assert!(events[0].writable());
        // Nothing to read yet: narrowed to EPOLLIN, the set goes quiet.
        epoll.modify(stream.as_raw_fd(), 3, EPOLLIN).unwrap();
        assert_eq!(epoll.wait(&mut events, 20).unwrap(), 0);
        // A hung-up peer is reported while registered, never after a
        // delete: the reason empty interest means "not in the set".
        let (served, _) = listener.accept().unwrap();
        drop(served);
        assert_eq!(epoll.wait(&mut events, 1_000).unwrap(), 1);
        assert!(events[0].readable());
        epoll.delete(stream.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 20).unwrap(), 0);
    }

    #[test]
    fn nonblocking_connect_completes_against_a_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr).unwrap();
        let event = wait_one(stream.as_raw_fd(), EPOLLOUT, 2_000).expect("connected");
        assert!(event.writable());
        assert!(stream.take_error().unwrap().is_none());
        let (mut served, _) = listener.accept().unwrap();
        (&stream).write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        served.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn nonblocking_connect_to_a_dead_port_reports_through_take_error() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        match connect_nonblocking(&addr) {
            // Loopback may refuse synchronously or via SO_ERROR.
            Err(_) => {}
            Ok(stream) => {
                wait_one(stream.as_raw_fd(), EPOLLOUT, 2_000).expect("connect resolved");
                assert!(
                    stream.take_error().unwrap().is_some(),
                    "connect to a closed port must surface an error"
                );
            }
        }
    }
}
