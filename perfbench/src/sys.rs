//! The two Linux calls the standard library does not expose: `wait4`,
//! which returns a reaped child's peak resident memory, and `ppoll`, which
//! lets the single-threaded load generator sleep until a socket is ready
//! or the next request is due, with sub-millisecond precision.

use std::io;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two `timeval`s followed by fourteen `long`s,
/// of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// How a reaped child ended.
#[derive(Clone, Copy, Debug)]
pub struct Reaped {
    /// Exit status.
    pub status: ExitStatus,
    /// Peak resident set size, in kilobytes.
    pub max_rss_kb: u64,
}

/// Waits for `child` to end and reaps it, returning its status and peak
/// resident memory. Consumes the handle: the process is gone afterwards,
/// so nothing may signal or wait on its pid again.
pub fn reap(child: Child) -> io::Result<Reaped> {
    let pid = c_int::try_from(child.id())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals whose layouts match what wait4(2) writes on Linux; the
        // pid is a child of this process that nothing else waits on.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Reaped {
        status: ExitStatus::from_raw(status),
        max_rss_kb: u64::try_from(usage.ru_maxrss).unwrap_or(0),
    })
}

/// Sleeps until one of `fds` is readable (or, where its flag is set,
/// writable) or `timeout` passes. Signals and spurious wake-ups return
/// early; callers re-check their sockets either way.
pub fn wait_ready(fds: &[(RawFd, bool)], timeout: Duration) -> io::Result<()> {
    let mut polls: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, want_write)| PollFd {
            fd,
            events: if want_write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let tmo = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(i32::try_from(timeout.subsec_nanos()).unwrap_or(0)),
    };
    let nfds = c_ulong::try_from(polls.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
    // SAFETY: `polls` is a live buffer of exactly `nfds` pollfd records,
    // `tmo` outlives the call, and a null signal mask is allowed.
    let r = unsafe { ppoll(polls.as_mut_ptr(), nfds, &tmo, std::ptr::null()) };
    if r < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}
