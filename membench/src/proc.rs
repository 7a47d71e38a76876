//! Child processes: reaping with resource usage, and peak memory.

use std::io;
use std::process::Child;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters of which `ru_maxrss` (KiB) comes first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
pub struct Exit {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set of the child, in MiB.
    pub peak_rss_mb: f64,
}

/// Wait for `child` to end and collect its peak resident memory.
///
/// The child is reaped here, so its `Child` handle is consumed and must
/// not be waited on again.
///
/// # Errors
///
/// `wait4` failing for any reason other than an interrupted call.
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // exact types wait4 fills (`int` and the 64-bit Linux
        // `struct rusage` layout above), and `pid` names our own child,
        // which nothing else reaps: the `Child` handle is consumed.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
    })
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
