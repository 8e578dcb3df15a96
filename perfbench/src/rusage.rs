//! Peak resident set sizes, from Linux `getrusage` and `wait4`.

use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

/// Linux's 64-bit `struct rusage`: `ru_utime` and `ru_stime` (two
/// timevals), then 14 longs starting with `ru_maxrss`, in KiB.
#[repr(C)]
struct Rusage {
    fields: [i64; 18],
}

const MAXRSS: usize = 4;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

fn mb(usage: &Rusage) -> f64 {
    usage.fields[MAXRSS] as f64 / 1024.0
}

/// Peak resident set of this process, MB; 0 if the kernel will not say.
pub fn self_peak_mb() -> f64 {
    let mut usage = Rusage { fields: [0; 18] };
    // SAFETY: `usage` is a writable, properly aligned `struct rusage`,
    // which getrusage fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        mb(&usage)
    } else {
        0.0
    }
}

/// Wait for `child` to exit: its exit status and its own peak resident
/// set, MB. The child is reaped here, so it must not be waited for again.
pub fn wait_peak_mb(child: &Child) -> std::io::Result<(ExitStatus, f64)> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in an i32");
    let mut status = 0;
    let mut usage = Rusage { fields: [0; 18] };
    loop {
        // SAFETY: `status` and `usage` are writable and properly aligned;
        // wait4 fills them and does not retain them. `pid` is our own
        // child, not yet reaped.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((ExitStatus::from_raw(status), mb(&usage)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    #[test]
    fn self_peak_is_positive() {
        assert!(self_peak_mb() > 0.0);
    }

    #[test]
    fn a_child_reports_its_exit_code_and_peak() {
        let child = Command::new("sh").args(["-c", "exit 3"]).spawn().unwrap();
        let (status, peak) = wait_peak_mb(&child).unwrap();
        assert_eq!(status.code(), Some(3));
        assert!(peak > 0.0);
    }
}
