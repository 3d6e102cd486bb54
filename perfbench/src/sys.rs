//! Process-level measurements: a wall-clocked child run together with
//! the child's peak resident set (Linux `wait4`), and this process's
//! own peak resident set (`VmHWM`).

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads a child's peak RSS through 64-bit Linux wait4");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    _sec: i64,
    _usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    _utime: Timeval,
    _stime: Timeval,
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one child process did.
pub struct ChildRun {
    /// Spawn to reap, so process start and teardown are included.
    pub wall_s: f64,
    /// Exit code, or `None` when a signal ended the child.
    pub exit_code: Option<i32>,
    pub stdout: String,
    pub peak_rss_mib: f64,
}

/// Run `cmd` to completion with stdin closed and stdout captured.
pub fn run_child(cmd: &mut Command) -> std::io::Result<ChildRun> {
    let t0 = Instant::now();
    let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, correctly laid out out-
        // parameters, and `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        wall_s,
        exit_code,
        stdout,
        peak_rss_mib: usage.maxrss_kib as f64 / 1024.0,
    })
}

/// Peak resident set of this process so far, in MiB.
pub fn self_peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
