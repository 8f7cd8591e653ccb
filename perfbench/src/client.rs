//! Drives `faultlib` processes from outside: spawning with the pinned
//! environment, line-by-line request/response on a serve session, and
//! reaping with the child's resource usage (peak resident memory).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Worker threads the program is pinned to (`DYNMOS_THREADS`).
pub const THREADS: usize = 2;

/// Knobs that would change what the program does; unset for every run.
pub const UNSET_ENV: [&str; 3] = [
    "DYNMOS_FAULT_PLAN",
    "DYNMOS_BUDGET_MS",
    "DYNMOS_TESTABILITY",
];

/// A `faultlib` command with the benchmark's environment.
fn command(bin: &Path, args: &[String]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args).env("DYNMOS_THREADS", THREADS.to_string());
    for var in UNSET_ENV {
        cmd.env_remove(var);
    }
    cmd
}

/// How a reaped process ended.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exit {
    /// Exit code 0.
    pub success: bool,
    /// Peak resident set size, in MiB.
    pub peak_rss_mb: f64,
}

#[cfg(target_os = "linux")]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    /// `cpu_set_t`: a 1024-bit mask.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// Restricts the calling thread, and every process it spawns from now
/// on, to the last CPU it may run on; returns that CPU.
///
/// On a shared host the vCPUs change speed independently, so a
/// single-threaded job's latency depends on which one the scheduler
/// picks, and the host-speed reference (see [`crate::host`]) only
/// describes the CPU it ran on. With everything on one CPU the reference
/// and the job share it.
///
/// # Errors
///
/// Propagates the OS error of the affinity calls.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let size = std::mem::size_of::<sys::CpuSet>();
    let mut mask: sys::CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t` of `size` bytes;
    // pid 0 is the calling thread.
    if unsafe { sys::sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: sys::CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    if unsafe { sys::sched_setaffinity(0, size, &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> io::Result<usize> {
    Err(io::Error::other("CPU pinning needs Linux"))
}

/// Waits for `child` and returns its exit status and peak RSS. The
/// child is reaped here; do not `wait` on it again.
///
/// # Errors
///
/// Propagates the OS error of `wait4`.
#[cfg(target_os = "linux")]
fn reap(child: &Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: i32 = 0;
    let mut usage = sys::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable, and laid out as
    // the kernel expects (`int` and `struct rusage` on 64-bit Linux);
    // `pid` names our own unreaped child, so no other waiter races us.
    let rc = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
    if rc != pid {
        return Err(io::Error::last_os_error());
    }
    // WIFEXITED && WEXITSTATUS == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Exit {
        success,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

#[cfg(not(target_os = "linux"))]
fn reap(_child: &Child) -> io::Result<Exit> {
    Err(io::Error::other("peak RSS needs Linux wait4"))
}

/// A running `faultlib serve` with line-oriented I/O.
pub(crate) struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    line: String,
    reaped: bool,
}

impl Serve {
    /// Spawns `faultlib serve` with `args` (stderr discarded).
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub(crate) fn spawn(bin: &Path, args: &[String]) -> io::Result<Serve> {
        let mut child = command(bin, args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no stdout"))?;
        Ok(Serve {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            line: String::new(),
            reaped: false,
        })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates pipe errors.
    fn send(&mut self, line: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("stdin closed"))?;
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// Reads one response line (without its newline).
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the program closed its output.
    pub(crate) fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.stdout.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "serve closed stdout",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// Sends `line` and returns the one-line answer.
    ///
    /// # Errors
    ///
    /// Propagates pipe errors.
    pub(crate) fn ask(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv().map(str::to_owned)
    }

    /// Closes stdin (ending the session) and reaps the process.
    ///
    /// # Errors
    ///
    /// Propagates pipe and wait errors.
    pub(crate) fn finish(mut self) -> io::Result<Exit> {
        drop(self.stdin.take());
        let mut rest = Vec::new();
        self.stdout.read_to_end(&mut rest)?;
        let exit = reap(&self.child);
        self.reaped = true;
        exit
    }
}

impl Drop for Serve {
    /// A session abandoned on an error path is killed and waited for, so
    /// no process outlives the run.
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Seconds from spawning `faultlib serve` with `args` until it answers a
/// `stats` request — the service's set-up time.
///
/// # Errors
///
/// Propagates process errors, or a refused `stats`.
pub(crate) fn time_to_first_answer(bin: &Path, args: &[String]) -> io::Result<(f64, Exit)> {
    settle();
    let t = Instant::now();
    let mut serve = Serve::spawn(bin, args)?;
    let answer = serve.ask("{\"op\":\"stats\"}")?;
    let secs = t.elapsed().as_secs_f64();
    if !answer.starts_with("{\"ok\":true") {
        return Err(io::Error::other(format!("stats refused: {answer}")));
    }
    Ok((secs, serve.finish()?))
}

/// A short pause before a set-up sample, so every sample starts from an
/// idle machine: back-to-back spawns alternate between a warm and a cold
/// scheduler state, which splits the samples into two clusters.
pub(crate) fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(5));
}

/// Runs classic `faultlib` with `args`, `stdin` as input; returns the
/// wall time, stdout and exit.
///
/// # Errors
///
/// Propagates process errors.
pub(crate) fn run_classic(
    bin: &Path,
    args: &[String],
    stdin: &str,
) -> io::Result<(f64, String, Exit)> {
    let t = Instant::now();
    let mut child = command(bin, args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let (input, output) = (child.stdin.take(), child.stdout.take());
    // Feed and drain, then reap whatever happened, so an I/O error leaves
    // no process behind.
    let out = (|| -> io::Result<String> {
        let mut input = input.ok_or_else(|| io::Error::other("no stdin"))?;
        input.write_all(stdin.as_bytes())?;
        drop(input);
        let mut out = String::new();
        output
            .ok_or_else(|| io::Error::other("no stdout"))?
            .read_to_string(&mut out)?;
        Ok(out)
    })();
    let exit = reap(&child)?;
    Ok((t.elapsed().as_secs_f64(), out?, exit))
}

/// Builds the release `faultlib` from the checkout in the working
/// directory and returns its path (under `CARGO_TARGET_DIR`, default
/// `target`).
///
/// # Errors
///
/// Fails when cargo fails.
pub fn build_faultlib() -> io::Result<PathBuf> {
    // dynlint: allow(env-through-contract) -- the benchmark locates the cargo that runs it; not a program knob
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "faultlib"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other("cargo build of faultlib failed"));
    }
    // dynlint: allow(env-through-contract) -- where cargo put the binary it just built; not a program knob
    let target = std::env::var_os("CARGO_TARGET_DIR");
    let target = target.map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("faultlib"))
}
