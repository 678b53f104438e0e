//! What svmbench asks of the host: pin a process to one CPU, read a
//! process's own resource use, describe the machine for the manifest.

use crate::json::Json;
use std::process::Command;

/// The kernel's CPU mask for `sched_{get,set}affinity`: 1024 CPUs, the
/// size glibc's `cpu_set_t` has.
type CpuMask = [u64; 16];

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod ffi {
    use super::CpuMask;

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which only `ru_maxrss` is read here.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss_kib: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_SELF: i32 = 0;

    // std links libc already; declaring the three calls avoids a crate the
    // offline build does not have.
    extern "C" {
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// CPUs this process may run on, lowest first. Empty when the host cannot
/// say (then nothing gets pinned).
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { ffi::sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
        if rc == 0 {
            return (0..1024)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restrict the calling thread — and every thread it spawns later — to
/// `cpu`. Returns whether the host accepted.
pub fn pin_to(cpu: usize) -> bool {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    if cpu < 1024 {
        let mut mask: CpuMask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
        // names the calling thread; the call only reads the buffer.
        return unsafe { ffi::sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) } == 0;
    }
    let _ = cpu;
    false
}

/// Peak resident memory and CPU seconds of this process so far.
#[derive(Copy, Clone, Debug, Default)]
pub struct Usage {
    pub rss_mib: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

pub fn usage() -> Usage {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ru = ffi::Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` of the layout
        // 64-bit Linux defines; the call only writes into it.
        if unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut ru) } == 0 {
            let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
            return Usage {
                rss_mib: ru.maxrss_kib as f64 / 1024.0,
                user_s: secs(ru.utime),
                sys_s: secs(ru.stime),
            };
        }
    }
    Usage::default()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Everything needed to tell later which code, on which machine, under
/// which settings produced a result file.
pub fn manifest(seed: u64, reps: &str, pinned_cpu: Option<usize>) -> Json {
    let unknown = || "unknown".to_string();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    Json::obj([
        (
            "git_rev",
            // A checkout that is not a repository has no revision; say so
            // instead of failing the run.
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("pinned", Json::Bool(pinned_cpu.is_some())),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("reps", Json::str(reps)),
        (
            "features",
            Json::str(if cfg!(feature = "trace") { "trace" } else { "" }),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "dev"
            } else {
                "release"
            }),
        ),
    ])
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_allowed_set_to_one_cpu() {
        // On its own thread: affinity is per thread, and the test harness's
        // other threads must keep theirs.
        std::thread::spawn(|| {
            let before = allowed_cpus();
            assert!(!before.is_empty());
            let target = *before.last().unwrap();
            assert!(pin_to(target));
            assert_eq!(allowed_cpus(), vec![target]);
            assert!(!pin_to(4096));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn usage_reports_this_process() {
        let u = usage();
        assert!(u.rss_mib > 0.5, "a test binary holds more than 0.5 MiB");
        assert!(u.user_s + u.sys_s >= 0.0);
    }
}
