//! Host stamp, a fixed calibration kernel, and CPU and memory readings.

use serde_json::Value;

use crate::stats::{fnv64, median};

/// CPU model, core count and SIMD features of this host, plus the timing
/// of a fixed calibration kernel.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Detected x86 SIMD features among avx2 / fma / avx512f.
    pub features: Vec<&'static str>,
    /// Median seconds of the calibration kernel.
    pub calibration_s: f64,
}

impl HostStamp {
    /// Reads the host and times the calibration kernel.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostStamp {
            cpu_model,
            nproc: nproc(),
            features: simd_features(),
            calibration_s: calibration_seconds(),
        }
    }

    /// Identity of the host: model, cores and features (not the timing,
    /// which varies run to run).
    pub fn fingerprint(&self) -> String {
        fnv64(
            format!(
                "{}|{}|{}",
                self.cpu_model,
                self.nproc,
                self.features.join(",")
            )
            .as_bytes(),
        )
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> Value {
        let mut v = Value::object();
        v.insert("cpu_model", self.cpu_model.as_str());
        v.insert("nproc", self.nproc);
        v.insert(
            "features",
            self.features
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>(),
        );
        v.insert("calibration_s", self.calibration_s);
        v.insert("fingerprint", self.fingerprint());
        v
    }
}

/// Cores this process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    if is_x86_feature_detected!("avx2") {
        out.push("avx2");
    }
    if is_x86_feature_detected!("fma") {
        out.push("fma");
    }
    if is_x86_feature_detected!("avx512f") {
        out.push("avx512f");
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> Vec<&'static str> {
    Vec::new()
}

/// Median of 7 readings of the pace kernel (see [`crate::pace::kernel_s`]),
/// the benchmark's one fixed calibration kernel.
fn calibration_seconds() -> f64 {
    let readings: Vec<f64> = (0..7).map(|_| crate::pace::kernel_s()).collect();
    median(&readings)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn clock_seconds(clock: i32) -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; an unknown clock id
    // is reported through the return code, not undefined behaviour.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds of this process — every thread, live or exited — at
/// nanosecond resolution.
pub fn own_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID).expect("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed")
}

/// CPU seconds of process `pid` — every thread, live or exited — at
/// nanosecond resolution, from its process CPU-time clock (the clock id
/// `clock_getcpuclockid` returns: `(!pid << 3) | CPUCLOCK_SCHED`). `None`
/// once the process is gone.
pub fn process_cpu_seconds(pid: u32) -> Option<f64> {
    const CPUCLOCK_SCHED: i32 = 2;
    clock_seconds((!(pid as i32) << 3) | CPUCLOCK_SCHED)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_positive() {
        let pid = std::process::id();
        let before = own_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(own_cpu_seconds() > before);
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        let stamp = HostStamp::probe();
        assert!(stamp.nproc >= 1);
        assert!(stamp.calibration_s > 0.0);
        assert_eq!(stamp.fingerprint().len(), 16);
    }

    /// Thread CPU of the calling thread, seconds.
    fn thread_cpu_seconds() -> f64 {
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        clock_seconds(CLOCK_THREAD_CPUTIME_ID).unwrap()
    }

    #[test]
    fn process_clock_counts_threads_that_have_exited() {
        // A daemon's shard thread does its job's work and is joined before
        // the job's `done` event; its CPU must still be in the reading.
        let pid = std::process::id();
        let before = process_cpu_seconds(pid).unwrap();
        let burnt = std::thread::spawn(|| {
            let mut x = 0u64;
            for i in 0..40_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
            thread_cpu_seconds()
        })
        .join()
        .unwrap();
        let after = process_cpu_seconds(pid).unwrap();
        assert!(burnt > 0.005, "the thread burnt {burnt} s");
        assert!(
            after - before >= burnt,
            "process clock moved {} s, the exited thread used {burnt} s",
            after - before
        );
    }

    #[test]
    fn process_clock_reads_another_process() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .unwrap();
        let reading = process_cpu_seconds(child.id());
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(reading.is_some_and(|s| s >= 0.0));
    }
}
