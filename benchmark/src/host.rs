//! What the benchmark reads from the host: CPU time and peak memory of its
//! own process from `/proc`, and the provenance recorded with a result.

use ipmedia_obs::JsonObj;

/// `/proc/self/stat` counts CPU time in USER_HZ ticks, which Linux fixes at
/// 100 per second for user space on every architecture we run on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads, exited ones
/// included) has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11); // → utime (field 14)
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit of the checkout the benchmark was built in, read from `.git`
/// without running git; `unknown` where there is no repository (the
/// driver's checkout is a plain directory).
pub fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(git.join("packed-refs"))?
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// `obj` with what every result records about where it was measured.
pub fn provenance(obj: JsonObj) -> JsonObj {
    obj.str("git_commit", &git_commit())
        .num("nproc", nproc() as u64)
        .str("rustc", RUSTC)
        .str("profile", PROFILE)
}

/// `rustc --version` of the compiler that built this binary (captured by
/// `build.rs`).
pub const RUSTC: &str = env!("IPMEDIA_BENCHMARK_RUSTC");

pub const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let before = cpu_seconds();
        let spin = crate::probes::spin_ns();
        assert!(spin > 0.0 && spin < 1_000.0, "spin {spin} ns/iter");
        assert!(cpu_seconds() > before, "the spin loop used CPU");
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }
}
