//! Where the benchmark lives and what it ran on.

use std::path::PathBuf;
use std::process::Command;

use crate::workload::{nproc, width};

/// `[profile.release]` of this package, which a test holds equal to
/// the root manifest's.
pub const PROFILE: &str = "release lto=true codegen-units=1";

/// The `benchmark/` directory: where cargo says the manifest is when
/// it runs the binary, else where it was when it built it.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `benchmark/out/`: span files, `result.json`, the router's spill
/// directory. Everything the benchmark writes goes here.
pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `env` object of `result.json` and `AA.json`. The commit is
/// `unknown` in a checkout that is not a git repository.
pub fn env_json(seed: u64) -> String {
    format!(
        "{{\"commit\":\"{}\",\"nproc\":{},\"rayon_width\":{},\"workers\":{},\"profile\":\"{PROFILE}\",\"rustc\":\"{}\",\"seed\":{seed}}}",
        first_line_of("git", &["rev-parse", "HEAD"]),
        nproc(),
        width(),
        width(),
        first_line_of("rustc", &["--version"]),
    )
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The settings of a manifest's `[profile.release]` table, sorted.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut settings: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").replace(' ', ""))
            .filter(|l| !l.is_empty())
            .collect();
        settings.sort();
        settings
    }

    #[test]
    fn release_profile_equals_the_root_manifest() {
        let read = |path: PathBuf| {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
        };
        let ours = release_profile(&read(bench_dir().join("Cargo.toml")));
        let root = release_profile(&read(bench_dir().join("../Cargo.toml")));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(
            ours, root,
            "benchmark/Cargo.toml must mirror the root profile"
        );
        let said: Vec<String> = PROFILE.split(' ').skip(1).map(str::to_string).collect();
        let mut said_sorted = said.clone();
        said_sorted.sort();
        assert_eq!(
            said_sorted, ours,
            "env::PROFILE must say what the manifest sets"
        );
    }

    #[test]
    fn peak_rss_reads_as_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
