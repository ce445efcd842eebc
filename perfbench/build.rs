//! Records the build half of the provenance every run prints: the
//! compiler and the profile.

use std::io::Write;
use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    // Cargo reads build-script directives from standard output.
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let _ = writeln!(out, "cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    let _ = writeln!(out, "cargo:rerun-if-changed=build.rs");
}
