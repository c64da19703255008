//! The frozen benchmark still compiles against the library.
//!
//! `benchmark/` is a workspace of its own, so `cargo build` and `cargo
//! test` at the root never compile it, and its import list is the
//! library's public contract. This test runs `cargo check` on it, with
//! its own target directory so it never waits on the outer build's lock.
//! `--locked` keeps the benchmark's lockfile as committed.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_compiles_against_the_library() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| env!("CARGO").into());
    let out = Command::new(cargo)
        .args(["check", "--offline", "--locked", "--all-targets", "--quiet"])
        .arg("--manifest-path")
        .arg(root.join("benchmark/Cargo.toml"))
        .env("CARGO_TARGET_DIR", root.join("target/contract"))
        .output()
        .expect("cargo starts");
    assert!(
        out.status.success(),
        "benchmark/ no longer compiles against the library ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
