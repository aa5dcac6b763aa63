//! Hostile command lines: every malformed flag the `reproduce` binary
//! accepts must end in a one-line error and a non-zero exit, never a
//! panic.

use std::process::Command;

/// Argument lists that must be rejected.
const HOSTILE: &[&[&str]] = &[
    &["throughput", "--grid", "0x0"],
    &["throughput", "--grid", "1x0"],
    &["--grid", "0x0"],
    &["--grid", "1x0"],
    &["--engine", "fastforward"],
    &["--threads", "x"],
    &["--threads", "2", "--engine", "lockstep"],
    &["--restore", "/dev/null"],
];

#[test]
fn hostile_flags_exit_non_zero_without_panicking() {
    for args in HOSTILE {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(*args)
            .current_dir(std::env::temp_dir())
            .output()
            .expect("reproduce runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(
            !stderr.contains("panicked at"),
            "{args:?} panicked: {stderr}"
        );
        assert!(!stderr.trim().is_empty(), "{args:?} failed silently");
    }
}
