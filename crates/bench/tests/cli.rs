//! Hostile command lines: every malformed flag the `reproduce` binary
//! accepts, and every flag or experiment name it does not know, must end
//! in a one-line error and a non-zero exit before any experiment runs,
//! never a panic.

use std::process::Command;

/// Argument lists that must be rejected.
const HOSTILE: &[&[&str]] = &[
    &["throughput", "--grid", "0x0"],
    &["throughput", "--grid", "1x0"],
    &["--grid", "0x0"],
    &["--grid", "1x0"],
    // 4096 slices: more cores and bridge than 16-bit node ids name.
    &["--grid", "64x64"],
    &["--grid", "4096x1"],
    &["--engine", "fastforward"],
    &["--threads", "x"],
    &["--threads", "2", "--engine", "lockstep"],
    &["--restore", "/dev/null"],
    &["--bogus"],
    &["fleet", "--quick", "--thread", "2"],
    &["throughputt"],
    // Not an experiment: `perfbench/` measures host speed.
    &["throughput"],
    &["--faults", "bogus"],
    &["--faults", "brownout:0@1us+1us"],
    &["fleet", "--quick", "--arrivals", "bursty:0"],
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
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(
            !stderr.contains("panicked at"),
            "{args:?} panicked: {stderr}"
        );
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.trim().lines().count(), 1, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran something first: {stdout}");
    }
}

#[test]
fn unwritable_bench_file_exits_two() {
    // A directory where the sweep wants to write its BENCH file: the run
    // itself succeeds, the write cannot.
    let dir = std::env::temp_dir().join(format!("reproduce-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("BENCH_resilience.json")).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["resilience", "--quick"])
        .current_dir(&dir)
        .output()
        .expect("reproduce runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked at"), "panicked: {stderr}");
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.trim().lines().count(), 1, "{stderr}");
    assert!(stderr.contains("BENCH_resilience.json"), "{stderr}");
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // The read end is closed before the run starts, so every line the
    // run prints meets a broken pipe, as under `reproduce ... | head -3`
    // once `head` has exited.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let dir = std::env::temp_dir().join(format!("reproduce-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--snapshot-at", "3000000", "--snapshot-out", "s.snap"])
        .current_dir(&dir)
        .stdout(writer)
        .output()
        .expect("reproduce runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
