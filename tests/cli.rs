//! The `alid` binary as its own process, with a reader that closes its
//! output before the binary writes. A closed stdout ends the run with
//! exit 0 and no message; a closed stderr keeps the documented code (2
//! for a usage error). Neither may surface as a panic (exit 101).
//! `alid serve` exits 1, not the usage code, when it cannot start.

use std::io::pipe;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A small detection input: three tight 2-d clusters offset from the
/// origin plus scattered noise, 75 rows, written once per test.
fn csv(name: &str) -> PathBuf {
    let mut rows = String::new();
    for c in 0..3 {
        for i in 0..20 {
            let (x, y) = (40.0 + 30.0 * c as f64, 25.0 + 10.0 * c as f64);
            let t = i as f64;
            rows +=
                &format!("{:.4},{:.4}\n", x + 0.05 * (t * 1.7).sin(), y + 0.05 * (t * 2.3).cos());
        }
    }
    for i in 0..15 {
        let t = i as f64;
        rows += &format!("{:.4},{:.4}\n", 200.0 * (t * 0.91).sin(), 200.0 * (t * 1.37).cos());
    }
    let path = std::env::temp_dir().join(format!("alid-cli-{}-{name}.csv", std::process::id()));
    std::fs::write(&path, rows).expect("write the CSV");
    path
}

/// Runs `alid args` with stdout or stderr connected to a pipe whose
/// read end is already closed, so its first write there fails.
fn run_with_closed(args: &[&str], close_stdout: bool) -> Output {
    let (reader, writer) = pipe().expect("pipe");
    drop(reader);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_alid"));
    cmd.args(args).stdin(Stdio::null());
    if close_stdout {
        cmd.stdout(writer).stderr(Stdio::piped());
    } else {
        cmd.stdout(Stdio::piped()).stderr(writer);
    }
    cmd.output().expect("run alid")
}

#[test]
fn closed_stdout_ends_the_run_with_exit_0_and_no_message() {
    let path = csv("stdout");
    let input = path.to_str().expect("UTF-8 temp path");
    let detect = ["detect", input, "--scale", "0.05", "--workers", "1", "--assignments"];
    let serve = ["serve", "--dim", "2", "--k", "1", "--addr", "127.0.0.1:0", "--http-workers", "1"];
    for args in [&detect[..], &["lint", "--help"][..], &serve[..]] {
        let out = run_with_closed(args, true);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "alid {args:?}: {stderr}");
        // Progress lines may precede the report; no error may follow it.
        for word in ["panicked", "pipe", "error"] {
            assert!(!stderr.contains(word), "alid {args:?} reported {word:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn closed_stderr_keeps_the_usage_exit_code() {
    let path = csv("stderr");
    let input = path.to_str().expect("UTF-8 temp path");
    for args in [
        &["detect", input, "--scale", "0.05", "--delta", "0"][..],
        &["serve", "--delta", "0"][..],
        &["lint", "--bogus"][..],
    ] {
        let out = run_with_closed(args, false);
        assert_eq!(out.status.code(), Some(2), "alid {args:?}");
        assert!(out.stdout.is_empty(), "alid {args:?} wrote to stdout");
    }
    let _ = std::fs::remove_file(path);
}

/// Runs `alid serve` with a fresh 2-d service on the given extra
/// flags, capturing both outputs.
fn serve(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alid"))
        .args(["serve", "--dim", "2", "--k", "1", "--http-workers", "1"])
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .expect("run alid serve")
}

#[test]
fn serve_exits_1_when_its_address_is_taken() {
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = taken.local_addr().expect("local address").to_string();
    let out = serve(&["--addr", &addr]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("binding"), "{stderr}");
    assert!(out.stdout.is_empty(), "no readiness line: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn serve_exits_1_when_its_journal_cannot_be_opened() {
    let file = std::env::temp_dir().join(format!("alid-cli-{}-journal-file", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("write the file");
    let journal = file.join("j");
    // The taken address keeps a regression from serving forever: past
    // the journal, the bind fails too.
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = taken.local_addr().expect("local address").to_string();
    let out = serve(&["--addr", &addr, "--journal", journal.to_str().expect("UTF-8 temp path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("recovering journal"), "{stderr}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn serve_usage_errors_still_exit_2() {
    let out = serve(&["--delta", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}
