//! Integration tests of the `fpgafuzz` command-line binary's stdout.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fpgafuzz"))
}

/// A reader that closes the pipe before `fpgafuzz` prints (`fpgafuzz gen
/// … | head -0`) gets no panic: the process exits with the run's own
/// code.
#[test]
fn closed_stdout_keeps_the_exit_code() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = bin()
        .args(["gen", "--seed", "1", "--index", "0"])
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A misspelled flag, which a campaign once ran without, exits 2 naming
/// the flag; so does a flag its command does not take.
#[test]
fn unknown_flag_exits_2_naming_it() {
    for (args, named) in [
        (
            &["run", "--seed", "1", "--cases", "2", "--widht", "32"][..],
            "--widht",
        ),
        (
            &["gen", "--seed", "1", "--index", "0", "--cases", "2"][..],
            "--cases",
        ),
    ] {
        let out = bin().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

/// A stdout write that fails for any reason other than a closed reader
/// (here a full device) is an error: exit 2 with the cause on stderr,
/// never a panic and never a silent success.
#[cfg(target_os = "linux")]
#[test]
fn failed_stdout_write_exits_two() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let out = bin()
        .args(["gen", "--seed", "1", "--index", "0"])
        .stdout(full)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: writing stdout"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
