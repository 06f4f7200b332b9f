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
/// the flag and prints the usage text; so does a flag its command does
/// not take.
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
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
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

/// A finished run's checkpoint edited to claim more cases than the
/// campaign has is malformed: with no `.tmp` or `.prev` generation
/// beside it, `--resume` exits 2 naming `completed` instead of replaying
/// phantom cases. The refusal is not a usage error, so no usage text
/// follows it.
#[test]
fn resume_refuses_a_completed_prefix_past_the_total() {
    use fpgatest::telemetry::Json;
    let dir = std::env::temp_dir().join("fpgafuzz_cli_crafted_checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (finished, crafted) = (dir.join("finished.ckpt"), dir.join("crafted.ckpt"));
    let run = |flag: &str, checkpoint: &std::path::Path| {
        bin()
            .args(["run", "--seed", "1", "--cases", "16", flag])
            .arg(checkpoint)
            .output()
            .unwrap()
    };
    let out = run("--checkpoint", &finished);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    let mut doc = Json::parse(&std::fs::read_to_string(&finished).unwrap()).unwrap();
    let Json::Obj(members) = &mut doc else {
        panic!("a checkpoint is an object")
    };
    let completed = members
        .iter_mut()
        .find(|(key, _)| key == "completed")
        .expect("completed");
    assert_eq!(completed.1.emit(), "[[0,16]]");
    completed.1 = Json::parse("[[0, 500]]").unwrap();
    std::fs::write(&crafted, doc.emit_pretty()).unwrap();

    let out = run("--resume", &crafted);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("completed"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint's divergences lie inside its completed prefix, in index
/// order, and fit in it with its generator errors. A finished
/// `branch-polarity` run (23 divergences, indices 5 to 39) edited to
/// `completed: [[0, 5]]` once resumed to report 46 divergences of 40
/// cases; it exits 2 naming `divergences`. One claiming more generator
/// errors than its prefix has room for exits 2 naming
/// `generator_errors`.
#[test]
fn resume_refuses_divergences_outside_the_completed_prefix() {
    use fpgatest::telemetry::Json;
    fn member<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(members) = doc else {
            panic!("'{key}' is read from an object")
        };
        &mut members.iter_mut().find(|(k, _)| k == key).expect(key).1
    }
    let dir = std::env::temp_dir().join("fpgafuzz_cli_divergences_past_prefix");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |flag: &str, checkpoint: &std::path::Path| {
        bin()
            .args([
                "run",
                "--seed",
                "42",
                "--cases",
                "40",
                "--inject",
                "branch-polarity",
            ])
            .args(["--max-ticks", "50000", flag])
            .arg(checkpoint)
            .output()
            .unwrap()
    };
    let finished = dir.join("finished.ckpt");
    let out = run("--checkpoint", &finished);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let text = std::fs::read_to_string(&finished).unwrap();

    let mut past_prefix = Json::parse(&text).unwrap();
    let divergences = member(member(&mut past_prefix, "state"), "divergences");
    let first = divergences
        .as_array()
        .and_then(|list| list[0].get("index")?.as_u64());
    assert_eq!(first, Some(5));
    *member(&mut past_prefix, "completed") = Json::parse("[[0, 5]]").unwrap();
    let mut extra_errors = Json::parse(&text).unwrap();
    *member(member(&mut extra_errors, "state"), "generator_errors") = Json::parse("18").unwrap();

    let crafted = dir.join("crafted.ckpt");
    for (doc, named) in [
        (past_prefix, "divergences"),
        (extra_errors, "generator_errors"),
    ] {
        std::fs::write(&crafted, doc.emit_pretty()).unwrap();
        let out = run("--resume", &crafted);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{named}: {stderr}");
        let message = format!("{named} does not match this campaign");
        assert!(stderr.contains(&message), "{stderr}");
        assert!(!stderr.contains("usage:"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
