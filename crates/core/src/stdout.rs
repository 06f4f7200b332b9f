//! Standard output for the command-line tools (`fpgatest`, `fpgafuzz`):
//! [`write_stdout`] and its `print!`/`println!` stand-ins, [`out!`] and
//! [`outln!`].
//!
//! [`out!`]: crate::out
//! [`outln!`]: crate::outln

use std::io::Write as _;

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout::write_stdout(format_args!($($arg)*), false)
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::stdout::write_stdout(format_args!($($arg)*), true)
    };
}

/// Writes to stdout without panicking. A reader that closes the pipe
/// early (`fpgatest … | head`) must not turn a finished run into a
/// panic, so a broken pipe is ignored and the process still exits with
/// the run's own code. Any other write error (a full disk under
/// `> log`) is reported on stderr and exits 2, so a cut-short output
/// never passes as complete.
pub fn write_stdout(args: std::fmt::Arguments, newline: bool) {
    let end: &[u8] = if newline { b"\n" } else { b"" };
    let mut stdout = std::io::stdout().lock();
    let written = stdout.write_fmt(args).and_then(|()| stdout.write_all(end));
    drop(stdout);
    if let Err(e) = written {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(2);
        }
    }
}
