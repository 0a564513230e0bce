//! `dmsa` keeps its exit code when nobody reads its error: with stderr on
//! a pipe whose reader has exited, writing the error fails with EPIPE,
//! and that must not turn exit 2 or 1 into a panic's 101.

use std::process::{Command, Stdio};

/// Exit code of `dmsa args` run with stderr on a pipe whose read end is
/// closed before `dmsa` starts (the shell waits first).
fn exit_code_with_stderr_closed(args: &str) -> Option<i32> {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!("sleep 0.2; exec \"$0\" {args}"))
        .arg(env!("CARGO_BIN_EXE_dmsa"))
        .stderr(Stdio::piped())
        .spawn()
        .expect("run dmsa");
    drop(child.stderr.take());
    child.wait().expect("wait for dmsa").code()
}

#[test]
fn errors_keep_their_exit_code_when_stderr_is_closed() {
    assert_eq!(exit_code_with_stderr_closed("simulate --bogus"), Some(2));
    assert_eq!(
        exit_code_with_stderr_closed("analyze --campaign /nonexistent/c.json --report summary"),
        Some(1)
    );
}
