//! Argument handling of the `snapshot` binary: usage errors exit with
//! status 2 and write nothing, so a bad invocation can never overwrite
//! the checked-in `BENCH_1.json`.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_writing() {
    let dir = std::env::temp_dir().join(format!("treeemb-snapshot-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for args in [
        &["--quick", "--out"][..],
        &["--out", "--quick"],
        &["--trace-out"],
        &["--quick", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_snapshot"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: snapshot"));
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a usage error must not write any file"
    );
    let _ = std::fs::remove_dir(dir);
}
