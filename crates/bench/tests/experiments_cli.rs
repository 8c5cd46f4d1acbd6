//! `experiments` refuses a `--scale` it cannot run at: exit code 2 and the
//! usage on stderr, as for an unknown id or flag.

use std::process::Command;

#[test]
fn unusable_scale_exits_2() {
    for scale in ["nan", "inf", "0", "-1", "half"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--scale", scale, "undoable"])
            .output()
            .expect("the experiments binary runs");
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: experiments"));
    }
}
