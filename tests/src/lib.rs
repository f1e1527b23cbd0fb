//! Shared helper for the integration batteries.

/// True in a debug build, after saying so once per test binary on the
/// real stderr (libtest swallows a passing test's `eprintln!`, which is
/// how tier-1 used to report byte-pinned sweeps as passed without a
/// word). Full-size sweeps are release-only: a test that is one returns
/// early on `true`.
pub fn full_size_sweep_skipped(file: &str) -> bool {
    static SAID: std::sync::Once = std::sync::Once::new();
    if !cfg!(debug_assertions) {
        return false;
    }
    SAID.call_once(|| {
        use std::io::Write;
        let line = format!(
            "\ntests/{file}.rs: full-size sweeps NOT RUN in a debug build — \
             cargo test --release --test {file}\n"
        );
        let _ = std::io::stderr().write_all(line.as_bytes());
    });
    true
}
