//! Shared code for the integration batteries in `tests/tests/`: the
//! reference models the fast structures are driven against, kept out of
//! every production crate's dependency graph, and the golden-fixture
//! check.

#![forbid(unsafe_code)]

pub mod classic;
pub mod classic_click_pool;
pub mod classic_cuckoo;
pub mod classic_histogram;

pub use classic::ClassicSetAssocCache;
pub use classic_click_pool::ClassicClickPool;
pub use classic_cuckoo::ClassicCuckoo;
pub use classic_histogram::ClassicHistogram;

/// Reports the first differing line instead of dumping two large
/// strings through `assert_eq!`.
pub fn assert_same(actual: &str, expected: &str, what: &str) {
    if actual == expected {
        return;
    }
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{what}: first divergence at line {}", i + 1);
    }
    panic!(
        "{what}: lengths differ ({} vs {} bytes) with a common prefix",
        actual.len(),
        expected.len()
    );
}

/// Checks a sweep's stdout table and `--json` artifact against the
/// committed `tests/golden/<name>.txt` and `<name>.json`, byte for byte;
/// `None` skips a side the fixture does not pin. `PM_WRITE_GOLDEN=1`
/// rewrites the fixtures instead of comparing.
pub fn check_fixture(name: &str, stdout: Option<&str>, json: Option<&str>) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    let write = std::env::var("PM_WRITE_GOLDEN").is_ok_and(|v| v != "0");
    for (ext, actual) in [("txt", stdout), ("json", json)] {
        let Some(actual) = actual else { continue };
        let path = format!("{dir}/{name}.{ext}");
        if write {
            std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{path}: {e}"));
            eprintln!("wrote {path}");
        } else {
            let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_same(actual, &expected, &format!("{name}.{ext}"));
        }
    }
}
