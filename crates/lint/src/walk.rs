//! Deterministic discovery of the Rust sources to lint.
//!
//! Walks `crates/`, `src/`, `tests/`, and `examples/` under the
//! workspace root, visiting directory entries in sorted order so the
//! tool's own output is reproducible. `vendor/` (offline dependency
//! shims — external API surface, not ours), any `target/` directory,
//! and `fixtures/` trees (linter input corpora, deliberately full of
//! violations) are skipped.

use std::path::{Path, PathBuf};

/// Roots scanned below the workspace root.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

fn skip_dir(name: &str) -> bool {
    name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.')
}

fn walk_into(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !skip_dir(name) {
                walk_into(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file under the scan roots, absolute paths, sorted by
/// their forward-slash relative form (`mod.rs` vs `mod/` siblings make
/// depth-first order differ from the string order diagnostics use).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk_into(&dir, &mut out)?;
        }
    }
    out.sort_by_key(|p| relative_path(root, p));
    Ok(out)
}

/// `path` relative to `root`, with forward slashes (rule scopes and
/// diagnostics use this form on every platform).
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_is_sorted_and_skips_vendor() {
        // CARGO_MANIFEST_DIR = crates/lint — the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_sources(&root).unwrap();
        assert!(!files.is_empty());
        let rels: Vec<String> = files.iter().map(|f| relative_path(&root, f)).collect();
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "walk order must be deterministic");
        assert!(rels.iter().all(|r| !r.starts_with("vendor/") && !r.contains("/target/")));
        assert!(rels.iter().all(|r| !r.contains("/fixtures/")), "corpora are input, not source");
        assert!(rels.iter().any(|r| r == "crates/lint/src/walk.rs"), "finds itself: {rels:?}");
    }
}
