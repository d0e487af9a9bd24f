//! Exit codes of the `alba-lint` binary on small temporary trees: 0
//! when the tree is clean, 1 on a finding or a stale suppression, 2 on
//! a usage error.

use std::path::PathBuf;
use std::process::Command;

/// A throwaway tree holding one source file at `rel`.
struct Tree(PathBuf);

impl Tree {
    fn new(name: &str, rel: &str, src: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("alba-lint-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let file = root.join(rel);
        std::fs::create_dir_all(file.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(&file, src).expect("write source");
        Tree(root)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn lint(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_alba-lint")).args(args).output().expect("spawn");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn lint_tree(tree: &Tree) -> (Option<i32>, String) {
    lint(&["--root", tree.0.to_str().expect("utf-8 temp path"), "--json"])
}

#[test]
fn a_clean_tree_exits_0() {
    let tree = Tree::new("clean", "crates/serve/src/x.rs", "pub fn one() -> u8 {\n    1\n}\n");
    let (code, out) = lint_tree(&tree);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("\"ok\": true"), "{out}");
}

#[test]
fn one_finding_exits_1() {
    let tree = Tree::new("finding", "crates/serve/src/x.rs", "struct S { m: HashMap<u8, u8> }\n");
    let (code, out) = lint_tree(&tree);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("no-unordered-iteration"), "{out}");
    assert!(out.contains("\"ok\": false"), "{out}");
}

#[test]
fn a_stale_suppression_alone_exits_1() {
    // The allow names reachable-panic, but no hot-path root reaches the
    // site: nothing fires, and the suppression itself is stale.
    let tree = Tree::new(
        "stale",
        "crates/serve/src/service.rs",
        "fn dead() { None::<u8>.unwrap(); } // alba-lint: allow(reachable-panic, no-panic-in-fallible) reason=\"was reachable once\"\n",
    );
    let (code, out) = lint_tree(&tree);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("\"findings\": []"), "{out}");
    assert!(out.contains("stale-suppression"), "{out}");
}

#[test]
fn an_unknown_argument_exits_2() {
    assert_eq!(lint(&["--no-such-flag"]).0, Some(2));
}
