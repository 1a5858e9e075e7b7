//! Hermeticity: the workspace builds from this repository alone.
//!
//! rustc already rejects a `use` of any crate the manifest does not
//! declare (edition 2021), so the remaining way in is a declared
//! external dependency. It would show up in a lockfile as a package no
//! manifest in the repository defines, with a `source = ...` line naming
//! its registry or git origin. Both lockfiles — the workspace's and the
//! standalone `perfbench` package's — must have neither. The lockfiles
//! are only read.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Collects the `[package]` name of every `Cargo.toml` under `dir`,
/// skipping build output and hidden directories.
fn collect_package_names(dir: &Path, out: &mut BTreeSet<String>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_package_names(&path, out);
            }
        } else if name == "Cargo.toml" {
            let text = fs::read_to_string(&path).expect("read manifest");
            let Some(package) = text.split("[package]").nth(1) else {
                continue;
            };
            if let Some(pkg) = package
                .lines()
                .find_map(|l| l.strip_prefix("name = "))
                .map(|v| v.trim().trim_matches('"'))
            {
                out.insert(pkg.to_string());
            }
        }
    }
}

fn repo_packages() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    collect_package_names(&repo_root(), &mut names);
    names
}

/// Every way `lock` pulls in something from outside the repository: a
/// package no repository manifest defines, or a package with a
/// `source =` line (registry, git, or path outside the checkout).
fn lock_problems(lock: &str, repo_packages: &BTreeSet<String>) -> Vec<String> {
    let mut problems = Vec::new();
    for block in lock.split("[[package]]").skip(1) {
        let name = block
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .map_or("<unnamed>", |v| v.trim().trim_matches('"'));
        if !repo_packages.contains(name) {
            problems.push(format!("`{name}` is not a package of this repository"));
        }
        if block.lines().any(|l| l.starts_with("source = ")) {
            problems.push(format!("`{name}` comes from an external source"));
        }
    }
    problems
}

#[test]
fn repository_lockfiles_hold_only_repository_packages() {
    let packages = repo_packages();
    for (lockfile, member) in [
        ("Cargo.lock", "uvm-sim"),
        ("perfbench/Cargo.lock", "perfbench"),
    ] {
        let lock = fs::read_to_string(repo_root().join(lockfile))
            .unwrap_or_else(|e| panic!("read {lockfile}: {e}"));
        assert!(
            lock.contains(&format!("name = \"{member}\"")),
            "{lockfile} does not list `{member}`"
        );
        let problems = lock_problems(&lock, &packages);
        assert!(problems.is_empty(), "{lockfile}: {problems:?}");
    }
}

#[test]
fn registry_dependency_is_caught() {
    let lock = "version = 4\n\n\
                [[package]]\n\
                name = \"uvm-util\"\n\
                version = \"0.1.0\"\n\
                dependencies = [\n \"serde\",\n]\n\n\
                [[package]]\n\
                name = \"serde\"\n\
                version = \"1.0.0\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    let problems = lock_problems(lock, &repo_packages());
    assert_eq!(
        problems,
        vec![
            "`serde` is not a package of this repository",
            "`serde` comes from an external source"
        ]
    );
}

#[test]
fn external_source_under_a_repository_name_is_caught() {
    let lock = "version = 4\n\n\
                [[package]]\n\
                name = \"uvm-util\"\n\
                version = \"0.1.0\"\n\
                source = \"git+https://example.org/uvm-util#0123abc\"\n";
    let problems = lock_problems(lock, &repo_packages());
    assert_eq!(problems, vec!["`uvm-util` comes from an external source"]);
}
