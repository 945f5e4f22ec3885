//! Documentation link checker: every relative markdown link in
//! `README.md` and **every** page under `docs/` (discovered, not
//! hard-coded) must point at a file that exists, and every `#anchor`
//! must match a heading in the target — so anchors referenced across
//! the README, the architecture tour, and the planner handbook cannot
//! rot as pages are added.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extracts `[text](target)` link targets, skipping fenced code blocks.
fn markdown_links(text: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                if let Some(end) = line[i + 2..].find(')') {
                    links.push(line[i + 2..i + 2 + end].to_owned());
                    i += 2 + end;
                }
            }
            i += 1;
        }
    }
    links
}

/// GitHub-style heading slugs: lowercase, spaces to dashes, punctuation
/// dropped.
fn heading_anchors(text: &str) -> HashSet<String> {
    let mut anchors = HashSet::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        let title = line.trim_start_matches('#').trim();
        let slug: String = title
            .chars()
            .filter_map(|c| {
                if c.is_ascii_alphanumeric() {
                    Some(c.to_ascii_lowercase())
                } else if c == ' ' || c == '-' {
                    Some('-')
                } else {
                    None
                }
            })
            .collect();
        anchors.insert(slug);
    }
    anchors
}

fn check_file_links(doc: &Path) {
    let text =
        std::fs::read_to_string(doc).unwrap_or_else(|e| panic!("reading {}: {e}", doc.display()));
    let base = doc.parent().expect("doc has a parent directory");
    for link in markdown_links(&text) {
        if link.contains("://") || link.starts_with("mailto:") {
            continue; // external links are out of scope for an offline check
        }
        let (path_part, anchor) = match link.split_once('#') {
            Some((p, a)) => (p, Some(a)),
            None => (link.as_str(), None),
        };
        let target = if path_part.is_empty() {
            doc.to_path_buf()
        } else {
            base.join(path_part)
        };
        assert!(
            target.exists(),
            "{}: broken link `{link}` (no such file {})",
            doc.display(),
            target.display()
        );
        if let Some(anchor) = anchor {
            let target_text = std::fs::read_to_string(&target)
                .unwrap_or_else(|e| panic!("reading {}: {e}", target.display()));
            let anchors = heading_anchors(&target_text);
            assert!(
                anchors.contains(anchor),
                "{}: link `{link}` names anchor `#{anchor}` missing from {} (have: {:?})",
                doc.display(),
                target.display(),
                anchors
            );
        }
    }
}

#[test]
fn readme_links_resolve() {
    check_file_links(&repo_root().join("README.md"));
}

#[test]
fn every_docs_page_links_resolve() {
    // Discover, don't enumerate: a new docs page is covered the moment
    // it lands, including its relative links to other docs pages and
    // back up to the README.
    let docs = repo_root().join("docs");
    let mut pages: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ directory exists")
        .map(|e| e.expect("readable docs entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    pages.sort();
    assert!(
        pages.len() >= 2,
        "docs/ must hold at least ARCHITECTURE.md and PLANNERS.md, found {pages:?}"
    );
    for page in &pages {
        check_file_links(page);
    }
}

#[test]
fn readme_references_the_architecture_recipes() {
    // The crate map must point into the architecture tour; if the tour's
    // recipe headings are renamed, this test and the anchor check above
    // fail together.
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    for anchor in [
        "docs/ARCHITECTURE.md#adding-a-new-planner",
        "docs/ARCHITECTURE.md#adding-a-new-kernel",
        "docs/ARCHITECTURE.md#adding-a-new-model",
    ] {
        assert!(
            readme.contains(anchor),
            "README must link {anchor} so contributors find the recipes"
        );
    }
}

#[test]
fn serving_handbook_cross_links_are_bidirectional() {
    // README ↔ ARCHITECTURE ↔ PLANNERS ↔ SERVING: the serving
    // operations handbook must be reachable from all three entry
    // points, and must link back to all three.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let arch = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    let planners = std::fs::read_to_string(root.join("docs/PLANNERS.md")).unwrap();
    let serving = std::fs::read_to_string(root.join("docs/SERVING.md")).unwrap();
    assert!(
        readme.contains("docs/SERVING.md"),
        "README must link the serving handbook"
    );
    assert!(
        arch.contains("SERVING.md"),
        "ARCHITECTURE must link the serving handbook"
    );
    assert!(
        planners.contains("SERVING.md"),
        "PLANNERS must link the serving handbook"
    );
    assert!(
        serving.contains("ARCHITECTURE.md")
            && serving.contains("PLANNERS.md")
            && serving.contains("../README.md"),
        "the serving handbook must link back to ARCHITECTURE, PLANNERS, and the README"
    );
    // The operational spec the online tests lean on: one section per
    // mechanism. Whole-line matches so renames cannot hide.
    for heading in [
        "## Arrival profiles",
        "## Routing",
        "## Queues, SLOs, and shedding",
        "## Model hot-swap",
        "## Metric definitions",
        "## Worked walkthrough: `fleet_throughput --online`",
    ] {
        assert!(
            serving.lines().any(|l| l == heading),
            "SERVING.md must keep the `{heading}` section"
        );
    }
}

#[test]
fn split_handbook_cross_links_are_bidirectional() {
    // README ↔ ARCHITECTURE ↔ PLANNERS ↔ SPLIT: the split pipeline
    // handbook must be reachable from all three entry points, and must
    // link back to all three.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let arch = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    let planners = std::fs::read_to_string(root.join("docs/PLANNERS.md")).unwrap();
    let split = std::fs::read_to_string(root.join("docs/SPLIT.md")).unwrap();
    assert!(
        readme.contains("docs/SPLIT.md"),
        "README must link the split handbook"
    );
    assert!(
        arch.contains("SPLIT.md"),
        "ARCHITECTURE must link the split handbook"
    );
    assert!(
        planners.contains("SPLIT.md"),
        "PLANNERS must link the split handbook"
    );
    assert!(
        split.contains("ARCHITECTURE.md")
            && split.contains("PLANNERS.md")
            && split.contains("../README.md"),
        "the split handbook must link back to ARCHITECTURE, PLANNERS, and the README"
    );
    // The spec the split tests lean on: one section per mechanism.
    // Whole-line matches so renames cannot hide.
    for heading in [
        "## The partitioner",
        "## Link-model semantics",
        "## Execution and reporting",
        "## Serving a split model on its home device",
        "## Worked example: `hires-split-only`",
        "## Verifying the claims",
    ] {
        assert!(
            split.lines().any(|l| l == heading),
            "SPLIT.md must keep the `{heading}` section"
        );
    }
    // And the planner handbook must keep its per-policy section for the
    // split policy alongside the original five.
    assert!(
        planners.lines().any(|l| l == "## vMCU-split"),
        "PLANNERS.md must keep the `## vMCU-split` section"
    );
}

#[test]
fn handbook_cross_links_are_bidirectional() {
    // README ↔ ARCHITECTURE ↔ PLANNERS: the planner handbook must be
    // reachable from both entry points, and must link back to both.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let arch = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    let planners = std::fs::read_to_string(root.join("docs/PLANNERS.md")).unwrap();
    assert!(
        readme.contains("docs/PLANNERS.md"),
        "README must link the planner handbook"
    );
    assert!(
        arch.contains("PLANNERS.md"),
        "ARCHITECTURE must link the planner handbook"
    );
    assert!(
        planners.contains("ARCHITECTURE.md") && planners.contains("../README.md"),
        "the handbook must link back to ARCHITECTURE and the README"
    );
    // One section per engine policy. Whole-line matches, so deleting
    // the `## vMCU` section cannot hide behind `## vMCU-fused`.
    for heading in [
        "## HMCOS",
        "## TinyEngine",
        "## vMCU",
        "## vMCU-fused",
        "## vMCU-patched",
        "## Which planner should I use",
    ] {
        assert!(
            planners.lines().any(|l| l == heading),
            "PLANNERS.md must keep the `{heading}` section"
        );
    }
}

/// Names `crates/plan/src/lib.rs` re-exports at the crate root: the
/// last path segment of every `pub use` item, braces expanded.
fn plan_crate_exports() -> HashSet<String> {
    let lib = std::fs::read_to_string(repo_root().join("crates/plan/src/lib.rs")).unwrap();
    let mut names = HashSet::new();
    for stmt in lib.split(';') {
        let Some(rest) = stmt.trim().strip_prefix("pub use ") else {
            continue;
        };
        let list = rest.split_once('{').map_or(rest, |(_, list)| list);
        for item in list.trim_end_matches('}').split(',') {
            if let Some(name) = item.trim().rsplit("::").next() {
                names.insert(name.to_owned());
            }
        }
    }
    names
}

#[test]
fn every_planner_the_docs_name_is_exported() {
    // A deleted planner must leave the prose too: every `…Planner` type
    // named in the README or a docs page is one `vmcu_plan` exports.
    let exports = plan_crate_exports();
    assert!(
        exports.contains("VmcuPlanner") && exports.contains("MemoryPlanner"),
        "the export parser must see the planners, found {exports:?}"
    );
    let root = repo_root();
    let mut pages = vec![root.join("README.md")];
    pages.extend(
        std::fs::read_dir(root.join("docs"))
            .expect("docs/ directory exists")
            .map(|e| e.expect("readable docs entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "md")),
    );
    for page in &pages {
        let text = std::fs::read_to_string(page).unwrap();
        for word in text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
            let named_planner = word.len() > "Planner".len()
                && word.ends_with("Planner")
                && word.starts_with(|c: char| c.is_ascii_uppercase());
            assert!(
                !named_planner || exports.contains(word),
                "{} names `{word}`, which crates/plan/src/lib.rs does not export",
                page.display()
            );
        }
    }
}

/// Package names of the `crates/*` entries in the root manifest's
/// `[workspace] members` list.
fn workspace_crate_names() -> Vec<String> {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let mut names: Vec<String> = manifest
        .lines()
        .skip_while(|l| *l != "members = [")
        .skip(1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| l.trim().trim_end_matches(',').strip_prefix("\"crates/"))
        .map(|dir| {
            let dir = dir.trim_end_matches('"');
            let crate_manifest =
                std::fs::read_to_string(root.join("crates").join(dir).join("Cargo.toml"))
                    .unwrap_or_else(|e| panic!("reading crates/{dir}/Cargo.toml: {e}"));
            crate_manifest
                .lines()
                .find_map(|l| l.strip_prefix("name = \""))
                .and_then(|n| n.strip_suffix('"'))
                .unwrap_or_else(|| panic!("crates/{dir}/Cargo.toml has no package name"))
                .to_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn readme_crate_map_lists_exactly_the_workspace_crates() {
    // A deleted crate must lose its row and a new crate must gain one:
    // the table under `## Crate map` names every `crates/*` member once.
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    let mut rows: Vec<String> = readme
        .lines()
        .skip_while(|l| *l != "## Crate map")
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split_once('`'))
        .map(|(name, _)| name.to_owned())
        .collect();
    rows.sort();
    let crates = workspace_crate_names();
    assert!(
        crates.len() >= 2,
        "expected the workspace members to list crates/*, found {crates:?}"
    );
    assert_eq!(
        rows, crates,
        "README's crate map rows (left) must equal the crates/* workspace members (right)"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
    {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// The directory of the workspace package `name`: the root package or a
/// `crates/*` member.
fn package_dir(name: &str) -> PathBuf {
    let root = repo_root();
    if name == "vmcu-repro" {
        return root;
    }
    std::fs::read_dir(root.join("crates"))
        .expect("crates/ directory exists")
        .map(|e| e.expect("readable crates entry").path())
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|m| m.lines().any(|l| l == format!("name = \"{name}\"")))
        })
        .unwrap_or_else(|| panic!("no workspace package named `{name}`"))
}

/// The Rust sources of the workspace package `name`: its `src/` and
/// `tests/` (the root package's `crates/` belong to other packages).
fn package_sources(name: &str) -> Vec<PathBuf> {
    let dir = package_dir(name);
    ["src", "tests"]
        .iter()
        .map(|sub| dir.join(sub))
        .filter(|d| d.is_dir())
        .flat_map(|d| rust_files(&d))
        .collect()
}

/// The `cargo …` commands of a markdown page: every inline code span (a
/// span may wrap across lines of one paragraph) and every line of its
/// fenced blocks, split on `&&`, with a trailing `# comment` and a
/// line-continuation `\` dropped.
fn page_commands(text: &str) -> Vec<String> {
    let mut pieces = Vec::new();
    let mut paragraph = String::new();
    let mut in_fence = false;
    for line in text.lines() {
        let fence = line.trim_start().starts_with("```");
        if fence || (!in_fence && line.trim().is_empty()) {
            pieces.extend(paragraph.split('`').skip(1).step_by(2).map(str::to_owned));
            paragraph.clear();
            in_fence ^= fence;
        } else if in_fence {
            let code = match line.find('#') {
                Some(i) if line[..i].trim().is_empty() || line[..i].ends_with(' ') => &line[..i],
                _ => line,
            };
            pieces.push(code.trim_end().trim_end_matches('\\').to_owned());
        } else {
            paragraph.push_str(line);
            paragraph.push('\n');
        }
    }
    pieces.extend(paragraph.split('`').skip(1).step_by(2).map(str::to_owned));
    pieces
        .iter()
        .flat_map(|piece| piece.split("&&"))
        .map(|cmd| cmd.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|cmd| cmd.starts_with("cargo "))
        .collect()
}

/// Every `cargo …` command the docs give, with the page that gives it:
/// `vmcu_bench`'s `REPRODUCTION_MAP` (the claim → command table it
/// renders into `EXPERIMENTS.md`, read from its source), `README.md` and
/// every `docs/*.md` page.
fn documented_commands() -> Vec<(String, String)> {
    let root = repo_root();
    let src = std::fs::read_to_string(root.join("crates/bench/src/lib.rs")).unwrap();
    let start = src
        .find("const REPRODUCTION_MAP: &str = \"")
        .expect("crates/bench/src/lib.rs defines REPRODUCTION_MAP");
    let map = &src[start..];
    let map = &map[..map
        .find("\";")
        .expect("REPRODUCTION_MAP is a closed string")];
    let mut pages = vec![(
        "crates/bench/src/lib.rs (REPRODUCTION_MAP)".to_owned(),
        map.to_owned(),
    )];
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ directory exists")
        .map(|e| e.expect("readable docs entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    for page in std::iter::once(root.join("README.md")).chain(docs) {
        let name = page.strip_prefix(&root).unwrap().display().to_string();
        pages.push((name, std::fs::read_to_string(&page).unwrap()));
    }
    pages
        .into_iter()
        .flat_map(|(page, text)| {
            page_commands(&text)
                .into_iter()
                .map(move |cmd| (page.clone(), cmd))
        })
        .collect()
}

#[test]
fn reproduction_map_commands_name_existing_targets_and_tests() {
    // A documented command must still run what it names: every `--bin`
    // is a binary, every `--example` an example and every `--test` a
    // test file of the package, and every test filter the start of a
    // `fn` name in those test files (or in the package) — so it names
    // the tests it claims, not a word inside an unrelated test's name.
    let root = repo_root();
    let commands = documented_commands();
    let (mut bins, mut examples, mut tests, mut filters) = (0, 0, 0, 0);
    for (page, cmd) in &commands {
        let words: Vec<&str> = cmd.split_whitespace().collect();
        // Arguments after `--` go to the binary, not to cargo.
        let cargo_args = words.split(|w| *w == "--").next().unwrap_or_default();
        let mut package = "vmcu-repro";
        let mut test_names = Vec::new();
        let mut example_names = Vec::new();
        let mut test_filters = Vec::new();
        let mut args = cargo_args.iter().skip(2);
        while let Some(&arg) = args.next() {
            let mut value = || {
                *args
                    .next()
                    .unwrap_or_else(|| panic!("{page}: `{cmd}`: {arg} needs a value"))
            };
            match arg {
                "-p" => package = value(),
                "--test" => test_names.push(value()),
                "--example" => example_names.push(value()),
                "--bin" => {
                    let name = value();
                    let found = std::fs::read_dir(root.join("crates")).unwrap().any(|e| {
                        e.unwrap()
                            .path()
                            .join(format!("src/bin/{name}.rs"))
                            .exists()
                    });
                    assert!(
                        found,
                        "{page}: `{cmd}`: no binary `{name}` under crates/*/src/bin"
                    );
                    bins += 1;
                }
                "-q" | "--release" | "--workspace" | "--all-targets" | "--doc" | "--no-run" => {}
                flag if flag.starts_with('-') => {
                    panic!("{page}: `{cmd}`: flag `{flag}` is unknown to this check")
                }
                filter => test_filters.push(filter),
            }
        }
        for name in example_names {
            let file = package_dir(package).join(format!("examples/{name}.rs"));
            assert!(
                file.exists(),
                "{page}: `{cmd}`: no example {}",
                file.display()
            );
            examples += 1;
        }
        let mut test_files: Vec<PathBuf> = test_names
            .iter()
            .map(|name| {
                let file = package_dir(package).join(format!("tests/{name}.rs"));
                assert!(
                    file.exists(),
                    "{page}: `{cmd}`: no test file {}",
                    file.display()
                );
                file
            })
            .collect();
        tests += test_files.len();
        if test_filters.is_empty() {
            continue;
        }
        assert_eq!(
            cargo_args[1], "test",
            "{page}: `{cmd}`: only `cargo test` takes filters"
        );
        if test_files.is_empty() {
            test_files = package_sources(package);
        }
        let sources: String = test_files
            .iter()
            .map(|f| std::fs::read_to_string(f).unwrap())
            .collect();
        for filter in test_filters {
            assert!(
                sources.contains(&format!("fn {filter}")),
                "{page}: `{cmd}`: filter `{filter}` begins no `fn` name in {package}'s {} file(s)",
                test_files.len()
            );
            filters += 1;
        }
    }
    assert!(
        bins > 0 && examples > 0 && tests > 0 && filters > 0,
        "parsed {} commands: {bins} --bin, {examples} --example, {tests} --test, {filters} filters",
        commands.len()
    );
}
