//! Doc lint: the prose in `docs/` and `README.md` references real code.
//!
//! Documentation rots in two ways: a backticked file path outlives the file
//! it names, or a backticked `msplit_x::ident` outlives the identifier.
//! Both are cheap to catch mechanically, so CI fails on either — see the
//! doc-lint step of the `distributed-smoke` lane.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every markdown page the lint covers: `README.md` plus all of `docs/`.
fn doc_pages() -> Vec<PathBuf> {
    let root = repo_root();
    let mut pages = vec![root.join("README.md")];
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ directory exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    assert!(!docs.is_empty(), "docs/ contains no markdown pages");
    pages.extend(docs);
    pages
}

/// Inline code spans of a markdown page.  Splitting on backticks makes the
/// odd-numbered fragments the spans; fenced blocks come out as multi-line
/// fragments, which the per-check filters below reject anyway.
fn code_spans(text: &str) -> Vec<String> {
    text.split('`')
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, s)| s.to_string())
        .collect()
}

/// Whether a code span claims to be a repo-relative file path (as opposed to
/// a bare file name like `job.cfg`, a placeholder like `ckpt_r<rank>...`, or
/// a code fragment).
fn looks_like_repo_path(span: &str) -> bool {
    const EXTENSIONS: [&str; 8] = [
        ".rs", ".md", ".toml", ".yml", ".yaml", ".cfg", ".sh", ".json",
    ];
    span.contains('/')
        && !span.starts_with('/')
        && !span.contains("://")
        && !span.contains(char::is_whitespace)
        && !span.contains(['<', '(', '*'])
        && EXTENSIONS.iter().any(|e| span.ends_with(e))
}

#[test]
fn referenced_paths_exist() {
    let root = repo_root();
    let mut broken = Vec::new();
    for page in doc_pages() {
        let text = std::fs::read_to_string(&page).unwrap();
        for span in code_spans(&text) {
            if looks_like_repo_path(&span) && !root.join(&span).exists() {
                broken.push(format!("{}: `{span}`", page.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "documentation references missing files:\n{}",
        broken.join("\n")
    );
}

/// All `.rs` files under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `needle` appears in `haystack` delimited by non-identifier characters.
fn contains_ident(haystack: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    haystack.match_indices(needle).any(|(at, _)| {
        let before_ok = !haystack[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !haystack[at + needle.len()..]
            .chars()
            .next()
            .is_some_and(is_ident);
        before_ok && after_ok
    })
}

#[test]
fn crate_qualified_identifiers_exist() {
    let root = repo_root();
    let mut broken = Vec::new();
    for page in doc_pages() {
        let text = std::fs::read_to_string(&page).unwrap();
        for span in code_spans(&text) {
            // A reference like `msplit_core::runtime::FailurePolicy` (or a
            // fn path, possibly with a trailing call or type suffix).
            let Some(rest) = span.strip_prefix("msplit_") else {
                continue;
            };
            let Some((crate_name, path)) = rest.split_once("::") else {
                continue;
            };
            if !crate_name.chars().all(|c| c.is_ascii_lowercase()) {
                continue;
            }
            let src = root.join("crates").join(crate_name).join("src");
            if !src.is_dir() {
                broken.push(format!(
                    "{}: `{span}` names unknown crate msplit-{crate_name}",
                    page.display()
                ));
                continue;
            }
            let leaf: String = path
                .rsplit("::")
                .next()
                .unwrap()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if leaf.is_empty() {
                continue;
            }
            let mut sources = Vec::new();
            rust_sources(&src, &mut sources);
            let found = sources
                .iter()
                .any(|file| contains_ident(&std::fs::read_to_string(file).unwrap(), &leaf));
            if !found {
                broken.push(format!(
                    "{}: `{span}` — `{leaf}` not found under {}",
                    page.display(),
                    src.display()
                ));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "documentation references missing identifiers:\n{}",
        broken.join("\n")
    );
}

#[test]
fn ops_docs_cover_the_fault_tolerance_surface() {
    // The two ops pages must keep describing the knobs the code exposes;
    // renaming a policy or a config key without updating the docs fails here.
    let docs = repo_root().join("docs");
    let ft = std::fs::read_to_string(docs.join("fault-tolerance.md")).unwrap();
    for required in [
        "HaltOnDeath",
        "Redistribute",
        "checkpoint_every",
        "--resume-at",
        "MSPLIT_DIE_AT",
        "max_common_iteration",
        "relative_speeds",
    ] {
        assert!(
            ft.contains(required),
            "docs/fault-tolerance.md no longer mentions {required}"
        );
    }
    // Removed features stay out of the docs, except in the README's
    // migration notes, which name what went away.
    for page in doc_pages() {
        let text = std::fs::read_to_string(&page).unwrap();
        let described = text
            .split("\n\n")
            .filter(|para| !para.starts_with("**Migration note.**"))
            .collect::<Vec<_>>()
            .join("\n\n");
        for removed in [
            "FailFast",
            "RebalanceConfig",
            "SpeedReport",
            "SpeedDrift",
            "speeds_from_step_times",
        ] {
            assert!(
                !contains_ident(&described, removed),
                "{} still describes the removed {removed}",
                page.display()
            );
        }
    }
    let fmt = std::fs::read_to_string(docs.join("checkpoint-format.md")).unwrap();
    for required in ["MSPLTCKP", "FNV-1a", "little-endian", "KEEP_CHECKPOINTS"] {
        assert!(
            fmt.contains(required),
            "docs/checkpoint-format.md no longer mentions {required}"
        );
    }
}

#[test]
fn performance_docs_cover_the_sparse_solve_surface() {
    // The performance page must keep describing the solve machinery the
    // code exposes; renaming a switch, a counter, or a benchmark row
    // without updating the docs fails here.
    let doc = std::fs::read_to_string(repo_root().join("docs").join("performance.md")).unwrap();
    for required in [
        "set_incremental",
        "sparse_fastpath_hits",
        "dense_fallbacks",
        "mean_reach_ppm",
        "## Unchanged-halo SKIP",
        "skip_engages_when_a_round_delivers_nothing",
        "PrunedReach",
        "factorize_reference",
        "symbolic_edges",
        "sparse_lu_factorize",
        "NonFinite",
        "bitwise",
        "## In-process lockstep on the pool",
        "pooled_sync_end_to_end",
        "threaded_sync_adapter_end_to_end",
    ] {
        assert!(
            doc.contains(required),
            "docs/performance.md no longer mentions {required}"
        );
    }
    // The reach-limited delta solve and its knob are deleted; the page may
    // not describe them as if they were there.  The names are spelled in
    // pieces so that a search of the sources for them finds none.
    for removed in [
        concat!("solve_", "delta_into"),
        concat!("reach_", "threshold"),
        concat!("Solve", "Reach"),
    ] {
        assert!(
            !doc.contains(removed),
            "docs/performance.md still mentions the removed {removed}"
        );
    }
    // The README's Performance section must keep pointing at the page.
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    assert!(
        readme.contains("docs/performance.md"),
        "README.md no longer links docs/performance.md"
    );
}

#[test]
fn scaling_docs_cover_the_convergence_surface() {
    // The scaling page must keep describing the two detection protocols
    // and the fan-in constant the code exposes; renaming a policy, a wire
    // frame, or the CI marker without updating the docs fails here.
    let doc = std::fs::read_to_string(repo_root().join("docs").join("scaling.md")).unwrap();
    for required in [
        "TreeVotes",
        "ConfirmationWaves",
        "VoteAggregate",
        "VOTE_TREE_ARITY",
        "mode_policies",
        "simulate_ranks",
        "bitwise",
        "SCALE_SIM_OK",
    ] {
        assert!(
            doc.contains(required),
            "docs/scaling.md no longer mentions {required}"
        );
    }
    // The simulator drives the production rank loop, so the page must not
    // describe a separate copy of the lockstep or free-running loop.
    for removed in ["mirror", "visit_lockstep", "visit_free_running"] {
        assert!(
            !doc.contains(removed),
            "docs/scaling.md mentions {removed}, but the simulator runs no copy of the rank loop"
        );
    }
    // The README must keep pointing at the page.
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    assert!(
        readme.contains("docs/scaling.md"),
        "README.md no longer links docs/scaling.md"
    );
}

/// No source file may grow past 1,500 lines: the 3,966-line `runtime.rs`
/// this guards against took a dedicated PR to split.  Walks the `*.rs` files
/// under `crates/`, `src/`, `tests/` and `examples/` (so not `vendor/`),
/// skipping build output and the fenced benchmark package, which only
/// benchmark PRs may edit.
#[test]
fn no_rust_source_over_1500_lines() {
    const LIMIT: usize = 1500;
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let fenced = root.join("crates/bench/src/bin/benchmark");
    let too_long: Vec<String> = sources
        .iter()
        .filter(|p| !p.starts_with(&fenced))
        .filter(|p| !p.components().any(|c| c.as_os_str() == "target"))
        .filter_map(|p| {
            let lines = std::fs::read_to_string(p).unwrap().lines().count();
            (lines > LIMIT).then(|| format!("{}: {lines} lines", p.display()))
        })
        .collect();
    assert!(
        too_long.is_empty(),
        "source files over {LIMIT} lines — split them:\n{}",
        too_long.join("\n")
    );
}

#[test]
fn krylov_docs_cover_the_method_surface() {
    // The Krylov page must keep describing the method surface the code
    // exposes; renaming a variant, a knob, a workspace type, or the gate
    // constant without updating the docs fails here.
    let doc = std::fs::read_to_string(repo_root().join("docs").join("krylov.md")).unwrap();
    for required in [
        "Stationary",
        "Richardson",
        "Fgmres",
        "restart",
        "inner_sweeps",
        "Preconditioner",
        "SweepPreconditioner",
        "FgmresWorkspace",
        "StopReason",
        "convection_diffusion",
        "bitwise",
        "MIN_FGMRES_ITERATION_ADVANTAGE",
    ] {
        assert!(
            doc.contains(required),
            "docs/krylov.md no longer mentions {required}"
        );
    }
    // The README's method-selection section must keep pointing at the page.
    let readme = std::fs::read_to_string(repo_root().join("README.md")).unwrap();
    assert!(
        readme.contains("docs/krylov.md"),
        "README.md no longer links docs/krylov.md"
    );
}

#[test]
fn serving_docs_cover_the_fleet_surface() {
    // The serving page must keep describing the protocol and knobs the serve
    // crate exposes; renaming a frame, a rejection code, or a server flag
    // without updating the docs fails here.
    let doc = std::fs::read_to_string(repo_root().join("docs").join("serving.md")).unwrap();
    for required in [
        "SubmitSolve",
        "SolveResult",
        "RejectCode",
        "world_size == 0",
        "lane_limits",
        "one request, one engine job",
        "bitwise",
        "--lane-limits",
        "SERVE_SMOKE_OK",
    ] {
        assert!(
            doc.contains(required),
            "docs/serving.md no longer mentions {required}"
        );
    }
    // The fixed coalescing window, the group path's batch cap and their
    // flags are gone; the page must not describe them.  The cap's names are
    // spelled in pieces, so a search of the tree for them finds nothing.
    for removed in [
        "coalesce_window",
        "--window-ms",
        concat!("max", "_batch"),
        concat!("--max", "-batch"),
    ] {
        assert!(
            !doc.contains(removed),
            "docs/serving.md still mentions the removed {removed}"
        );
    }
}
