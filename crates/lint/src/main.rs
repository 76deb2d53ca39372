//! `stiglint` CLI.
//!
//! ```text
//! stiglint --workspace [--root DIR] [--json] [--deny]
//! stiglint --graph-stats [--root DIR]
//! stiglint [--json] [--deny] FILE...
//! ```
//!
//! `--workspace` applies the configured policy; the file form runs
//! every pass on the given files with panic budget 0 (fixture mode).
//! `--graph-stats` prints call-graph resolution counters as JSON and
//! exits 1 if the union-edge count exceeds the committed ceiling.
//! `--deny` exits 1 when violations exist (CI wants this); without it
//! the report prints but the exit code stays 0. Usage errors exit 2.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    json: bool,
    deny: bool,
    graph_stats: bool,
    files: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workspace: false,
        root: None,
        json: false,
        deny: false,
        graph_stats: false,
        files: Vec::new(),
    };
    let mut i = 0usize;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workspace" => a.workspace = true,
            "--json" => a.json = true,
            "--deny" => a.deny = true,
            "--graph-stats" => a.graph_stats = true,
            "--root" => {
                i += 1;
                let dir = argv.get(i).ok_or("--root requires a directory")?;
                a.root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => return Err(String::new()),
            f if f.starts_with('-') => return Err(format!("unknown flag `{f}`")),
            f => a.files.push(f.to_string()),
        }
        i += 1;
    }
    if a.workspace && !a.files.is_empty() {
        return Err("--workspace and explicit files are mutually exclusive".to_string());
    }
    if !a.workspace && a.files.is_empty() && !a.graph_stats {
        return Err("nothing to lint: pass --workspace or one or more files".to_string());
    }
    if a.root.is_some() && !a.workspace && !a.graph_stats {
        return Err("--root only applies with --workspace or --graph-stats".to_string());
    }
    if a.graph_stats && !a.files.is_empty() {
        return Err("--graph-stats reads the workspace, not explicit files".to_string());
    }
    Ok(a)
}

const USAGE: &str = "usage: stiglint --workspace [--root DIR] [--json] [--deny]\n       stiglint --graph-stats [--root DIR]\n       stiglint [--json] [--deny] FILE...";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if e.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("stiglint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.graph_stats {
        return run_graph_stats(args.root);
    }

    let result = if args.workspace {
        let Some(root) = resolve_root(args.root) else {
            return ExitCode::from(2);
        };
        lint::run_workspace(&root)
    } else {
        lint::run_paths(&args.files)
    };

    let violations = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("stiglint: io error: {e}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        print!("{}", lint::report::json(&violations));
    } else {
        print!("{}", lint::report::human(&violations));
    }
    if args.deny && !violations.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn resolve_root(root: Option<PathBuf>) -> Option<PathBuf> {
    let found = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| lint::find_workspace_root(&d))
    });
    if found.is_none() {
        eprintln!(
            "stiglint: no workspace root found (no Cargo.toml with [workspace] above cwd; use --root)"
        );
    }
    found
}

/// `--graph-stats`: print resolution-quality counters as JSON and fail
/// (exit 1) if the union-edge count regresses above the committed
/// ceiling — call-graph precision is ratcheted like any other budget.
fn run_graph_stats(root: Option<PathBuf>) -> ExitCode {
    let Some(root) = resolve_root(root) else {
        return ExitCode::from(2);
    };
    let idx = match lint::build_workspace_index(&root) {
        Ok(idx) => idx,
        Err(e) => {
            eprintln!("stiglint: io error: {e}");
            return ExitCode::from(2);
        }
    };
    let stats = idx.graph.stats;
    print!(
        "{}",
        lint::report::graph_stats_json(&stats, lint::config::MAX_UNION_EDGES)
    );
    if stats.union_edges > lint::config::MAX_UNION_EDGES {
        eprintln!(
            "stiglint: {} union edges exceed the committed ceiling {}; \
             improve receiver inference or justify raising MAX_UNION_EDGES",
            stats.union_edges,
            lint::config::MAX_UNION_EDGES
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn args(v: &[&str]) -> Result<super::Args, String> {
        parse_args(&v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn workspace_mode_parses() {
        let a = args(&["--workspace", "--deny", "--json"]).unwrap();
        assert!(a.workspace && a.deny && a.json);
        assert!(a.files.is_empty());
    }

    #[test]
    fn file_mode_parses() {
        let a = args(&["--deny", "a.rs", "b.rs"]).unwrap();
        assert!(!a.workspace);
        assert_eq!(a.files, vec!["a.rs", "b.rs"]);
    }

    #[test]
    fn root_requires_workspace() {
        assert!(args(&["--root", "x", "a.rs"]).is_err());
        assert!(args(&["--workspace", "--root"]).is_err());
    }

    #[test]
    fn degenerate_forms_rejected() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workspace", "a.rs"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn graph_stats_parses_alone_but_not_with_files() {
        let a = args(&["--graph-stats"]).unwrap();
        assert!(a.graph_stats);
        assert!(args(&["--graph-stats", "--root", "x"]).is_ok());
        assert!(args(&["--graph-stats", "a.rs"]).is_err());
    }
}
