//! CLI: `cargo run -p klint -- --workspace [--baseline <path>]
//! [--write-baseline] [--root <dir>]`.
//!
//! Exit status 0 when no violations beyond the baseline, 1 when new
//! violations exist, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use klint::{Baseline, Violation};

struct Args {
    root: PathBuf,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

const USAGE: &str =
    "usage: klint --workspace [--root <dir>] [--baseline <path>] [--write-baseline]";

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut baseline = None;
    let mut write_baseline = false;
    let mut workspace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => {
                root = argv
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--root needs a value")?;
            }
            "--baseline" => {
                baseline = Some(
                    argv.next()
                        .map(PathBuf::from)
                        .ok_or("--baseline needs a value")?,
                );
            }
            "--write-baseline" => write_baseline = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return Err("missing --workspace (the only supported mode)".to_string());
    }
    Ok(Args {
        root,
        baseline,
        write_baseline,
    })
}

fn print_violation(v: &Violation) {
    println!(
        "{}:{}: [{}] {} ({})",
        v.path,
        v.line,
        v.rule.name(),
        v.message,
        v.snippet
    );
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let violations = klint::check_workspace(&args.root).map_err(|e| e.to_string())?;

    let baseline_path = args
        .baseline
        .unwrap_or_else(|| args.root.join("klint.baseline"));

    if args.write_baseline {
        let text = Baseline::from_violations(&violations).serialize();
        std::fs::write(&baseline_path, text)
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        println!(
            "klint: wrote baseline {} ({} violations frozen)",
            baseline_path.display(),
            violations.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text).map_err(|e| e.to_string())?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("{}: {e}", baseline_path.display())),
    };

    let (new, frozen) = baseline.split(&violations);
    for v in &new {
        print_violation(v);
    }
    let fixed = baseline.total() - frozen.len();
    println!(
        "klint: {} violation(s): {} new, {} frozen by baseline ({} baseline entr{} fixed)",
        violations.len(),
        new.len(),
        frozen.len(),
        fixed,
        if fixed == 1 { "y" } else { "ies" },
    );
    if new.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("klint: fix the new violations above, add `// klint: allow(<rule>)` with justification, or refresh the baseline");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("klint: {msg}");
            ExitCode::from(2)
        }
    }
}
