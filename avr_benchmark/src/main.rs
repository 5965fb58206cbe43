//! The repository benchmark.
//!
//! ```text
//! avr_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! avr_benchmark --compare BEFORE.json... --against AFTER.json... [--spec BENCHMARK.json]
//! avr_benchmark --print-pins
//! ```
//!
//! Without `--workload` all three workloads run, one after another. Each
//! workload runs in a child process (a re-exec of this binary), so its
//! peak memory is its own and a child that dies only fails its own cells.
//! The last line of standard output is the one-line JSON result; the table
//! of metrics goes to standard error and the full report (spread,
//! provenance, trace detail) to `--out`, by default
//! `target/benchmark/<run|trace>-<workload>.json`. See `README.md`.

mod compare;
mod measure;
mod pins;
mod plan;
mod probe;
mod report;
mod stats;
mod timed_vm;
mod trace;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use avr_server::Json;

use plan::{WorkloadKind, DEFAULT_SEED};
use report::Report;

/// Default measuring budget per run, as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 38.0;
/// A child still running after this long is killed and fails its cells.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

struct Args {
    workload: Option<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    child: bool,
    print_pins: bool,
    compare: Option<(Vec<String>, Vec<String>)>,
    spec: String,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        child: false,
        print_pins: false,
        compare: None,
        spec: "BENCHMARK.json".to_string(),
    };
    fn value(it: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, &flag)?;
                a.workload = Some(WorkloadKind::from_name(&name).ok_or_else(|| {
                    let known: Vec<_> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                a.seed = value(&mut it, &flag)?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds =
                    value(&mut it, &flag)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value(&mut it, &flag)?)),
            "--spec" => a.spec = value(&mut it, &flag)?,
            "--child" => a.child = true,
            "--print-pins" => a.print_pins = true,
            "--compare" => {
                let mut before = Vec::new();
                let mut after = Vec::new();
                let mut side = &mut before;
                for arg in it.by_ref() {
                    match arg.as_str() {
                        "--against" => side = &mut after,
                        "--spec" => {
                            a.spec = value(&mut it, "--spec")?;
                            break;
                        }
                        _ => side.push(arg),
                    }
                }
                if before.is_empty() || after.is_empty() {
                    return Err("--compare needs files before and after --against".to_string());
                }
                a.compare = Some((before, after));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: avr_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                 [--out PATH]\n       avr_benchmark --compare BEFORE.json... --against \
                 AFTER.json... [--spec BENCHMARK.json]\n       avr_benchmark --print-pins"
            );
            return ExitCode::from(2);
        }
    };
    if let Some((before, after)) = &args.compare {
        return compare::run(&args.spec, before, after);
    }
    if args.print_pins {
        print!("{}", pins::render_pins());
        return ExitCode::SUCCESS;
    }
    if args.child {
        return child(&args);
    }
    parent(&args)
}

fn mode(args: &Args) -> &'static str {
    if args.trace {
        "trace"
    } else {
        "run"
    }
}

fn default_out(args: &Args, name: &str) -> PathBuf {
    Path::new("target").join("benchmark").join(format!("{}-{name}.json", mode(args)))
}

/// Run one workload in this process (the child side).
fn child(args: &Args) -> ExitCode {
    let Some(kind) = args.workload else {
        eprintln!("error: --child needs --workload");
        return ExitCode::from(2);
    };
    // `System::new` and the codec read `AVR_*` knobs from the ambient
    // environment; a run under any of them would not measure the defaults.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AVR_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("error: refusing to run with {} set; unset them first", knobs.join(", "));
        return ExitCode::from(3);
    }
    let report = if args.trace {
        trace::run(kind, args.seed)
    } else {
        measure::run(kind, args.seed, args.seconds)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", kind.name());
            return ExitCode::from(1);
        }
    };
    report.print_table();
    let out = args.out.clone().unwrap_or_else(|| default_out(args, kind.name()));
    if let Err(e) = write_json(&out, &report.to_json()) {
        eprintln!("error: writing {}: {e}", out.display());
        return ExitCode::from(1);
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

fn write_json(path: &Path, doc: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render() + "\n")
}

/// Re-exec this binary for one workload and return its result line.
fn run_child(args: &Args, kind: WorkloadKind, out: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", "--workload", kind.name()])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting the child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    match status {
        None => Err(format!("killed after {} s", CHILD_TIMEOUT.as_secs())),
        Some(s) if !s.success() => Err(format!("child {s}")),
        Some(_) => text
            .lines()
            .last()
            .filter(|l| Json::parse(l).is_ok())
            .map(str::to_string)
            .ok_or_else(|| "child printed no result".to_string()),
    }
}

/// Run one workload's child, leaving its report at `out`. `Ok` holds the
/// child's result line. When the child dies, runs out of time or prints no
/// result, every cell of the workload failed: that report is written to
/// `out` instead, and `Err` holds its result line.
fn run_workload(
    args: &Args,
    kind: WorkloadKind,
    out: &Path,
    child: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    // A report left by an earlier run must never stand in for this one.
    match std::fs::remove_file(out) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(dead_workload(args, kind, out, &format!("removing the old report: {e}")))
        }
        _ => {}
    }
    child().map_err(|e| dead_workload(args, kind, out, &e))
}

/// Write the all-failed report of a workload whose child died and return
/// its result line.
fn dead_workload(args: &Args, kind: WorkloadKind, out: &Path, reason: &str) -> String {
    eprintln!("error: {}: {reason}", kind.name());
    let report = Report::dead(kind, mode(args), args.seed, args.seconds, reason);
    if let Err(e) = write_json(out, &report.to_json()) {
        eprintln!("error: writing {}: {e}", out.display());
    }
    report.result_line()
}

fn parent(args: &Args) -> ExitCode {
    if let Some(kind) = args.workload {
        let out = args.out.clone().unwrap_or_else(|| default_out(args, kind.name()));
        return match run_workload(args, kind, &out, || run_child(args, kind, &out)) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(line) => {
                println!("{line}");
                ExitCode::from(1)
            }
        };
    }
    let mut reports = Vec::new();
    let mut lines = Vec::new();
    let mut all_ok = true;
    for kind in WorkloadKind::ALL {
        let out = default_out(args, kind.name());
        let line =
            run_workload(args, kind, &out, || run_child(args, kind, &out)).unwrap_or_else(|l| l);
        let result = Json::parse(&line).expect("result lines are JSON");
        all_ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
        if let Some(report) =
            std::fs::read_to_string(&out).ok().and_then(|t| Json::parse(t.trim()).ok())
        {
            reports.push(report);
        }
        lines.push((kind.name(), result));
    }
    let out = args.out.clone().unwrap_or_else(|| {
        Path::new("target").join("benchmark").join(format!("{}.json", mode(args)))
    });
    if let Err(e) = write_json(&out, &Json::obj([("workloads", Json::Arr(reports))])) {
        eprintln!("error: writing {}: {e}", out.display());
        all_ok = false;
    }
    eprintln!("report: {}", out.display());
    println!(
        "{}",
        Json::obj([("correct", Json::from(all_ok)), ("workloads", Json::obj(lines))]).render()
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            args(&["--workload", "dedup-memo", "--seed", "7", "--seconds", "25", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload, Some(WorkloadKind::DedupMemo));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 25.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
    }

    #[test]
    fn parses_compare_sets() {
        let a =
            args(&["--compare", "a.json", "b.json", "--against", "c.json", "--spec", "x"]).unwrap();
        let (before, after) = a.compare.unwrap();
        assert_eq!((before.len(), after.len(), a.spec.as_str()), (2, 1, "x"));
        assert!(args(&["--compare", "a.json"]).is_err());
    }

    /// A child that dies leaves a report in which all of its cells failed,
    /// in place of whatever an earlier run left at the same path.
    #[test]
    fn a_dead_child_fails_every_cell_and_replaces_an_old_report() {
        let a = args(&["--workload", "dedup-memo", "--seed", "3"]).unwrap();
        let kind = WorkloadKind::DedupMemo;
        let cells = kind.cells().len() as u64;
        let dir = Path::new("target").join("unit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("dead-child.json");
        let stale = r#"{"workload":"dedup-memo","attempted":600,"failed":0,
            "metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#;
        std::fs::write(&out, stale).unwrap();

        let line = run_workload(&a, kind, &out, || Err("child exit status: 101".into()))
            .expect_err("a dead child is a failed workload");
        let result = Json::parse(&line).unwrap();
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(result.get("attempted").and_then(Json::as_u64), Some(cells));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(cells));

        let report = compare::parse_report(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!((report[0].attempted, report[0].failed), (cells, cells));
        assert!(report[0].metrics.is_empty(), "the old report's numbers must be gone");

        // A child that succeeds starts from no report either.
        std::fs::write(&out, stale).unwrap();
        let line = run_workload(&a, kind, &out, || Ok("{}".into())).unwrap();
        assert_eq!(line, "{}");
        assert!(!out.exists(), "the old report must not outlive a new run");
    }

    /// The benchmark is built as a package of its own; its release profile
    /// must stay the workspace's, so it times the code users build.
    #[test]
    fn release_profile_matches_the_workspace() {
        let profile = |toml: &str| -> Vec<String> {
            toml.lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let ours = profile(include_str!("../Cargo.toml"));
        assert!(!ours.is_empty(), "no [profile.release] in the benchmark's manifest");
        assert_eq!(ours, profile(include_str!("../../Cargo.toml")));
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// binary reports.
    #[test]
    fn benchmark_file_matches_the_binary() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let fields = |key: &str| -> Vec<[String; 3]> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    [s("name"), s("unit"), s("better")]
                })
                .collect()
        };
        let workloads: Vec<String> = fields("workloads").into_iter().map(|[w, ..]| w).collect();
        let expected: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, expected);
        let e2e: Vec<[String; 2]> =
            fields("end_to_end").into_iter().map(|[n, u, _]| [n, u]).collect();
        assert_eq!(e2e, report::END_TO_END.map(|(n, u)| [n.to_string(), u.to_string()]));
        assert_eq!(
            fields("per_layer"),
            trace::PER_LAYER.map(|(n, u, b)| [n.to_string(), u.to_string(), b.to_string()])
        );
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert_eq!(seconds as f64, DEFAULT_SECONDS);
    }
}
