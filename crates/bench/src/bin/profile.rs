//! Per-component profiles of simulated runs, and diffs between them.
//!
//! ```text
//! profile run <kernel> [--platform NAME] [--scale F] [--top N]
//!             [--out PATH] [--folded PATH]
//! profile diff <a.json> <b.json> [--tolerance PCT]
//! ```
//!
//! `run` prices one polybench kernel with an [`pim_profile::AttributionProbe`]
//! attached and prints the top-N hotspot components; `--out` writes the full
//! profile as JSON (the input format of `diff`), `--folded` writes
//! inferno/speedscope-compatible folded stacks (`inferno-flamegraph <
//! profile.folded > flame.svg`). `diff` compares two profile JSONs
//! per-component and exits non-zero when any component's busy time or
//! energy moved by more than the tolerance (default 0: bit-equal runs
//! only), or when operation counts differ at all.

use pim_baselines::platform::{Platform, PlatformKind, Workload};
use pim_bench::figures::Scale;
use pim_profile::{diff, AttributionProbe, Profile};
use pim_workloads::polybench::Kernel;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("diff") => run_diff(&args[1..]),
        Some("--help" | "-h") | None => {
            println!(
                "usage:\n  profile run <kernel> [--platform NAME] [--scale F] [--top N] \
                 [--out PATH] [--folded PATH]\n  profile diff <a.json> <b.json> \
                 [--tolerance PCT]\n\
                 kernels: {}\nplatforms: {}",
                Kernel::ALL
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(" "),
                PlatformKind::FIGURE_17
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?} (see --help)");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut kernel: Option<Kernel> = None;
    let mut platform = PlatformKind::StPim;
    let mut scale = 0.05f64;
    let mut top = 10usize;
    let mut out: Option<String> = None;
    let mut folded: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--platform" => {
                let Some(name) = it.next() else {
                    eprintln!("--platform needs a name");
                    return ExitCode::FAILURE;
                };
                match PlatformKind::FIGURE_17.iter().find(|k| k.name() == name) {
                    Some(k) => platform = *k,
                    None => {
                        eprintln!("unknown platform {name:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--scale" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f <= 1.0 => scale = f,
                _ => {
                    eprintln!("--scale needs a factor in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            "--top" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => top = n,
                _ => {
                    eprintln!("--top needs a positive count");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--folded" => match it.next() {
                Some(p) => folded = Some(p.clone()),
                None => {
                    eprintln!("--folded needs a path");
                    return ExitCode::FAILURE;
                }
            },
            name => match Kernel::ALL.iter().find(|k| k.name() == name) {
                Some(k) => kernel = Some(*k),
                None => {
                    eprintln!("unknown kernel {name:?} (see --help)");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let Some(kernel) = kernel else {
        eprintln!("profile run needs a kernel name (see --help)");
        return ExitCode::FAILURE;
    };

    let workload = Workload::from_kernel(&Scale(scale).instance(kernel));
    let p = match Platform::new(platform) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("building {platform} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let probe = AttributionProbe::new();
    let report = match p.run_instrumented(&workload, None, &pim_trace::NullSink, &probe) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pricing {} on {platform} failed: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let label = format!("{} {} scale {scale}", platform.name(), workload.name);
    let profile = Profile::from_tree(&label, &probe.into_tree());

    println!(
        "# {label}: {:.1} us, {:.1} nJ\n",
        report.total_ns() / 1e3,
        report.total_pj() / 1e3
    );
    print!("{}", profile.hotspots(top));
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, profile.to_json()) {
            eprintln!("writing {path} failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote profile JSON to {path}");
    }
    if let Some(path) = folded {
        if let Err(e) = std::fs::write(&path, profile.folded()) {
            eprintln!("writing {path} failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote folded stacks to {path}");
    }
    ExitCode::SUCCESS
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut tolerance = 0.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a non-negative percent");
                    return ExitCode::FAILURE;
                }
            },
            _ => paths.push(arg),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        eprintln!("profile diff needs exactly two profile JSON paths");
        return ExitCode::FAILURE;
    };
    let load = |path: &String| -> Result<Profile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Profile::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let d = diff(&a, &b);
    print!("{}", d.render());
    if d.exceeds(tolerance) {
        eprintln!(
            "\nprofile diff: drift exceeds {tolerance}% (max component drift {:.3}%)",
            d.max_abs_pct()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "\nprofile diff: within {tolerance}% (max component drift {:.3}%)",
            d.max_abs_pct()
        );
        ExitCode::SUCCESS
    }
}
