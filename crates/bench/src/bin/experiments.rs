//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--scale F] [--json PATH] [fig3 fig4 fig17 fig18 fig19 fig20
//!              fig21 fig22 fig23 table4 table5 area fab trace | all]
//! ```
//!
//! `--scale F` shrinks every kernel dimension by `F` (default 1.0 = the
//! paper's full problem sizes). `--json PATH` additionally writes the
//! selected figures' structured data (one key per figure, the same values
//! the printed tables show) for downstream tooling — each figure is
//! computed once and both outputs are derived from it. `trace`
//! additionally writes `trace.json` (Chrome trace-event format; load at
//! <https://ui.perfetto.dev>) next to the printed utilization report.

use pim_bench::figures::{self, Scale};
use pim_bench::render;
use pim_bench::trace;
use serde::Serialize;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::full();
    let mut json_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f <= 1.0 => scale = Scale(f),
                _ => {
                    eprintln!("--scale needs a factor in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match it.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json needs an output path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--scale F] [--json PATH] [fig3 fig4 fig17 fig18 \
                     fig19 fig20 fig21 fig22 fig23 table4 table5 area fab trace | all]\n\
                     `--json PATH` writes the structured per-figure data alongside the \
                     printed tables.\n\
                     `trace` writes trace.json (Perfetto) and prints the utilization \
                     report; it is not part of `all`."
                );
                return ExitCode::SUCCESS;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = [
            "fig3", "fig4", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
            "table4", "table5", "area", "fab",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    println!(
        "# StreamPIM experiment suite (scale {:.3}{})\n",
        scale.0,
        if (scale.0 - 1.0).abs() < 1e-12 {
            ", paper-size"
        } else {
            ""
        }
    );

    let want_json = json_path.is_some();
    let mut fragments: Vec<(String, String)> = Vec::new();
    for name in &wanted {
        match run_one(name, scale, want_json) {
            Ok((text, json)) => {
                println!("{text}");
                if let Some(j) = json {
                    fragments.push((name.clone(), j));
                }
            }
            Err(e) => {
                eprintln!("experiment {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = json_path {
        let body: Vec<String> = fragments
            .iter()
            .map(|(name, j)| format!("    \"{name}\": {j}"))
            .collect();
        let doc = format!(
            "{{\n  \"scale\": {},\n  \"figures\": {{\n{}\n  }}\n}}\n",
            scale.0,
            body.join(",\n")
        );
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("writing {path} failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote structured figures to {path}");
    }
    ExitCode::SUCCESS
}

/// Serializes a figure's structured data when `--json` asked for it.
fn maybe_json<T: Serialize>(want: bool, value: &T) -> Result<Option<String>, serde::Error> {
    if want {
        serde_json::to_string(value).map(Some)
    } else {
        Ok(None)
    }
}

#[allow(clippy::too_many_lines)]
fn run_one(
    name: &str,
    scale: Scale,
    json: bool,
) -> Result<(String, Option<String>), Box<dyn std::error::Error>> {
    Ok(match name {
        "fig3" => {
            let data = figures::fig3(scale);
            (render::fig3(&data), maybe_json(json, &data)?)
        }
        "fig4" => {
            let data = figures::fig4();
            (render::fig4(&data), maybe_json(json, &data)?)
        }
        "fig17" => {
            let data = figures::fig17(scale, None)?;
            (
                render::metric_table(
                    "Figure 17 — Speedup over CPU-RM (paper avgs: StPIM 39.1x, StPIM-e 12.7x, \
                     CORUSCANT 15.6x, FELIX 8.7x, ELP2IM 3.6x, CPU-DRAM 1.5x)",
                    "x",
                    &data,
                ),
                maybe_json(json, &data)?,
            )
        }
        "fig18" => {
            let data = figures::fig18(scale, None)?;
            (
                render::metric_table(
                    "Figure 18 — Energy normalized to StPIM (paper: CPU-DRAM 58.4x, \
                     CORUSCANT 2.8x, FELIX 3.5x, ELP2IM 11.7x, StPIM-e 1.6x)",
                    "x",
                    &data,
                ),
                maybe_json(json, &data)?,
            )
        }
        "fig19" => {
            let data = figures::fig19(scale)?;
            (
                render::breakdowns(
                    "Figure 19 — Execution-time breakdown (paper: CORUSCANT 81.8% exclusive \
                     transfer; StPIM < 1%)",
                    ["read", "write", "shift", "process", "overlapped"],
                    &data,
                ),
                maybe_json(json, &data)?,
            )
        }
        "fig20" => {
            let data = figures::fig20(scale)?;
            (
                render::breakdowns(
                    "Figure 20 — Energy breakdown (paper: CORUSCANT 86% transfer; StPIM ~30%)",
                    ["read", "write", "shift", "compute", "other"],
                    &data,
                ),
                maybe_json(json, &data)?,
            )
        }
        "fig21" => {
            let data = figures::fig21(scale, None)?;
            (render::fig21(&data), maybe_json(json, &data)?)
        }
        "fig22" => {
            let data = figures::fig22(scale, None)?;
            (render::fig22(&data), maybe_json(json, &data)?)
        }
        "fig23" => {
            let data = figures::fig23(None)?;
            (render::fig23(&data), maybe_json(json, &data)?)
        }
        "table4" => {
            let data = figures::table4();
            (render::table4(&data), maybe_json(json, &data)?)
        }
        "table5" => {
            let data = figures::table5(scale, None)?;
            (render::table5(&data), maybe_json(json, &data)?)
        }
        "area" => {
            let data = figures::area();
            (render::area(&data), maybe_json(json, &data)?)
        }
        "fab" => {
            let data = figures::fabrication();
            (render::fabrication(&data), maybe_json(json, &data)?)
        }
        "trace" => {
            // The full-size gemm schedule is too large for the event
            // engine's expanded timelines; cap the trace scale.
            let run = trace::trace_kernel(
                pim_workloads::polybench::Kernel::Gemm,
                Scale(scale.0.min(0.05)),
            )?;
            std::fs::write("trace.json", &run.json)?;
            (
                format!(
                    "## Trace — gemm utilization (wrote trace.json, {} spans; \
                     open at https://ui.perfetto.dev)\n\n{}\n\noverlap fraction: \
                     base {:.4}, unblock {:.4}",
                    run.spans, run.report, run.overlap_base, run.overlap_unblock
                ),
                None,
            )
        }
        other => return Err(format!("unknown experiment {other:?}").into()),
    })
}
