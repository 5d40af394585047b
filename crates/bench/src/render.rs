//! Markdown rendering of the experiment results.

use crate::figures::{BreakdownRow, Fig23Row, Fig3Row, Fig4Row, MetricTable, Table5Row};
use pim_device::area::AreaModel;
use pim_workloads::trace::TraceRow;
use std::fmt::Write;

/// Renders Figure 3 as a markdown table.
pub fn fig3(rows: &[Fig3Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Figure 3 — CPU/GPU execution-time breakdown\n");
    let _ = writeln!(
        s,
        "| kernel | group | CPU mem fraction | GPU transfer fraction |"
    );
    let _ = writeln!(s, "|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.1}% | {:.1}% |",
            r.kernel,
            if r.small { "small" } else { "large" },
            r.cpu_mem_fraction * 100.0,
            r.gpu_transfer_fraction * 100.0
        );
    }
    let small: Vec<&Fig3Row> = rows.iter().filter(|r| r.small).collect();
    let avg_cpu = small.iter().map(|r| r.cpu_mem_fraction).sum::<f64>() / small.len() as f64;
    let avg_gpu = small.iter().map(|r| r.gpu_transfer_fraction).sum::<f64>() / small.len() as f64;
    let _ = writeln!(
        s,
        "\nSmall-kernel averages: CPU mem {:.1}% (paper 47.6%), GPU transfer {:.1}% (paper 90.0%)",
        avg_cpu * 100.0,
        avg_gpu * 100.0
    );
    s
}

/// Renders Figure 4 as markdown.
pub fn fig4(rows: &[Fig4Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Figure 4 — CORUSCANT operation breakdown\n");
    let _ = writeln!(
        s,
        "| op | time: read/write/shift/compute | energy: read/write/shift/compute |"
    );
    let _ = writeln!(s, "|---|---|---|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {:.0}% / {:.0}% / {:.0}% / {:.0}% | {:.0}% / {:.0}% / {:.0}% / {:.0}% |",
            r.op,
            r.time_shares[0] * 100.0,
            r.time_shares[1] * 100.0,
            r.time_shares[2] * 100.0,
            r.time_shares[3] * 100.0,
            r.energy_shares[0] * 100.0,
            r.energy_shares[1] * 100.0,
            r.energy_shares[2] * 100.0,
            r.energy_shares[3] * 100.0,
        );
    }
    let _ = writeln!(
        s,
        "\nPaper: mul time write 51.0%, compute 30.1%; energy compute 29.1%."
    );
    s
}

/// Renders a [`MetricTable`] (Figures 17/18) as markdown.
pub fn metric_table(title: &str, unit: &str, t: &MetricTable) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### {title}\n");
    let _ = write!(s, "| kernel |");
    for p in &t.platforms {
        let _ = write!(s, " {p} |");
    }
    let _ = writeln!(s);
    let _ = write!(s, "|---|");
    for _ in &t.platforms {
        let _ = write!(s, "---|");
    }
    let _ = writeln!(s);
    for (kernel, values) in &t.rows {
        let _ = write!(s, "| {kernel} |");
        for v in values {
            let _ = write!(s, " {v:.2}{unit} |");
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "| **average** |");
    for v in &t.averages {
        let _ = write!(s, " **{v:.2}{unit}** |");
    }
    let _ = writeln!(s);
    s
}

/// Renders Figures 19/20 as markdown.
pub fn breakdowns(title: &str, labels: [&str; 5], rows: &[BreakdownRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### {title}\n");
    let _ = writeln!(
        s,
        "| kernel | platform | {} | {} | {} | {} | {} |",
        labels[0], labels[1], labels[2], labels[3], labels[4]
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
            r.kernel,
            r.platform,
            r.shares[0] * 100.0,
            r.shares[1] * 100.0,
            r.shares[2] * 100.0,
            r.shares[3] * 100.0,
            r.shares[4] * 100.0
        );
    }
    s
}

/// Renders Figure 21 as markdown.
pub fn fig21(rows: &[(u32, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Figure 21 — PIM subarray-count sensitivity\n");
    let _ = writeln!(s, "| subarrays | speedup vs 128 | paper |");
    let _ = writeln!(s, "|---|---|---|");
    let paper = [1.0, 1.74, 3.0, 3.2];
    for (i, (count, v)) in rows.iter().enumerate() {
        let _ = writeln!(s, "| {count} | {v:.2}x | {:.2}x |", paper[i]);
    }
    s
}

/// Renders Figure 22 as markdown.
pub fn fig22(rows: &[(&str, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Figure 22 — Optimization ablation\n");
    let _ = writeln!(s, "| optimization | speedup vs base | paper |");
    let _ = writeln!(s, "|---|---|---|");
    let paper = [1.0, 7.1, 199.7];
    for (i, (name, v)) in rows.iter().enumerate() {
        let _ = writeln!(s, "| {name} | {v:.1}x | {:.1}x |", paper[i]);
    }
    s
}

/// Renders Figure 23 as markdown.
pub fn fig23(rows: &[Fig23Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Figure 23 — DNN end-to-end speedup vs CPU-DRAM\n");
    let _ = writeln!(s, "| model | platform | speedup |");
    let _ = writeln!(s, "|---|---|---|");
    for r in rows {
        let _ = writeln!(s, "| {} | {} | {:.2}x |", r.model, r.platform, r.speedup);
    }
    let _ = writeln!(
        s,
        "\nPaper: MLP StPIM 54.77x (1.86x vs CORUSCANT); BERT 4.49x (1.97x)."
    );
    s
}

/// Renders Table IV as markdown.
pub fn table4(rows: &[TraceRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Table IV — VPC counts per kernel\n");
    let _ = writeln!(
        s,
        "| kernel | #PIM-VPC | paper | err | #move-VPC | paper | err |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.2e} | {:.1}% | {} | {:.2e} | {:.1}% |",
            r.kernel,
            r.measured_pim,
            r.paper_pim,
            r.pim_error() * 100.0,
            r.measured_moves,
            r.paper_moves,
            r.move_error() * 100.0
        );
    }
    s
}

/// Renders Table V as markdown.
pub fn table5(rows: &[Table5Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Table V — Bus segment-size sensitivity\n");
    let _ = writeln!(
        s,
        "| segment | time overhead | paper | energy delta | paper |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|");
    let paper_t = [2.33, 0.58, 0.29, 0.0];
    let paper_e = [-0.1, -0.05, -0.04, 0.0];
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "| {} | +{:.2}% | +{:.2}% | {:+.2}% | {:+.2}% |",
            r.segment, r.time_overhead_pct, paper_t[i], r.energy_delta_pct, paper_e[i]
        );
    }
    s
}

/// Renders the area model as markdown.
pub fn area(model: &AreaModel) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Section V-G — Area overheads\n");
    let _ = writeln!(s, "| component | fraction | paper |");
    let _ = writeln!(s, "|---|---|---|");
    let _ = writeln!(
        s,
        "| RM bus | {:.2}% | 1.8% |",
        model.bus_fraction() * 100.0
    );
    let _ = writeln!(
        s,
        "| RM processor | {:.2}% | 0.1% |",
        model.processor_fraction() * 100.0
    );
    let _ = writeln!(
        s,
        "| transfer tracks (of bank) | {:.2}% | 3.1% |",
        model.transfer_fraction_of_banks() * 100.0
    );
    let _ = writeln!(
        s,
        "| control logic | {:.2}% | ~1.0% |",
        model.control_fraction * 100.0
    );
    s
}

/// Renders the fabrication-process scaling as markdown.
pub fn fabrication(rows: &[(u32, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "### Section V-F — Per-gate energy vs fabrication node\n");
    let _ = writeln!(s, "| node (nm) | energy per gate (pJ) |");
    let _ = writeln!(s, "|---|---|");
    for (nm, pj) in rows {
        let _ = writeln!(s, "| {nm} | {pj:.6} |");
    }
    let _ = writeln!(s, "\nPaper anchors: 20 pJ at 1.0 um, 0.0008 pJ at 32 nm.");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{self, Scale};

    #[test]
    fn fig3_renders_all_kernels_and_the_summary() {
        let text = fig3(&figures::fig3(Scale::quick()));
        for kernel in [
            "2mm", "3mm", "gemm", "syrk", "syr2k", "atax", "bicg", "gesu", "mvt",
        ] {
            assert!(text.contains(kernel), "missing {kernel}");
        }
        assert!(text.contains("paper 47.6%"));
    }

    #[test]
    fn fig4_renders_shares_as_percentages() {
        let text = fig4(&figures::fig4());
        assert!(text.contains("| mul |"));
        assert!(text.contains('%'));
    }

    #[test]
    fn metric_table_renders_average_row() {
        let t = figures::fig17(Scale(0.05), None).unwrap();
        let text = metric_table("t", "x", &t);
        assert!(text.contains("**average**"));
        assert!(text.contains("StPIM"));
    }

    #[test]
    fn static_sections_render() {
        assert!(area(&figures::area()).contains("RM bus"));
        let fab_text = fabrication(&figures::fabrication());
        assert!(fab_text.contains("32"));
        assert!(fab_text.contains("0.000800"));
    }

    #[test]
    fn table4_renders_errors() {
        let text = table4(&figures::table4());
        assert!(text.contains("gemm"));
        assert!(text.contains('%'));
    }
}
