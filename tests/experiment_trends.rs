//! Integration tests over the experiment harness: every reproduced figure
//! keeps its paper trend. Runs at a reduced scale where possible; the
//! assertions target *shapes*, the full-size numbers live in EXPERIMENTS.md.

use pim_bench::figures::{self, Scale};

#[test]
fn fig3_small_kernels_are_memory_and_transfer_bound() {
    let rows = figures::fig3(Scale::full());
    assert_eq!(rows.len(), 9);
    for r in &rows {
        if r.small {
            assert!(
                r.cpu_mem_fraction > 0.35,
                "{}: CPU mem {}",
                r.kernel,
                r.cpu_mem_fraction
            );
            assert!(
                r.gpu_transfer_fraction > 0.8,
                "{}: GPU {}",
                r.kernel,
                r.gpu_transfer_fraction
            );
        } else {
            assert!(
                r.cpu_mem_fraction < 0.3,
                "{}: CPU mem {}",
                r.kernel,
                r.cpu_mem_fraction
            );
            assert!(
                r.gpu_transfer_fraction < 0.5,
                "{}: GPU {}",
                r.kernel,
                r.gpu_transfer_fraction
            );
        }
    }
}

#[test]
fn fig4_write_dominates_and_compute_is_a_third() {
    let rows = figures::fig4();
    let mul = rows.iter().find(|r| r.op == "mul").expect("mul row");
    // Paper: write 51.0% of time, compute 30.1%; energy compute 29.1%.
    assert!(
        (0.45..0.58).contains(&mul.time_shares[1]),
        "write {}",
        mul.time_shares[1]
    );
    assert!(
        (0.24..0.36).contains(&mul.time_shares[3]),
        "compute {}",
        mul.time_shares[3]
    );
    assert!(
        (0.23..0.35).contains(&mul.energy_shares[3]),
        "energy compute {}",
        mul.energy_shares[3]
    );
}

#[test]
fn fig17_average_speedups_near_paper() {
    // Full size: this is the headline result.
    let t = figures::fig17(Scale::full(), None).expect("fig17 runs");
    let close = |name: &str, paper: f64, tol: f64| {
        let got = t.average_of(name);
        assert!(
            (got - paper).abs() / paper < tol,
            "{name}: measured {got:.2} vs paper {paper} (tol {tol})"
        );
    };
    close("StPIM", 39.1, 0.20);
    close("StPIM-e", 12.7, 0.25);
    close("CORUSCANT", 15.6, 0.25);
    close("FELIX", 8.7, 0.25);
    close("ELP2IM", 3.6, 0.25);
    close("CPU-DRAM", 1.5, 0.25);
}

#[test]
fn fig18_energy_ordering() {
    let t = figures::fig18(Scale::full(), None).expect("fig18 runs");
    let v = |n: &str| t.average_of(n);
    assert!(v("CPU-DRAM") > v("ELP2IM"));
    assert!(v("ELP2IM") > v("FELIX"));
    assert!(v("FELIX") > v("CORUSCANT"));
    assert!(v("CORUSCANT") > 1.0);
    assert!(v("StPIM-e") > 1.0);
    assert!((v("StPIM") - 1.0).abs() < 1e-9, "normalized to StPIM");
    // Headline: ~58x vs CPU-DRAM (we allow 25%).
    assert!(
        (v("CPU-DRAM") - 58.4).abs() / 58.4 < 0.25,
        "CPU-DRAM {}",
        v("CPU-DRAM")
    );
}

#[test]
fn fig21_scaling_saturates() {
    let rows = figures::fig21(Scale(0.5), None).expect("fig21 runs");
    assert_eq!(rows.len(), 4);
    assert!((rows[0].1 - 1.0).abs() < 1e-9);
    assert!(rows[1].1 > rows[0].1, "256 beats 128");
    assert!(rows[2].1 > rows[1].1, "512 beats 256");
    // Saturation: the last doubling gains less than the previous one.
    let gain_512 = rows[2].1 / rows[1].1;
    let gain_1024 = rows[3].1 / rows[2].1;
    assert!(gain_1024 < gain_512, "saturating: {rows:?}");
}

#[test]
fn fig22_optimizations_multiply() {
    let rows = figures::fig22(Scale(0.5), None).expect("fig22 runs");
    let get = |name: &str| rows.iter().find(|(n, _)| *n == name).unwrap().1;
    assert!((get("base") - 1.0).abs() < 1e-9);
    assert!(get("distribute") > 3.0, "distribute {}", get("distribute"));
    assert!(
        get("unblock") > 10.0 * get("distribute"),
        "unblock {}",
        get("unblock")
    );
}

#[test]
fn fig23_dnn_trends() {
    let rows = figures::fig23(None).expect("fig23 runs");
    let get = |model: &str, platform: &str| {
        rows.iter()
            .find(|r| r.model == model && r.platform == platform)
            .unwrap_or_else(|| panic!("{model}/{platform} present"))
            .speedup
    };
    // MLP gains are an order of magnitude beyond BERT's (Amdahl on the
    // non-offloadable share).
    assert!(get("MLP", "StPIM") > 20.0);
    assert!(get("BERT", "StPIM") > 3.0 && get("BERT", "StPIM") < 6.0);
    assert!(get("MLP", "StPIM") > 5.0 * get("BERT", "StPIM"));
    assert!(get("BERT", "CPU-DRAM") == 1.0);
}

#[test]
fn table4_counts_within_tolerance() {
    for row in figures::table4() {
        assert!(
            row.pim_error() < 0.10,
            "{}: {}",
            row.kernel,
            row.pim_error()
        );
        assert!(
            row.move_error() < 0.15,
            "{}: {}",
            row.kernel,
            row.move_error()
        );
    }
}

#[test]
fn table5_overheads_small_and_monotone() {
    let rows = figures::table5(Scale(0.5), None).expect("table5 runs");
    assert_eq!(rows.last().unwrap().segment, 1024);
    assert!(
        rows[0].time_overhead_pct > rows[2].time_overhead_pct,
        "smaller segments cost more"
    );
    assert!(
        rows[0].time_overhead_pct < 8.0,
        "but only a little: {}",
        rows[0].time_overhead_pct
    );
    for r in &rows {
        assert!(
            r.energy_delta_pct.abs() < 1.5,
            "energy ~flat: {}",
            r.energy_delta_pct
        );
    }
}

#[test]
fn area_and_fabrication() {
    let area = figures::area();
    assert!(area.bus_fraction() < 0.03);
    assert!(area.processor_fraction() < 0.005);
    assert!((0.02..0.045).contains(&area.transfer_fraction_of_banks()));

    let fab = figures::fabrication();
    assert!(fab.windows(2).all(|w| w[0].1 > w[1].1), "monotone in node");
    assert!((fab.last().unwrap().1 - 0.0008).abs() < 1e-9);
}
