//! Shift-fault study: why the segmented bus bounds every shift to one
//! segment (paper §III-D, challenge 3).
//!
//! Long shifts accumulate over/under-shift probability. This example
//! measures (a) the per-operation fault rate as shift distance grows,
//! (b) the end-to-end corruption rate of a transfer across the RM bus span
//! when performed as one long shift versus segment-bounded hops, and (c)
//! the fault draws of a functional GEMM, read from its counters.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use streampim::pim_device::flow::DeviceFlow;
use streampim::pim_device::Parallelism;
use streampim::rm_core::{Nanowire, ShiftDir, ShiftFaultModel};

const P_STEP: f64 = 2e-4; // per-domain-step fault probability
const TRIALS: usize = 20_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("per-step fault probability: {P_STEP}\n");

    // (a) Analytic per-operation fault probability vs shift distance.
    println!("| shift distance | fault probability |");
    println!("|---|---|");
    let model = ShiftFaultModel::new(P_STEP / 2.0, P_STEP / 2.0, 0);
    for distance in [1usize, 16, 64, 256, 1024, 4096] {
        println!("| {distance} | {:.4} |", model.fault_probability(distance));
    }

    // (b) Monte-carlo: move data across a 4096-domain span.
    let span = 4096usize;
    for (label, hop) in [
        ("one long shift", span),
        ("1024-domain segments", 1024),
        ("64-domain segments", 64),
    ] {
        let hops = span / hop;
        let mut faults = 0usize;
        let mut fm = ShiftFaultModel::new(P_STEP / 2.0, P_STEP / 2.0, 42);
        for _ in 0..TRIALS {
            let mut corrupted = false;
            for _ in 0..hops {
                if fm.sample(hop).is_fault() {
                    corrupted = true;
                }
            }
            if corrupted {
                faults += 1;
            }
        }
        println!(
            "\n{label:<22}: {hops:>3} hop(s) of {hop:>5} domains -> {:.2}% transfers see a fault",
            faults as f64 / TRIALS as f64 * 100.0
        );
    }
    println!(
        "\nNote: the *total* fault exposure is similar (same distance travelled), but\n\
         segment-bounded hops make every fault a one-segment misalignment that the\n\
         per-segment shift ports can detect and retry, instead of silently\n\
         corrupting a 4096-domain train. The demo below shows the detectable case:"
    );

    // A bounded hop that under-shifts leaves the wire one position off; a
    // checker that knows the expected offset can detect and re-shift.
    let mut wire = Nanowire::new(64, &[0, 32]);
    let mut fm = ShiftFaultModel::new(0.0, 1.0, 7); // always under-shift
    let outcome = wire.shift_with_faults(ShiftDir::Right, 8, &mut fm)?;
    println!(
        "\nrequested 8-step hop, outcome {outcome:?}, wire offset = {}",
        wire.offset()
    );
    if wire.offset() != 8 {
        let fixup = 8 - wire.offset();
        wire.shift(ShiftDir::Right, fixup as usize)?;
        println!(
            "checker re-shifted by {fixup}; offset now {}",
            wire.offset()
        );
    }

    // (c) A functional GEMM with an aggressive fault model: every dot's
    // realized shift total feeds one draw from its lane's seeded fault
    // stream, and the device's counters total the shifts and the draws.
    let (m, k, n) = (24usize, 16usize, 8usize);
    let a: Vec<u8> = (0..(m * k) as u32).map(|i| (i * 29 % 251) as u8).collect();
    let b: Vec<u8> = (0..(k * n) as u32).map(|i| (i * 53 % 247) as u8).collect();
    let mut flow = DeviceFlow::new(4)?.with_fault_model(0.02, 0.01, 0xFA17);
    flow.gemm(&a, &b, m, k, n, Parallelism::Serial)?;
    let stats = flow.stats();
    println!(
        "\n{m}x{k}x{n} GEMM over {} lanes, totals from its DeviceFlowStats:",
        flow.lanes()
    );
    println!("| shifts | fault draws | faults injected | PIM-path conversions |");
    println!("|---|---|---|---|");
    println!(
        "| {} | {} | {} | {} |",
        stats.shifts, stats.faults_sampled, stats.faults_injected, stats.pim_conversions
    );
    Ok(())
}
