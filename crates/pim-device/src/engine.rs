//! The analytic execution engine: prices a [`Schedule`] in time and energy.
//!
//! ## Model
//!
//! The engine works at VPC granularity with closed-form per-VPC costs (the
//! substrate crates provide them), then composes them according to the
//! optimization level:
//!
//! * **Per compute VPC.** The RM processor pipeline cost comes from
//!   [`rm_proc::PipelineModel`]; operand/result streaming between mats and
//!   the processor is priced by the configured bus. With the **domain-wall
//!   bus** the stream is pipelined against processing, so the subarray is
//!   busy for `max(processing, streaming)` and the minimum counts as
//!   *overlapped* time. With the **electrical bus** every row crossing the
//!   bus is an electromagnetic conversion that cannot overlap shifts inside
//!   the subarray, so the two serialize.
//! * **Per TRAN VPC.** Inter-subarray/bank moves go through conventional
//!   read+write operations on the shared internal buses; one transfer lane
//!   per PIM bank works in parallel.
//! * **Round composition.** `Base` serializes everything on the owning
//!   subarray. `Distribute` runs a round's computes across subarrays, but
//!   the natural command order interleaves result collections with
//!   computes; since read/write cannot overlap shift/compute inside a
//!   subarray, stalled transfers head-of-line-block the queue and a large
//!   fraction of the compute work serializes — modelled by
//!   [`EngineParams::dist_serialization`]. `Unblock` batches transfer
//!   phases against compute phases of neighbouring rounds, so the total is
//!   the maximum of the compute-critical and transfer-critical paths.
//! * **Controller.** Each VPC occupies its bank controller for one decode
//!   slot; with many subarrays this fixed per-VPC cost becomes the
//!   scalability ceiling (Figure 21's saturation).

use crate::device::{OptLevel, StreamPimConfig};
use crate::report::ExecReport;
use crate::schedule::{Round, Schedule};
use crate::vpc::Vpc;
use pim_trace::{Phase, Span, TraceSink, Track};
use rm_bus::{BusModel, ElectricalBusModel};
use rm_core::config::BusKind;
use rm_core::{EnergyBreakdown, OpCounters, Probe, ProbeSample};
use rm_proc::{PipelineModel, ProcOp};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Scheduling-model parameters.
///
/// These four constants are the engine's only free parameters; they are
/// calibrated once against the paper's Figure 22 ablation (see
/// `EXPERIMENTS.md`) and never tuned per workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineParams {
    /// Fraction of a round's compute work that serializes across subarrays
    /// when the natural command order lets transfers block computation
    /// (`Distribute` without `unblock`).
    pub dist_serialization: f64,
    /// Electrical-bus conversions per row: a 512-bit row crosses a narrower
    /// electrical bus in this many read+write beats (`StPIM-e`).
    pub electrical_beats_per_row: u64,
    /// Mat-side shift steps per row streamed to/from the RM bus (alignment,
    /// fan-out copy onto the transfer track, shift-out).
    pub mat_shifts_per_row: u64,
    /// Parallel in-subarray RM buses (paper Figure 7 shows "a set of
    /// internal RM Buses"): operand and result streams split across them.
    pub operand_buses: u64,
    /// Bank-controller decode occupancy per VPC, nanoseconds.
    pub controller_ns_per_vpc: f64,
    /// Fraction of the RM bus's end-to-end fill latency exposed once per
    /// round (the rest overlaps the round's broadcasts). Smaller segments
    /// mean more segments to traverse, which is Table V's time overhead.
    pub bus_fill_exposure: f64,
}

impl EngineParams {
    /// Checks parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !(0.0..=1.0).contains(&self.dist_serialization) {
            return Err("dist_serialization must be in [0, 1]".into());
        }
        if self.electrical_beats_per_row == 0 {
            return Err("electrical_beats_per_row must be non-zero".into());
        }
        if self.controller_ns_per_vpc < 0.0 {
            return Err("controller_ns_per_vpc must be non-negative".into());
        }
        if self.operand_buses == 0 {
            return Err("operand_buses must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.bus_fill_exposure) {
            return Err("bus_fill_exposure must be in [0, 1]".into());
        }
        Ok(())
    }
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            dist_serialization: 0.12,
            electrical_beats_per_row: 5,
            mat_shifts_per_row: 1,
            controller_ns_per_vpc: 5.0,
            operand_buses: 2,
            bus_fill_exposure: 0.6,
        }
    }
}

// Structural hashing for fingerprints/cache keys: f64 fields are folded in
// as their IEEE-754 bit patterns.
impl std::hash::Hash for EngineParams {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.dist_serialization.to_bits().hash(state);
        self.electrical_beats_per_row.hash(state);
        self.mat_shifts_per_row.hash(state);
        self.controller_ns_per_vpc.to_bits().hash(state);
        self.operand_buses.hash(state);
        self.bus_fill_exposure.to_bits().hash(state);
    }
}

/// Memoization key of one VPC's cost: pricing is a pure function of the
/// engine configuration, the command kind, and the operand element count —
/// nothing else ([`Engine::price`] reads only these). Two commands with
/// equal keys therefore price to bit-identical [`VpcCost`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PriceKey {
    /// A TRAN of that element count.
    Tran(u64),
    /// A dot-product compute of that operand length.
    Dot(u64),
    /// A scalar-vector multiply of that operand length.
    Smul(u64),
    /// A vector add of that operand length.
    Add(u64),
}

impl PriceKey {
    fn of(vpc: &Vpc) -> PriceKey {
        match *vpc {
            Vpc::Mul { src1, .. } => PriceKey::Dot(src1.len as u64),
            Vpc::Smul { src } => PriceKey::Smul(src.len as u64),
            Vpc::Add { src1, .. } => PriceKey::Add(src1.len as u64),
            Vpc::Tran { len, .. } => PriceKey::Tran(len as u64),
        }
    }
}

/// A memo of VPC costs keyed by command kind and operand element count.
/// Every run prices each distinct key once through a table: its own
/// scratch one, or one the caller passes and keeps. The runtime keeps one
/// per shape for its cache *near-miss* path — a workload with the same DAG
/// shape as a cached one but different dimensions — so only keys new to
/// the shape are priced fresh and every other command replays from the
/// memo. Memoized costs are the exact values a cold run computes, so the
/// composed report is byte-identical to cold pricing; the determinism
/// suite enforces this.
///
/// A table is only valid for one engine configuration: costs depend on the
/// full [`StreamPimConfig`]. Callers (the runtime's schedule cache) key
/// tables by config and must not share them across configs.
#[derive(Debug, Clone, Default)]
pub struct PriceTable {
    entries: HashMap<PriceKey, VpcCost>,
    hits: u64,
    misses: u64,
}

impl PriceTable {
    /// An empty table.
    pub fn new() -> Self {
        PriceTable::default()
    }

    /// Distinct priced keys currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no priced keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Commands served from the memo so far (across runs).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Commands priced fresh and inserted so far (across runs).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The cost of `key` under `engine` for a run of `commands` (at least
    /// one) consecutive commands with that key, priced and inserted on
    /// first use. Every command counts: the first ever with a new key is a
    /// miss, and all others are hits.
    fn cost(&mut self, engine: &Engine, key: PriceKey, commands: u64) -> &VpcCost {
        match self.entries.entry(key) {
            Entry::Occupied(hit) => {
                self.hits += commands;
                hit.into_mut()
            }
            Entry::Vacant(slot) => {
                self.misses += 1;
                self.hits += commands - 1;
                slot.insert(engine.price(key))
            }
        }
    }

    /// Merges `other` into this table. Safe whenever both tables were fed
    /// by engines with the same configuration: each row is a pure function
    /// of its key, so colliding entries are identical and either may win.
    /// Hit/miss counters accumulate.
    pub fn absorb(&mut self, other: PriceTable) {
        self.entries.extend(other.entries);
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Per-VPC cost record produced by the substrate models.
#[derive(Debug, Clone, Copy, Default)]
struct VpcCost {
    /// Subarray occupancy, ns.
    busy_ns: f64,
    /// Pure processing time within `busy_ns`, ns.
    proc_ns: f64,
    /// Exclusive in-subarray transfer within `busy_ns` (bus excess), ns.
    excl_transfer_ns: f64,
    /// Overlapped transfer/processing within `busy_ns`, ns.
    overlapped_ns: f64,
    /// Whether the exclusive transfer is conversion (electrical) rather
    /// than shift (domain-wall).
    transfer_is_conversion: bool,
    /// Energy of the VPC.
    energy: EnergyBreakdown,
    /// Counter deltas.
    counters: OpCounters,
}

impl VpcCost {
    /// What one command with this cost adds in a round of `repeat`
    /// (`times` as an integer, `scale` as the float it multiplies by).
    fn sample(&self, times: u64, scale: f64) -> ProbeSample {
        ProbeSample {
            ops: scaled(self.counters, times),
            energy: self.energy * scale,
            busy_ns: self.busy_ns * scale,
        }
    }
}

/// The analytic engine (see module docs). Crate-private: callers price
/// through [`crate::StreamPim`] and [`crate::ShapeTask::price_instrumented`].
#[derive(Debug, Clone)]
pub(crate) struct Engine {
    opt: OptLevel,
    params: EngineParams,
    pipeline: PipelineModel,
    bus: BusModel,
    electrical: ElectricalBusModel,
    bus_kind: BusKind,
    cycle_ns: f64,
    words_per_row: u64,
    tran_lanes: u32,
    subarrays: usize,
    read_ns: f64,
    write_ns: f64,
    read_pj: f64,
    write_pj: f64,
    shift_pj: f64,
    add_pj: f64,
    mul_pj: f64,
}

impl Engine {
    /// Builds an engine from a validated configuration.
    pub(crate) fn new(cfg: &StreamPimConfig) -> Self {
        let dev = &cfg.device;
        let pipeline = PipelineModel::new(
            dev.word_bits,
            dev.duplicators,
            dev.geometry.save_tracks_per_mat,
        );
        let bus = match dev.bus {
            BusKind::DomainWall => BusModel::domain_wall_with_segment(dev.segment_domains as u64),
            BusKind::Electrical => BusModel::electrical_default(),
        };
        Engine {
            opt: cfg.opt,
            params: cfg.engine,
            pipeline,
            bus,
            electrical: ElectricalBusModel::paper_default(),
            bus_kind: dev.bus,
            cycle_ns: dev.cycle_ns(),
            words_per_row: (dev.geometry.save_tracks_per_mat / dev.word_bits).max(1) as u64,
            tran_lanes: dev.pim_banks.max(1),
            subarrays: dev.pim_subarrays() as usize,
            read_ns: dev.timing.read_ns,
            write_ns: dev.timing.write_ns,
            read_pj: dev.energy.read_pj,
            write_pj: dev.energy.write_pj,
            shift_pj: dev.energy.shift_pj,
            add_pj: dev.energy.pim_add_pj,
            mul_pj: dev.energy.pim_mul_pj,
        }
    }

    /// Starts one pricing pass that takes a schedule a round at a time
    /// (see [`Pricer`]): [`Engine::run`] feeds it a lowered schedule's
    /// rounds, and [`crate::ShapeTask::price_instrumented`] each round as
    /// it is lowered.
    pub(crate) fn pricer<'a>(
        &'a self,
        sink: &'a dyn TraceSink,
        probe: &'a dyn Probe,
        table: Option<&'a mut PriceTable>,
    ) -> Pricer<'a> {
        let lanes = self.tran_lanes as usize;
        Pricer {
            engine: self,
            sink,
            probe,
            probed: probe.enabled(),
            table,
            scratch: PriceTable::new(),
            report: ExecReport::new(),
            vol_proc: 0.0,
            vol_excl_shift: 0.0,
            vol_excl_conv: 0.0,
            vol_overlap: 0.0,
            compute_critical: 0.0,
            tran_lane_ns: vec![0.0; lanes],
            serial_total: 0.0,
            tran_clock: 0.0,
            bcast_lane: vec![0.0; lanes],
            collect_lane: vec![0.0; lanes],
            sub_load: vec![None; self.subarrays],
            touched: Vec::with_capacity(self.subarrays),
            rounds: 0,
        }
    }

    /// Prices a schedule: the entry behind every `StreamPim::execute*`
    /// call, one [`Pricer`] fed each round in order.
    pub(crate) fn run(
        &self,
        schedule: &Schedule,
        sink: &dyn TraceSink,
        probe: &dyn Probe,
        table: Option<&mut PriceTable>,
    ) -> ExecReport {
        let mut pricer = self.pricer(sink, probe, table);
        for round in &schedule.rounds {
            pricer.round(round);
        }
        pricer.finish()
    }

    /// Subarray/lane occupancy of one command under this engine's cost
    /// models (the event-driven reference engine composes these into
    /// explicit timelines).
    pub(crate) fn vpc_busy_ns(&self, vpc: &Vpc) -> f64 {
        self.price(PriceKey::of(vpc)).busy_ns
    }

    /// Operation-counter deltas of one command under this engine's cost
    /// models (trace spans carry these as per-span arguments).
    pub(crate) fn vpc_counters(&self, vpc: &Vpc) -> OpCounters {
        self.price(PriceKey::of(vpc)).counters
    }

    /// The cost of every command with this key (pure in `&self`).
    fn price(&self, key: PriceKey) -> VpcCost {
        match key {
            PriceKey::Tran(elements) => self.tran_cost(elements),
            PriceKey::Dot(n) => self.compute_cost(ProcOp::DotProduct { n }),
            PriceKey::Smul(n) => self.compute_cost(ProcOp::ScalarVectorMul { n }),
            PriceKey::Add(n) => self.compute_cost(ProcOp::VectorAdd { n }),
        }
    }

    /// Rows needed to stream `words` between mats and the processor.
    fn rows_for(&self, words: u64) -> u64 {
        words.div_ceil(self.words_per_row).max(1)
    }

    fn compute_cost(&self, op: ProcOp) -> VpcCost {
        let proc = self.pipeline.cost(op);
        let proc_ns = proc.cycles as f64 * self.cycle_ns;
        let rows = self.rows_for(proc.io_words);

        let mut cost = VpcCost {
            proc_ns,
            counters: OpCounters {
                pim_adds: proc.word_adds,
                pim_muls: proc.word_muls,
                ..OpCounters::default()
            },
            energy: EnergyBreakdown {
                compute_pj: proc.word_adds as f64 * self.add_pj
                    + proc.word_muls as f64 * self.mul_pj,
                ..EnergyBreakdown::default()
            },
            ..VpcCost::default()
        };

        match self.bus_kind {
            BusKind::DomainWall => {
                // Streams split across the subarray's parallel RM buses;
                // energy still covers every row moved.
                let rows_per_bus = rows.div_ceil(self.params.operand_buses);
                let bus = rm_bus::BusCost {
                    time_ns: self.bus.stream_cost(rows_per_bus, self.cycle_ns).time_ns,
                    ..self.bus.stream_cost(rows, self.cycle_ns)
                };
                // Mat-side shifts feed the bus; their time is subsumed by
                // the stream, their energy is extra.
                let mat_shift_steps = rows * self.params.mat_shifts_per_row;
                cost.energy.shift_pj += bus.shift_pj + mat_shift_steps as f64 * self.shift_pj;
                cost.counters.shifts += rows + mat_shift_steps;
                cost.counters.shift_distance += rows + mat_shift_steps;
                // Pipelined: streaming overlaps processing.
                cost.busy_ns = proc_ns.max(bus.time_ns);
                cost.overlapped_ns = proc_ns.min(bus.time_ns);
                cost.excl_transfer_ns = (bus.time_ns - proc_ns).max(0.0);
                cost.proc_ns = (proc_ns - bus.time_ns).max(0.0);
                cost.transfer_is_conversion = false;
            }
            BusKind::Electrical => {
                let beats = rows * self.params.electrical_beats_per_row;
                let bus_ns = self.electrical.stream_ns(beats);
                // Each beat converts 1/beats_per_row of a row, so the
                // per-beat conversion energy is that fraction of the
                // per-row read/write energy.
                let (read_pj, write_pj) = self.electrical.stream_energy_split_pj(beats);
                let frac = 1.0 / self.params.electrical_beats_per_row as f64;
                let (read_pj, write_pj) = (read_pj * frac, write_pj * frac);
                cost.energy.read_pj += read_pj;
                cost.energy.write_pj += write_pj;
                cost.counters.reads += beats;
                cost.counters.writes += beats;
                // Conversions cannot overlap shifts/compute in the subarray.
                cost.busy_ns = proc_ns + bus_ns;
                cost.excl_transfer_ns = bus_ns;
                cost.proc_ns = proc_ns;
                cost.transfer_is_conversion = true;
            }
        }
        cost
    }

    fn tran_cost(&self, elements: u64) -> VpcCost {
        let rows = self.rows_for(elements);
        // Read at the source, write at the destination; reads and writes of
        // consecutive rows pipeline against each other.
        let mut busy_ns =
            self.read_ns + self.write_ns + (rows - 1) as f64 * self.read_ns.max(self.write_ns);
        let mut energy = EnergyBreakdown {
            read_pj: rows as f64 * self.read_pj,
            write_pj: rows as f64 * self.write_pj,
            ..EnergyBreakdown::default()
        };
        if self.bus_kind == BusKind::Electrical {
            // With electrical in-subarray buses the arriving rows must also
            // be distributed from the row buffer to the destination mats
            // over the narrow electrical bus (StreamPIM shifts them in
            // instead), costing extra conversion beats on the mat-side leg.
            let beats = rows as f64 * self.params.electrical_beats_per_row as f64 / 2.0;
            busy_ns += beats * self.write_ns;
            energy.write_pj += beats * self.write_pj / self.params.electrical_beats_per_row as f64;
        }
        VpcCost {
            busy_ns,
            energy,
            counters: OpCounters {
                reads: rows,
                writes: rows,
                ..OpCounters::default()
            },
            ..VpcCost::default()
        }
    }
}

/// One pricing pass, fed a round at a time in schedule order: the
/// analytic engine's only pricer. The priced report is identical for every
/// sink, probe and table state, and for every way of feeding it the same
/// rounds (a lowered schedule, or rounds priced as they are lowered).
///
/// **Trace.** One phase span per round goes to `sink` (broadcast /
/// compute / collect timelines, [`pim_trace::Phase`]). The phase
/// timeline is *synthetic*: the closed forms compose per-round
/// makespans, not per-command start times, so spans carry the
/// per-round phase durations laid out according to the optimization
/// level — one serial clock for `Base`/`Distribute`, separate
/// compute/transfer clocks (both from zero) for `Unblock`, which is
/// exactly the overlap structure the closed form assumes.
///
/// **Attribution.** Per-VPC costs are recorded on `probe` under
/// `bus/lane[k]` (transfers, keyed by their transfer lane),
/// `device/subarray[s]` (computes, keyed by their home subarray) and
/// `device/controller` (decode energy and occupancy). Each emission
/// records exactly the value the engine adds to the report's global
/// accumulators, so an attribution tree's total is bit-identical to the
/// report's `counters`/`energy`. Busy time is *occupancy* —
/// per-component busy sums intentionally exceed the composed wall-clock
/// time, which is derived after the fact.
///
/// **Pricing.** One serial pass over runs of equal [`PriceKey`]s (a
/// round's broadcasts, collects and computes each form a few). Each
/// distinct key is priced once, through `table` when one is given (keys
/// it already holds are replayed, new ones inserted) and through a
/// scratch table otherwise. A memoized cost is the exact value pricing
/// the key computes, provided the table was only ever fed by an engine
/// with this configuration. Per run, the cost is looked up once, its
/// `repeat`-scaled products are computed once, and the integer counters,
/// VPC counts and table hits are added once. Every float accumulator that
/// gets the same addend from each command of the run (the broadcast,
/// collect and round busy sums, the three compute volumes, the five
/// energy fields) takes it through [`add_n`], which returns the bits of
/// the per-command additions. Per command only the transfer lane's sum,
/// the home subarray's load and the probe record remain. Integer sums are
/// exact in any grouping, so every report, probe sample and trace span is
/// the same at any table state and as a per-command pass. The per-round
/// lane sums and subarray loads live in buffers reused across rounds, so
/// a pass allocates a fixed handful of times however many rounds it has.
pub(crate) struct Pricer<'a> {
    engine: &'a Engine,
    sink: &'a dyn TraceSink,
    probe: &'a dyn Probe,
    probed: bool,
    table: Option<&'a mut PriceTable>,
    scratch: PriceTable,
    report: ExecReport,
    // Accumulated compute-phase volumes (for breakdown attribution).
    vol_proc: f64,
    vol_excl_shift: f64,
    vol_excl_conv: f64,
    vol_overlap: f64,
    // Critical-path accumulators.
    compute_critical: f64, // Σ per-round compute makespans
    tran_lane_ns: Vec<f64>,
    serial_total: f64, // Base/Distribute running total
    tran_clock: f64,   // Unblock transfer-phase span clock
    // Per-round buffers, cleared at the end of each round. The
    // per-subarray loads are indexed by home subarray and sized once for
    // the device's PIM subarrays (a hand-built round with a home past that
    // grows them); `touched` lists the homes the round has loaded, so only
    // those are read and cleared.
    bcast_lane: Vec<f64>,
    collect_lane: Vec<f64>,
    sub_load: Vec<Option<f64>>,
    touched: Vec<usize>,
    /// Rounds priced so far (the next round's index in spans).
    rounds: usize,
}

impl Pricer<'_> {
    /// Prices the next round. Only TRANs move data: other commands a
    /// hand-built round puts among its broadcasts or collects are neither
    /// priced nor counted.
    pub(crate) fn round(&mut self, round: &Round) {
        let engine = self.engine;
        let (sink, probe, probed) = (self.sink, self.probe, self.probed);
        let table = match &mut self.table {
            Some(table) => &mut **table,
            None => &mut self.scratch,
        };
        let round_idx = self.rounds;
        self.rounds += 1;
        let repeat = round.repeat.max(1) as f64;
        // --- Transfers of this round ---------------------------------
        // Broadcasts and collects accumulate separately so the trace can
        // show them as distinct phases; the engine composition only
        // consumes their per-lane sum.
        self.bcast_lane.fill(0.0);
        self.collect_lane.fill(0.0);
        let mut bcast_sum = 0.0;
        let mut collect_sum = 0.0;
        let mut moves = 0u64;
        for (trans, lane_ns, sum) in [
            (&round.broadcasts, &mut self.bcast_lane, &mut bcast_sum),
            (&round.collects, &mut self.collect_lane, &mut collect_sum),
        ] {
            for (key, run) in key_runs(trans) {
                if !matches!(key, PriceKey::Tran(_)) {
                    continue;
                }
                let commands = run.len() as u64;
                moves += commands;
                let cost = table.cost(engine, key, commands);
                self.report.counters += scaled(cost.counters, round.repeat * commands);
                let sample = cost.sample(round.repeat, repeat);
                *sum = add_n(*sum, cost.busy_ns, commands);
                self.report.energy = add_n_energy(self.report.energy, sample.energy, commands);
                for t in run {
                    let Vpc::Tran { dst, .. } = *t else {
                        unreachable!("a TRAN key prices only TRANs")
                    };
                    let lane = (dst % engine.tran_lanes) as usize;
                    lane_ns[lane] += cost.busy_ns;
                    if probed {
                        probe.record(&format!("bus/lane[{lane}]"), sample);
                    }
                }
            }
        }
        let round_tran_sum = bcast_sum + collect_sum;
        let mut round_tran_parallel = 0.0f64;
        let mut bcast_parallel = 0.0f64;
        for (b, c) in self.bcast_lane.iter().zip(&self.collect_lane) {
            round_tran_parallel = round_tran_parallel.max(b + c);
            bcast_parallel = bcast_parallel.max(*b);
        }

        // --- Computes of this round -----------------------------------
        let mut round_busy_sum = 0.0;
        for (key, run) in key_runs(&round.computes) {
            let commands = run.len() as u64;
            let cost = table.cost(engine, key, commands);
            self.report.counters += scaled(cost.counters, round.repeat * commands);
            let sample = cost.sample(round.repeat, repeat);
            round_busy_sum = add_n(round_busy_sum, cost.busy_ns, commands);
            self.vol_proc = add_n(self.vol_proc, cost.proc_ns * repeat, commands);
            self.vol_overlap = add_n(self.vol_overlap, cost.overlapped_ns * repeat, commands);
            let vol_excl = if cost.transfer_is_conversion {
                &mut self.vol_excl_conv
            } else {
                &mut self.vol_excl_shift
            };
            *vol_excl = add_n(*vol_excl, cost.excl_transfer_ns * repeat, commands);
            self.report.energy = add_n_energy(self.report.energy, sample.energy, commands);
            for c in run {
                let home = c.home_subarray().unwrap_or(0) as usize;
                if home >= self.sub_load.len() {
                    self.sub_load.resize(home + 1, None);
                }
                let load = &mut self.sub_load[home];
                if load.is_none() {
                    self.touched.push(home);
                }
                *load.get_or_insert(0.0) += cost.busy_ns;
                if probed {
                    probe.record(&format!("device/subarray[{home}]"), sample);
                }
            }
        }
        self.report.vpc.pim += round.computes.len() as u64 * round.repeat;
        self.report.vpc.moves += moves * round.repeat;
        let used = self.touched.len().max(1) as f64;
        let sub_load = &mut self.sub_load;
        let max_sub = self
            .touched
            .drain(..)
            .filter_map(|home| sub_load[home].take())
            .fold(0.0f64, f64::max);
        // Exposed once per round: the bus pipeline must fill before the
        // first operands reach the processors.
        let fill_ns = if round.computes.is_empty() || engine.bus_kind != BusKind::DomainWall {
            0.0
        } else {
            engine.bus.word_latency_ns(engine.cycle_ns) * engine.params.bus_fill_exposure
        };
        let parallel_makespan = max_sub.max(round_busy_sum / used) + fill_ns;

        // --- Compose per optimization level ---------------------------
        // Phase-span layout: (broadcast, compute, collect) durations and
        // the clocks they start on. Zero-duration phases are skipped.
        let emit = |phase: Phase, cat, start: f64, dur: f64| {
            if dur > 0.0 {
                sink.record_span(
                    Span::sim(
                        format!("round {round_idx} {}", phase_label(phase)),
                        cat,
                        Track::Phase(phase),
                        start,
                        dur,
                    )
                    .arg("round", round_idx)
                    .arg("repeat", round.repeat)
                    .arg("broadcasts", round.broadcasts.len())
                    .arg("computes", round.computes.len())
                    .arg("collects", round.collects.len()),
                );
            }
        };
        match engine.opt {
            OptLevel::Base => {
                // Everything serializes: transfers and computes alike.
                if sink.enabled() {
                    let mut clock = self.serial_total;
                    emit(Phase::Broadcast, "transfer", clock, repeat * bcast_sum);
                    clock += repeat * bcast_sum;
                    emit(Phase::Compute, "compute", clock, repeat * round_busy_sum);
                    clock += repeat * round_busy_sum;
                    emit(Phase::Collect, "transfer", clock, repeat * collect_sum);
                }
                self.serial_total += repeat * (round_tran_sum + round_busy_sum);
                self.compute_critical += repeat * round_busy_sum;
            }
            OptLevel::Distribute => {
                let blocked = engine.params.dist_serialization * round_busy_sum
                    + (1.0 - engine.params.dist_serialization) * parallel_makespan;
                if sink.enabled() {
                    // The lane-parallel transfer time, split between the
                    // broadcast and collect phases pro rata.
                    let bcast_share = if round_tran_sum > 0.0 {
                        round_tran_parallel * bcast_sum / round_tran_sum
                    } else {
                        0.0
                    };
                    let mut clock = self.serial_total;
                    emit(Phase::Broadcast, "transfer", clock, repeat * bcast_share);
                    clock += repeat * bcast_share;
                    emit(Phase::Compute, "compute", clock, repeat * blocked);
                    clock += repeat * blocked;
                    emit(
                        Phase::Collect,
                        "transfer",
                        clock,
                        repeat * (round_tran_parallel - bcast_share),
                    );
                }
                self.serial_total += repeat * (round_tran_parallel + blocked);
                self.compute_critical += repeat * blocked;
            }
            OptLevel::Unblock => {
                if sink.enabled() {
                    // Compute and transfer run on independent clocks — the
                    // overlap the closed form assumes.
                    emit(
                        Phase::Compute,
                        "compute",
                        self.compute_critical,
                        repeat * parallel_makespan,
                    );
                    emit(
                        Phase::Broadcast,
                        "transfer",
                        self.tran_clock,
                        repeat * bcast_parallel,
                    );
                    emit(
                        Phase::Collect,
                        "transfer",
                        self.tran_clock + repeat * bcast_parallel,
                        repeat * (round_tran_parallel - bcast_parallel),
                    );
                    self.tran_clock += repeat * round_tran_parallel;
                }
                self.compute_critical += repeat * parallel_makespan;
                for ((acc, b), c) in self
                    .tran_lane_ns
                    .iter_mut()
                    .zip(&self.bcast_lane)
                    .zip(&self.collect_lane)
                {
                    *acc += (b + c) * repeat;
                }
            }
        }
    }

    /// Ends the pass: charges controller decode, composes the total and
    /// splits it into the report's time breakdown.
    pub(crate) fn finish(self) -> ExecReport {
        let engine = self.engine;
        let mut report = self.report;
        // Controller decode occupancy: per-VPC, parallel across PIM banks.
        let vpc_count = report.vpc.total();
        let controller_ns =
            vpc_count as f64 * engine.params.controller_ns_per_vpc / engine.tran_lanes as f64;
        report.energy.other_pj += vpc_count as f64 * 1.0; // 1 pJ decode per VPC
        if self.probed {
            self.probe.record(
                "device/controller",
                ProbeSample {
                    ops: OpCounters::default(),
                    energy: EnergyBreakdown {
                        other_pj: vpc_count as f64 * 1.0,
                        ..EnergyBreakdown::default()
                    },
                    busy_ns: controller_ns,
                },
            );
        }

        // --- Total and breakdown ------------------------------------------
        let compute_critical = self.compute_critical;
        let tran_critical = self.tran_lane_ns.iter().copied().fold(0.0f64, f64::max);
        let (total, tran_exposed) = match engine.opt {
            OptLevel::Base | OptLevel::Distribute => (self.serial_total, true),
            OptLevel::Unblock => (compute_critical.max(tran_critical), false),
        };
        let total = total.max(controller_ns);

        // Scale the per-VPC compute volumes onto the compute-critical time.
        let vol_sum = self.vol_proc + self.vol_excl_shift + self.vol_excl_conv + self.vol_overlap;
        let k = if vol_sum > 0.0 {
            compute_critical / vol_sum
        } else {
            0.0
        };
        report.time.process_ns = self.vol_proc * k;
        report.time.shift_ns = self.vol_excl_shift * k;
        report.time.overlapped_ns = self.vol_overlap * k;
        let conv = self.vol_excl_conv * k;
        // Electrical conversions split between read and write by latency.
        let rw = engine.read_ns + engine.write_ns;
        report.time.read_ns = conv * engine.read_ns / rw;
        report.time.write_ns = conv * engine.write_ns / rw;

        if tran_exposed {
            // Inter-subarray transfer phases are exclusive read/write time.
            let tran_time = total - compute_critical.min(total);
            report.time.read_ns += tran_time * engine.read_ns / rw;
            report.time.write_ns += tran_time * engine.write_ns / rw;
        } else {
            // Unblock: transfers beyond the compute-critical path extend the
            // makespan; hidden transfers vanish into overlap.
            let excess = (tran_critical - compute_critical).max(0.0);
            report.time.read_ns += excess * engine.read_ns / rw;
            report.time.write_ns += excess * engine.write_ns / rw;
        }

        // Controller excess (if it set the total) counts as processing.
        let accounted = report.time.total_ns();
        if total > accounted {
            report.time.process_ns += total - accounted;
        }
        report
    }
}

/// Phase display label for round span names.
fn phase_label(phase: Phase) -> &'static str {
    match phase {
        Phase::Broadcast => "broadcast",
        Phase::Compute => "compute",
        Phase::Collect => "collect",
    }
}

/// Splits `commands` into maximal runs of equal [`PriceKey`]s, in order.
fn key_runs(commands: &[Vpc]) -> impl Iterator<Item = (PriceKey, &[Vpc])> {
    let mut rest = commands;
    std::iter::from_fn(move || {
        let key = PriceKey::of(rest.first()?);
        let len = rest
            .iter()
            .position(|c| PriceKey::of(c) != key)
            .unwrap_or(rest.len());
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some((key, run))
    })
}

/// `delta` added `times` times (saturating is unnecessary at the scales
/// involved; totals stay far below u64::MAX).
fn scaled(delta: OpCounters, times: u64) -> OpCounters {
    OpCounters {
        reads: delta.reads * times,
        writes: delta.writes * times,
        shifts: delta.shifts * times,
        shift_distance: delta.shift_distance * times,
        transverse_reads: delta.transverse_reads * times,
        pim_adds: delta.pim_adds * times,
        pim_muls: delta.pim_muls * times,
        gate_ops: delta.gate_ops * times,
    }
}

/// `acc` with `x` added `n` times: the same bits as the `n` sequential
/// additions `(0..n).fold(acc, |a, _| a + x)`, in O(binades crossed) work.
///
/// While `acc` is a positive normal number above `x ≥ 0`, it is a multiple
/// of its binade's spacing `u = ulp(acc)`, so `acc + x` rounds to
/// `acc + round(x / u)·u` for as long as the sum stays in that binade,
/// unless `x / u` lies exactly halfway between two integers (a tie, which
/// rounds by `acc`'s last bit). Those additions all add the same step, so
/// they are taken at once on the integer significand, and the one that
/// leaves the binade is a plain addition. Ties, a zero, subnormal or
/// non-finite `acc`, and a negative or non-finite `x` take plain
/// additions; a plain addition that leaves `acc` unchanged ends the loop,
/// because every later one would too.
fn add_n(mut acc: f64, x: f64, mut n: u64) -> f64 {
    const FRACTION: u64 = (1 << 52) - 1;
    while n > 0 {
        if n > 1 && acc.is_normal() && acc > x && x >= 0.0 {
            // acc = a·u with a in [2^52, 2^53), and x = xm·2^xe with xe no
            // larger than u's exponent, since x < acc.
            let bits = acc.to_bits();
            let a = bits & FRACTION | 1 << 52;
            let u_exp = (bits >> 52) as i64 - 1075;
            let (xm, x_exp) = significand(x);
            let shift = (u_exp - x_exp) as u32;
            // x / u rounded to the nearest integer; `None` on a tie.
            let step = if shift == 0 {
                Some(xm)
            } else if shift > 53 {
                Some(0) // below half an ulp: xm < 2^53 <= 2^(shift - 1)
            } else {
                let half = 1u64 << (shift - 1);
                let q = xm >> shift;
                match (xm & ((half << 1) - 1)).cmp(&half) {
                    std::cmp::Ordering::Less => Some(q),
                    std::cmp::Ordering::Greater => Some(q + 1),
                    std::cmp::Ordering::Equal => None,
                }
            };
            match step {
                Some(0) => return acc,
                Some(j) => {
                    // Additions that keep the significand below 2^53.
                    let m = ((1 << 53) - 1 - a) / j;
                    let m = m.min(n);
                    acc = f64::from_bits(bits + m * j);
                    n -= m;
                    if n == 0 {
                        break;
                    }
                }
                None => {}
            }
        }
        let next = acc + x;
        if next.to_bits() == acc.to_bits() {
            break;
        }
        acc = next;
        n -= 1;
    }
    acc
}

/// A finite non-negative `x` as `(m, e)` with `x = m·2^e` and `m < 2^53`.
fn significand(x: f64) -> (u64, i64) {
    let bits = x.abs().to_bits();
    let biased = (bits >> 52) as i64;
    let fraction = bits & ((1 << 52) - 1);
    if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    }
}

/// [`add_n`] on each of the five energy fields.
fn add_n_energy(acc: EnergyBreakdown, x: EnergyBreakdown, n: u64) -> EnergyBreakdown {
    EnergyBreakdown {
        read_pj: add_n(acc.read_pj, x.read_pj, n),
        write_pj: add_n(acc.write_pj, x.write_pj, n),
        shift_pj: add_n(acc.shift_pj, x.shift_pj, n),
        compute_pj: add_n(acc.compute_pj, x.compute_pj, n),
        other_pj: add_n(acc.other_pj, x.other_pj, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vpc::VecRef;
    use pim_trace::NullSink;
    use rm_core::NullProbe;

    fn schedule(rounds: usize, computes_per_round: usize, len: u32) -> Schedule {
        let mut s = Schedule::new();
        for r in 0..rounds {
            let mut round = Round::new();
            round.broadcasts.push(Vpc::Tran {
                src: 600,
                dst: r as u32 % 8,
                len,
            });
            for i in 0..computes_per_round {
                let sub = (r * computes_per_round + i) as u32 % 512;
                round.computes.push(Vpc::Mul {
                    src1: VecRef::new(sub, len),
                    src2: VecRef::new(sub, len),
                });
                // Results scatter back across destination subarrays.
                round.collects.push(Vpc::Tran {
                    src: sub,
                    dst: sub.wrapping_add(64),
                    len: 1,
                });
            }
            s.push(round);
        }
        s
    }

    fn run(opt: OptLevel) -> ExecReport {
        let cfg = StreamPimConfig::paper_default().with_opt(opt);
        Engine::new(&cfg).run(&schedule(20, 256, 2000), &NullSink, &NullProbe, None)
    }

    #[test]
    fn optimization_ordering_matches_figure_22() {
        let base = run(OptLevel::Base);
        let dist = run(OptLevel::Distribute);
        let unblock = run(OptLevel::Unblock);
        assert!(
            base.total_ns() > dist.total_ns(),
            "distribute must beat base: {} vs {}",
            base.total_ns(),
            dist.total_ns()
        );
        assert!(
            dist.total_ns() > unblock.total_ns(),
            "unblock must beat distribute: {} vs {}",
            dist.total_ns(),
            unblock.total_ns()
        );
        // The gaps are large (paper: 7.1x and 199.7x overall).
        assert!(base.total_ns() / dist.total_ns() > 2.0);
        assert!(dist.total_ns() / unblock.total_ns() > 2.0);
    }

    #[test]
    fn unblock_hides_transfers() {
        let unblock = run(OptLevel::Unblock);
        assert!(
            unblock.time.exclusive_transfer_fraction() < 0.05,
            "exclusive transfer should be tiny, got {}",
            unblock.time.exclusive_transfer_fraction()
        );
        assert!(unblock.time.overlapped_ns > 0.0);
    }

    #[test]
    fn energy_is_schedule_order_independent() {
        let base = run(OptLevel::Base);
        let unblock = run(OptLevel::Unblock);
        assert!((base.total_pj() - unblock.total_pj()).abs() / base.total_pj() < 1e-9);
    }

    #[test]
    fn electrical_bus_is_slower_and_hungrier() {
        let dw = run_with_config(StreamPimConfig::paper_default());
        let el = run_with_config(StreamPimConfig::electrical_bus());
        assert!(
            el.total_ns() > dw.total_ns() * 1.5,
            "{} vs {}",
            el.total_ns(),
            dw.total_ns()
        );
        assert!(el.total_pj() > dw.total_pj());
        assert!(el.energy.read_pj + el.energy.write_pj > dw.energy.read_pj + dw.energy.write_pj);
    }

    fn run_with_config(cfg: StreamPimConfig) -> ExecReport {
        Engine::new(&cfg).run(&schedule(20, 256, 2000), &NullSink, &NullProbe, None)
    }

    #[test]
    fn more_subarrays_help_until_saturation() {
        let times: Vec<f64> = [128u32, 256, 512, 1024]
            .iter()
            .map(|&n| {
                let cfg = StreamPimConfig::paper_default().with_pim_subarrays(n);
                // Spread computes over all subarrays of the variant.
                let mut s = Schedule::new();
                for r in 0..50 {
                    let mut round = Round::new();
                    for i in 0..1024usize {
                        let sub = ((r * 1024 + i) as u32) % n;
                        round.computes.push(Vpc::Mul {
                            src1: VecRef::new(sub, 2000),
                            src2: VecRef::new(sub, 2000),
                        });
                        round.collects.push(Vpc::Tran {
                            src: sub,
                            dst: (sub + 1) % n,
                            len: 1,
                        });
                    }
                    s.push(round);
                }
                Engine::new(&cfg)
                    .run(&s, &NullSink, &NullProbe, None)
                    .total_ns()
            })
            .collect();
        assert!(times[0] > times[1] && times[1] > times[2], "{times:?}");
        // Saturation: the 512 -> 1024 step gains less than 256 -> 512.
        let gain_512 = times[1] / times[2];
        let gain_1024 = times[2] / times[3];
        assert!(gain_1024 < gain_512, "{times:?}");
    }

    #[test]
    fn counters_track_work() {
        let r = run(OptLevel::Unblock);
        assert_eq!(r.counters.pim_muls, 20 * 256 * 2000);
        assert!(r.counters.reads > 0);
        assert!(r.counters.shifts > 0);
        assert_eq!(r.vpc.pim, 20 * 256);
        assert_eq!(r.vpc.moves, 20 * 257);
    }

    #[test]
    fn empty_schedule_is_free() {
        let cfg = StreamPimConfig::paper_default();
        let r = Engine::new(&cfg).run(&Schedule::new(), &NullSink, &NullProbe, None);
        assert_eq!(r.total_ns(), 0.0);
        assert_eq!(r.total_pj(), 0.0);
    }

    #[test]
    fn segment_size_sweep_small_overhead() {
        // Table V: shrinking segments from 1024 to 64 costs only ~2% time
        // and leaves energy unchanged.
        let t = |seg: u32| {
            // Full-utilization rounds (4 VPCs per subarray), as real
            // kernel lowerings produce.
            let cfg = StreamPimConfig::paper_default().with_segment_domains(seg);
            let r = Engine::new(&cfg).run(&schedule(20, 2048, 2600), &NullSink, &NullProbe, None);
            (r.total_ns(), r.total_pj())
        };
        let (t1024, e1024) = t(1024);
        let (t64, e64) = t(64);
        let overhead = t64 / t1024 - 1.0;
        assert!((0.0..0.10).contains(&overhead), "time overhead {overhead}");
        assert!((e64 - e1024).abs() / e1024 < 1e-9, "energy flat");
    }

    #[test]
    fn tracing_does_not_change_the_report() {
        let s = schedule(10, 64, 800);
        for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let engine = Engine::new(&cfg);
            let sink = pim_trace::Collector::new();
            let plain = engine.run(&s, &NullSink, &NullProbe, None);
            let traced = engine.run(&s, &sink, &NullProbe, None);
            assert_eq!(plain, traced, "sink must not perturb pricing ({opt:?})");
            assert!(sink.span_count() > 0, "phases should be recorded ({opt:?})");
        }
    }

    #[test]
    fn base_phase_spans_are_serial_and_tile_the_total() {
        let cfg = StreamPimConfig::paper_default().with_opt(OptLevel::Base);
        let s = schedule(5, 32, 600);
        let sink = pim_trace::Collector::new();
        let report = Engine::new(&cfg).run(&s, &sink, &NullProbe, None);
        let a = pim_trace::analyze::Analysis::of(&sink.spans());
        // Base is fully serial: compute and transfer never overlap, and the
        // phase spans tile [0, total] exactly (no controller floor here).
        assert_eq!(a.overlap_ns, 0.0, "base must not overlap");
        assert!(
            (a.makespan_ns - report.total_ns()).abs() / report.total_ns() < 1e-9,
            "spans end at the report total: {} vs {}",
            a.makespan_ns,
            report.total_ns()
        );
    }

    #[test]
    fn unblock_phase_spans_overlap_more_than_base() {
        let s = schedule(20, 256, 2000);
        let frac = |opt: OptLevel| {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let sink = pim_trace::Collector::new();
            Engine::new(&cfg).run(&s, &sink, &NullProbe, None);
            pim_trace::analyze::Analysis::of(&sink.spans()).overlap_fraction
        };
        let base = frac(OptLevel::Base);
        let unblock = frac(OptLevel::Unblock);
        assert_eq!(base, 0.0);
        assert!(
            unblock > base,
            "unblock must overlap transfers with compute: {unblock} vs {base}"
        );
    }

    /// Commands `s` prices per run (rows before `repeat` scaling).
    fn rows(s: &Schedule) -> u64 {
        s.rounds.iter().map(|r| r.len() as u64).sum()
    }

    /// Prices `s` through `table`, returning the report and the keys priced
    /// fresh this run (the table's miss delta).
    fn repriced(engine: &Engine, s: &Schedule, table: &mut PriceTable) -> (ExecReport, u64) {
        let misses = table.misses();
        let report = engine.run(s, &NullSink, &NullProbe, Some(table));
        (report, table.misses() - misses)
    }

    #[test]
    fn repriced_run_is_byte_identical_to_cold_run() {
        for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let engine = Engine::new(&cfg);
            let mut table = PriceTable::new();

            // Cold-prime the table on one shape.
            let s1 = schedule(8, 64, 1200);
            let cold1 = engine.run(&s1, &NullSink, &NullProbe, None);
            let (warm1, fresh1) = repriced(&engine, &s1, &mut table);
            assert_eq!(cold1, warm1, "first repriced run ({opt:?})");
            assert!(fresh1 > 0, "first run must price rows fresh");

            // Same shape again: every row replays from the memo.
            let (warm1b, fresh1b) = repriced(&engine, &s1, &mut table);
            assert_eq!(cold1, warm1b);
            assert_eq!(fresh1b, 0, "identical schedule re-prices nothing");

            // Same DAG shape, different dimensions: only the
            // dimension-dependent keys price fresh, and the report still
            // matches cold pricing bit-for-bit.
            let s2 = schedule(8, 64, 900);
            let cold2 = engine.run(&s2, &NullSink, &NullProbe, None);
            let (warm2, fresh2) = repriced(&engine, &s2, &mut table);
            assert_eq!(cold2, warm2, "near-miss repriced run ({opt:?})");
            assert!(fresh2 > 0, "changed dimensions must re-price");
            assert!(
                fresh2 < rows(&s2),
                "unchanged rows must replay from the memo"
            );
            assert_eq!(
                cold2.total_ns().to_bits(),
                warm2.total_ns().to_bits(),
                "bit-identical totals ({opt:?})"
            );
        }
    }

    #[test]
    fn price_table_reports_hit_and_miss_counts() {
        let engine = Engine::new(&StreamPimConfig::paper_default());
        let mut table = PriceTable::new();
        assert!(table.is_empty());
        let s = schedule(2, 4, 500);
        let reqs = rows(&s);
        let (_, fresh) = repriced(&engine, &s, &mut table);
        assert_eq!(table.misses(), fresh);
        assert_eq!(table.hits(), reqs - fresh);
        assert_eq!(table.len() as u64, fresh);
        assert!(!table.is_empty());
    }

    /// A schedule whose `PriceKey` changes on every command: TRAN lengths
    /// alternate in broadcasts and collects, and computes cycle through
    /// MUL/ADD/SMUL at alternating lengths. Rounds repeat 1, 3 and 7 times;
    /// the second gives two computes to each home, and the third's last
    /// compute lives past the device's `subarrays`.
    fn alternating_keys(subarrays: u32) -> Schedule {
        let mut s = Schedule::new();
        for (r, repeat) in [1u64, 3, 7].into_iter().enumerate() {
            let mut round = Round::new().repeated(repeat);
            for i in 0..5 {
                round.broadcasts.push(Vpc::Tran {
                    src: 600,
                    dst: i,
                    len: 8 + i % 2 * 500,
                });
            }
            for i in 0..9 {
                let home = match r {
                    1 => i / 2,
                    2 if i == 8 => subarrays + 5,
                    _ => i * 7,
                };
                let v = VecRef::new(home, 40 + i % 2 * 300);
                round.computes.push(match i % 3 {
                    0 => Vpc::Mul { src1: v, src2: v },
                    1 => Vpc::Add { src1: v, src2: v },
                    _ => Vpc::Smul { src: v },
                });
                round.collects.push(Vpc::Tran {
                    src: home,
                    dst: home + 1,
                    len: 1 + i % 2 * 64,
                });
            }
            s.push(round);
        }
        s
    }

    fn energy_bits(e: &EnergyBreakdown) -> [u64; 5] {
        [e.read_pj, e.write_pj, e.shift_pj, e.compute_pj, e.other_pj].map(f64::to_bits)
    }

    /// Every time and energy field of `r`, as bits.
    fn float_bits(r: &ExecReport) -> ([u64; 5], [u64; 5]) {
        let t = r.time;
        let time = [
            t.read_ns,
            t.write_ns,
            t.shift_ns,
            t.process_ns,
            t.overlapped_ns,
        ];
        (time.map(f64::to_bits), energy_bits(&r.energy))
    }

    /// Prices `s` cold, warm and probed, and checks the run against
    /// oracles summed command by command in schedule order.
    fn check_folded_pricing(engine: &Engine, s: &Schedule) {
        let commands: Vec<(&Vpc, &Round)> = s
            .rounds
            .iter()
            .flat_map(|r| {
                r.broadcasts
                    .iter()
                    .chain(&r.collects)
                    .chain(&r.computes)
                    .map(move |c| (c, r))
            })
            .collect();
        let mut table = PriceTable::new();
        let cold = engine.run(s, &NullSink, &NullProbe, Some(&mut table));
        assert_eq!(table.hits() + table.misses(), commands.len() as u64);
        let keys: std::collections::HashSet<PriceKey> =
            commands.iter().map(|(c, _)| PriceKey::of(c)).collect();
        assert_eq!(table.misses(), keys.len() as u64);

        let mut counters = OpCounters::default();
        let mut energy = EnergyBreakdown::default();
        for (c, round) in &commands {
            for _ in 0..round.repeat {
                counters += engine.vpc_counters(c);
            }
            energy += engine.price(PriceKey::of(c)).energy * round.repeat as f64;
        }
        energy.other_pj += s.counts().total() as f64;
        assert_eq!(cold.counters, counters);
        assert_eq!(cold.vpc, s.counts());
        assert_eq!(energy_bits(&cold.energy), energy_bits(&energy));

        let warm = engine.run(s, &NullSink, &NullProbe, Some(&mut table));
        let probe = rm_core::BufferProbe::new();
        let probed = engine.run(s, &NullSink, &probe, None);
        assert_eq!(probe.len(), commands.len() + 1, "one sample per command");
        for other in [&warm, &probed] {
            assert_eq!(float_bits(&cold), float_bits(other));
            assert_eq!(cold.counters, other.counters);
        }
    }

    #[test]
    fn runs_of_one_command_price_like_long_runs() {
        for cfg in [
            StreamPimConfig::paper_default(),
            StreamPimConfig::electrical_bus().with_opt(OptLevel::Base),
            StreamPimConfig::paper_default().with_opt(OptLevel::Distribute),
        ] {
            let engine = Engine::new(&cfg);
            let s = alternating_keys(cfg.device.pim_subarrays());
            for pair in s.rounds.iter().flat_map(|r| {
                [&r.broadcasts, &r.collects, &r.computes]
                    .into_iter()
                    .flat_map(|cmds| cmds.windows(2))
            }) {
                assert_ne!(PriceKey::of(&pair[0]), PriceKey::of(&pair[1]));
            }
            check_folded_pricing(&engine, &s);
            // The same oracles over long runs of equal keys.
            check_folded_pricing(&engine, &schedule(3, 16, 500));
        }
    }

    #[test]
    fn only_trans_in_transfer_lists_are_priced_and_counted() {
        let engine = Engine::new(&StreamPimConfig::paper_default());
        let mul = Vpc::Mul {
            src1: VecRef::new(3, 64),
            src2: VecRef::new(3, 64),
        };
        let price = |stray: bool| {
            let mut round = Round::new();
            round.computes.push(mul);
            if stray {
                round.broadcasts.push(mul);
                round.collects.push(mul);
            }
            let mut s = Schedule::new();
            s.push(round);
            engine.run(&s, &NullSink, &NullProbe, None)
        };
        let stray = price(true);
        assert_eq!(stray.vpc, crate::vpc::VpcCounts { pim: 1, moves: 0 });
        assert_eq!(stray, price(false));
    }

    /// A non-negative float of `kind` drawn from `bits`: zero, subnormal,
    /// any finite normal, a normal with a 1–8-bit significand, or one in
    /// the top binade.
    fn float_of(kind: u64, bits: u64) -> f64 {
        let fraction = bits & ((1 << 52) - 1);
        let exponent = (bits >> 52) % 2046 + 1;
        match kind % 5 {
            0 => 0.0,
            1 => f64::from_bits(fraction.max(1)),
            2 => f64::from_bits(exponent << 52 | fraction),
            3 => {
                let dropped = 44 + bits % 9;
                f64::from_bits(exponent << 52 | fraction >> dropped << dropped)
            }
            _ => f64::from_bits(2046 << 52 | fraction),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]
        #[test]
        fn add_n_matches_sequential_additions(
            acc_kind in 0u64..5,
            x_kind in 0u64..8,
            acc_bits in proptest::prelude::any::<u64>(),
            x_bits in proptest::prelude::any::<u64>(),
            n_log in 0u32..17,
            n_bits in proptest::prelude::any::<u64>(),
        ) {
            let acc = float_of(acc_kind, acc_bits);
            let x = match x_kind {
                // Within 2^-60 of acc, where long runs stay in a binade.
                0 | 1 => acc * (1.0 + (x_bits >> 11) as f64 / (1u64 << 53) as f64)
                    / (1u64 << (x_bits % 61)) as f64,
                // A tie, (q + 1/2)·ulp(acc).
                2 => {
                    let ulp = f64::from_bits(acc.to_bits() + 1) - acc;
                    ((x_bits % 64) as f64 + 0.5) * ulp
                }
                kind => float_of(kind, x_bits),
            };
            let n = (1u64 << n_log) + n_bits % (1u64 << n_log);
            let want = (0..n).fold(acc, |a, _| a + x);
            proptest::prop_assert_eq!(
                add_n(acc, x, n).to_bits(),
                want.to_bits(),
                "acc {:e} x {:e} n {}",
                acc,
                x,
                n
            );
        }
    }

    #[test]
    fn add_n_edge_cases_match_sequential_additions() {
        let top = f64::MAX / 2.0;
        let cases = [
            (0.0, 0.0, 5),
            (-0.0, -0.0, 3),
            (-0.0, 0.0, 3),
            (1.0, -0.0, 7),
            (1.0, 0.5f64.powi(53), 1000),               // a tie at 1.0
            (1.0, 3.0 * 0.5f64.powi(53), 1000),         // ties, odd step
            (3.0, 0.1, 100_000),                        // crosses binades
            (top, top / 3.0, 10),                       // overflows to inf
            (f64::MAX, f64::MAX, 4),                    // inf at once
            (f64::INFINITY, 1.0, 100_000),              // stays inf
            (1.0, f64::INFINITY, 3),                    // inf addend
            (f64::MIN_POSITIVE / 8.0, 1e-310, 100_000), // subnormal sums
            (1e-300, f64::from_bits(1), 100_000),       // far below an ulp
            (-2.0, 0.25, 100),                          // negative acc
            (1.0, -0.25, 100),                          // negative addend
        ];
        for (acc, x, n) in cases {
            let want = (0..n).fold(acc, |a: f64, _| a + x);
            assert_eq!(
                add_n(acc, x, n).to_bits(),
                want.to_bits(),
                "acc {acc:e} x {x:e} n {n}"
            );
        }
    }

    #[test]
    fn vpc_counter_split() {
        let engine = Engine::new(&StreamPimConfig::paper_default());
        let mul = Vpc::Mul {
            src1: VecRef::new(0, 100),
            src2: VecRef::new(0, 100),
        };
        let tran = Vpc::Tran {
            src: 0,
            dst: 1,
            len: 100,
        };
        let m = engine.vpc_counters(&mul);
        assert!(m.pim_muls > 0 && m.reads == 0);
        let t = engine.vpc_counters(&tran);
        assert!(t.reads > 0 || t.writes > 0);
        assert_eq!(t.pim_muls, 0);
    }

    #[test]
    fn params_validation() {
        let p = EngineParams {
            dist_serialization: 1.5,
            ..EngineParams::default()
        };
        assert!(p.validate().is_err());
        let p = EngineParams {
            electrical_beats_per_row: 0,
            ..EngineParams::default()
        };
        assert!(p.validate().is_err());
        let p = EngineParams {
            bus_fill_exposure: 2.0,
            ..EngineParams::default()
        };
        assert!(p.validate().is_err());
        assert!(EngineParams::default().validate().is_ok());
    }
}
