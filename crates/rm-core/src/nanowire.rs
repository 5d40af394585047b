//! Functional model of a single domain-wall nanowire (racetrack).
//!
//! A nanowire stores `data_len` logical domains plus reserved *overhead*
//! domains on each side so that shifting never pushes data off the wire
//! (paper §II-A). Access ports sit at fixed physical positions; the wire
//! tracks its cumulative shift `offset`, and a port is aligned with logical
//! domain `port_pos - offset`.
//!
//! Domains are stored word-packed ([`PackedBits`], 64 domains per `u64`,
//! LSB-first) so bulk operations — transverse reads, span reads/writes,
//! whole-wire loads — run as word ops. Shifts remain O(1) `offset`
//! bookkeeping, exactly as in the scalar model retained in
//! [`crate::reference`]; timing/energy/counter accounting is unchanged.

use crate::bits::PackedBits;
use crate::error::RmError;
use crate::fault::{FaultOutcome, ShiftFaultModel};
use crate::stats::OpCounters;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Direction of a shift current applied to a nanowire.
///
/// `Right` moves every domain towards higher logical indices (the data under
/// a port afterwards has a *lower* logical index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShiftDir {
    /// Move domains towards lower indices.
    Left,
    /// Move domains towards higher indices.
    Right,
}

impl ShiftDir {
    /// The opposite direction.
    #[inline]
    pub fn reversed(self) -> ShiftDir {
        match self {
            ShiftDir::Left => ShiftDir::Right,
            ShiftDir::Right => ShiftDir::Left,
        }
    }

    /// Signed unit step: `Left = -1`, `Right = +1`.
    #[inline]
    pub fn sign(self) -> isize {
        match self {
            ShiftDir::Left => -1,
            ShiftDir::Right => 1,
        }
    }
}

/// A domain-wall nanowire with access ports and reserved overhead domains.
///
/// ```
/// use rm_core::{Nanowire, ShiftDir};
///
/// let mut wire = Nanowire::new(16, &[0, 8]);
/// wire.write_port(1, true).unwrap();      // logical domain 8 := 1
/// wire.shift(ShiftDir::Right, 2).unwrap();
/// // Domain 8 moved right; port 1 now sees logical domain 6.
/// assert_eq!(wire.read_port(1).unwrap(), false);
/// wire.shift(ShiftDir::Left, 2).unwrap();
/// assert_eq!(wire.read_port(1).unwrap(), true);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nanowire {
    /// Logical data domains, packed 64 per word (`Up` = 1). Shifts are
    /// modelled by the `offset` bookkeeping rather than physically rotating
    /// the storage.
    data: PackedBits,
    /// Cumulative shift in domain positions (positive = shifted right).
    offset: isize,
    /// Reserved overhead domains per side; |offset| may never exceed this.
    overhead: usize,
    /// Port positions in logical-domain coordinates at offset 0.
    ports: Vec<usize>,
    /// Per-wire operation counters.
    counters: OpCounters,
}

impl Nanowire {
    /// Creates a wire of `data_len` domains (all `Down`/0) with ports at the
    /// given logical positions and an automatically sized overhead region
    /// (`data_len / ports` per side, at least 1 — cf. paper §II-A: the
    /// reserve depends on the port count and never exceeds the data length).
    ///
    /// # Panics
    ///
    /// Panics if `data_len == 0`, `ports` is empty, any port position is
    /// out of range, or two ports share a position — every access port is a
    /// distinct physical structure on the wire. (Construction is
    /// programmer-controlled; operational errors are returned as `Result`.)
    pub fn new(data_len: usize, ports: &[usize]) -> Self {
        assert!(data_len > 0, "a nanowire needs at least one domain");
        assert!(
            !ports.is_empty(),
            "a nanowire needs at least one access port"
        );
        for (i, &p) in ports.iter().enumerate() {
            assert!(p < data_len, "port position {p} out of range 0..{data_len}");
            assert!(
                !ports[..i].contains(&p),
                "duplicate port position {p}: each access port needs a distinct physical site"
            );
        }
        let overhead = (data_len / ports.len()).max(1);
        Nanowire {
            data: PackedBits::new(data_len),
            offset: 0,
            overhead,
            ports: ports.to_vec(),
            counters: OpCounters::default(),
        }
    }

    /// Creates a wire with `n` evenly spaced ports.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > data_len` — with more ports than domains
    /// the stride would round to zero and every port would collapse onto
    /// position 0.
    pub fn with_even_ports(data_len: usize, n: usize) -> Self {
        assert!(n > 0, "need at least one port");
        assert!(
            n <= data_len,
            "cannot place {n} evenly spaced ports on {data_len} domains: \
             the port stride would be zero and all ports would collapse to position 0"
        );
        let stride = data_len / n;
        let ports: Vec<usize> = (0..n).map(|i| i * stride).collect();
        Nanowire::new(data_len, &ports)
    }

    /// Number of logical data domains.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the wire has no data domains (never, by invariant).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of access ports.
    #[inline]
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Current cumulative shift offset (positive = shifted right).
    #[inline]
    pub fn offset(&self) -> isize {
        self.offset
    }

    /// Reserved overhead domains per side.
    #[inline]
    pub fn overhead(&self) -> usize {
        self.overhead
    }

    /// Per-wire operation counters accumulated so far.
    #[inline]
    pub fn counters(&self) -> OpCounters {
        self.counters
    }

    /// Resets the operation counters.
    pub fn reset_counters(&mut self) {
        self.counters = OpCounters::default();
    }

    /// Shifts the wire by `distance` domains in `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::ShiftOutOfRange`] if the shift would push data
    /// past the reserved overhead domains; the wire is left unchanged.
    pub fn shift(&mut self, dir: ShiftDir, distance: usize) -> Result<()> {
        let new_offset = self.offset + dir.sign() * distance as isize;
        if new_offset.unsigned_abs() > self.overhead {
            let available = match dir {
                ShiftDir::Right => (self.overhead as isize - self.offset).max(0) as usize,
                ShiftDir::Left => (self.overhead as isize + self.offset).max(0) as usize,
            };
            return Err(RmError::ShiftOutOfRange {
                requested: distance,
                available,
            });
        }
        self.offset = new_offset;
        self.counters.shifts += 1;
        self.counters.shift_distance += distance as u64;
        Ok(())
    }

    /// Shifts with fault injection: the realized distance may differ by one
    /// (over-shift / under-shift), as modelled by `faults`.
    ///
    /// Returns the outcome so callers can account detected/undetected faults.
    ///
    /// # Errors
    ///
    /// Propagates [`RmError::ShiftOutOfRange`] exactly like [`Self::shift`]
    /// (evaluated against the *realized* distance).
    pub fn shift_with_faults(
        &mut self,
        dir: ShiftDir,
        distance: usize,
        faults: &mut ShiftFaultModel,
    ) -> Result<FaultOutcome> {
        let outcome = faults.sample(distance);
        let realized = outcome.realized_distance(distance);
        self.shift(dir, realized)?;
        Ok(outcome)
    }

    /// Bulk variant of [`Self::shift_with_faults`]: `times` faulty shifts of
    /// `distance` domains each, amortizing the per-step bookkeeping.
    ///
    /// Draws from `faults` exactly as a loop of `shift_with_faults` calls
    /// would — the RNG stream, sample count, and injected-fault tally are
    /// identical — but realizes the displacement once at the end: every
    /// step moves in the same direction (a faulty step realizes
    /// `distance ± 1 ≥ 0` domains), so the extreme offset is the final one
    /// and a single range check is exact. Returns the number of faults
    /// injected during this bulk operation.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::ShiftOutOfRange`] if the total *realized*
    /// displacement leaves the overhead region. The wire is left unchanged
    /// (all-or-nothing, unlike the per-step loop which stops at the first
    /// failing step); the fault model still advances past all `times`
    /// samples.
    pub fn shift_bulk_with_faults(
        &mut self,
        dir: ShiftDir,
        distance: usize,
        times: u64,
        faults: &mut ShiftFaultModel,
    ) -> Result<u64> {
        let mut realized_total: u128 = 0;
        let mut injected: u64 = 0;
        for _ in 0..times {
            let outcome = faults.sample(distance);
            realized_total += outcome.realized_distance(distance) as u128;
            injected += outcome.is_fault() as u64;
        }
        let new_offset = self.offset as i128 + dir.sign() as i128 * realized_total as i128;
        if new_offset.unsigned_abs() > self.overhead as u128 {
            let available = match dir {
                ShiftDir::Right => (self.overhead as isize - self.offset).max(0) as usize,
                ShiftDir::Left => (self.overhead as isize + self.offset).max(0) as usize,
            };
            return Err(RmError::ShiftOutOfRange {
                requested: realized_total as usize,
                available,
            });
        }
        self.offset = new_offset as isize;
        self.counters.shifts += times;
        self.counters.shift_distance += realized_total as u64;
        Ok(injected)
    }

    /// Aligns logical domain `index` with port `port` using the minimum
    /// number of single-domain shifts, returning the distance moved.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::PortIndex`] / [`RmError::DomainIndex`] for bad
    /// arguments, or [`RmError::ShiftOutOfRange`] if alignment is impossible
    /// within the overhead region.
    pub fn align(&mut self, port: usize, index: usize) -> Result<usize> {
        let base = self.port_logical_pos(port)? as isize;
        if index >= self.data.len() {
            return Err(RmError::DomainIndex {
                index,
                len: self.data.len(),
            });
        }
        // The domain under the port is `base - offset`; aligning `index`
        // under the port therefore needs offset' = base - index.
        let target_offset = base - index as isize;
        let delta = target_offset - self.offset;
        let (dir, dist) = if delta >= 0 {
            (ShiftDir::Right, delta as usize)
        } else {
            (ShiftDir::Left, (-delta) as usize)
        };
        if dist > 0 {
            self.shift(dir, dist)?;
        }
        Ok(dist)
    }

    /// Aligns logical domain `index` under whichever port can reach it with
    /// the fewest shift steps, returning `(port, distance)`.
    ///
    /// Ports can only reach domains whose alignment offset stays within the
    /// reserved overhead region; with evenly spaced ports every domain is
    /// reachable by its nearest port.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::DomainIndex`] for a bad index, or
    /// [`RmError::ShiftOutOfRange`] if no port can reach `index`.
    pub fn align_nearest(&mut self, index: usize) -> Result<(usize, usize)> {
        if index >= self.data.len() {
            return Err(RmError::DomainIndex {
                index,
                len: self.data.len(),
            });
        }
        let overhead = self.overhead as isize;
        let best = self
            .ports
            .iter()
            .enumerate()
            .filter_map(|(p, &pos)| {
                let target = pos as isize - index as isize;
                (target.abs() <= overhead).then_some((p, (target - self.offset).unsigned_abs()))
            })
            .min_by_key(|&(_, d)| d);
        match best {
            Some((port, _)) => {
                let dist = self.align(port, index)?;
                Ok((port, dist))
            }
            None => Err(RmError::ShiftOutOfRange {
                requested: index,
                available: self.overhead,
            }),
        }
    }

    /// Logical domain index currently aligned with `port`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::PortIndex`] for a bad port, or
    /// [`RmError::DomainIndex`] if an overhead domain is under the port.
    pub fn aligned_index(&self, port: usize) -> Result<usize> {
        let base = self.port_logical_pos(port)?;
        let idx = base as isize - self.offset;
        if idx < 0 || idx as usize >= self.data.len() {
            return Err(RmError::DomainIndex {
                index: idx.max(0) as usize,
                len: self.data.len(),
            });
        }
        Ok(idx as usize)
    }

    /// Reads the bit under `port`.
    ///
    /// # Errors
    ///
    /// See [`Self::aligned_index`].
    pub fn read_port(&mut self, port: usize) -> Result<bool> {
        let idx = self.aligned_index(port)?;
        self.counters.reads += 1;
        Ok(self.data.get(idx))
    }

    /// Writes `bit` to the domain under `port`.
    ///
    /// # Errors
    ///
    /// See [`Self::aligned_index`].
    pub fn write_port(&mut self, port: usize, bit: bool) -> Result<()> {
        let idx = self.aligned_index(port)?;
        self.counters.writes += 1;
        self.data.set(idx, bit);
        Ok(())
    }

    /// Transverse read: senses `len` consecutive domains starting at the
    /// domain under `port` in a single access, returning the number of `1`s
    /// (the primitive CORUSCANT builds its adders from). Runs as a word
    /// popcount over the packed storage.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::InvalidSpan`] for a zero-length span or one that
    /// runs past the end of the data region, plus the errors of
    /// [`Self::aligned_index`].
    pub fn transverse_read(&mut self, port: usize, len: usize) -> Result<u32> {
        let start = self.aligned_index(port)?;
        let end = start + len;
        if len == 0 || end > self.data.len() {
            return Err(RmError::InvalidSpan { start, end });
        }
        self.counters.transverse_reads += 1;
        Ok(self.data.count_ones_range(start, len) as u32)
    }

    /// Transverse write: writes `bits` to the consecutive domains starting
    /// at the domain under `port` while shifting — the combined
    /// shift-and-write CORUSCANT adopts from DWM-Tapestri to cut write
    /// latency (paper §II-B).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::InvalidSpan`] for an empty span or one past the
    /// data region, plus the errors of [`Self::aligned_index`].
    pub fn transverse_write(&mut self, port: usize, bits: &[bool]) -> Result<()> {
        self.transverse_write_packed(port, &PackedBits::from_bools(bits))
    }

    /// Word-level transverse write: identical device semantics and
    /// accounting to [`Self::transverse_write`], but takes the span already
    /// packed so the store is a handful of word ops.
    ///
    /// # Errors
    ///
    /// See [`Self::transverse_write`].
    pub fn transverse_write_packed(&mut self, port: usize, bits: &PackedBits) -> Result<()> {
        let start = self.aligned_index(port)?;
        let end = start + bits.len();
        if bits.is_empty() || end > self.data.len() {
            return Err(RmError::InvalidSpan { start, end });
        }
        self.counters.writes += 1;
        self.counters.shifts += 1;
        self.counters.shift_distance += bits.len() as u64;
        self.data.copy_range_from(start, bits, 0, bits.len());
        Ok(())
    }

    /// Direct inspection of a logical domain (no timing/energy cost; for
    /// tests and visualization).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::DomainIndex`] if out of range.
    pub fn peek(&self, index: usize) -> Result<bool> {
        if index >= self.data.len() {
            return Err(RmError::DomainIndex {
                index,
                len: self.data.len(),
            });
        }
        Ok(self.data.get(index))
    }

    /// Direct mutation of a logical domain (no cost; for initialization in
    /// tests, examples and workload setup).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::DomainIndex`] if out of range.
    pub fn poke(&mut self, index: usize, bit: bool) -> Result<()> {
        if index >= self.data.len() {
            return Err(RmError::DomainIndex {
                index,
                len: self.data.len(),
            });
        }
        self.data.set(index, bit);
        Ok(())
    }

    /// Copies all logical domains into a `Vec<bool>` (inspection only).
    pub fn to_bits(&self) -> Vec<bool> {
        self.data.to_bools()
    }

    /// Overwrites all logical domains from a bit slice (initialization only).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::LengthMismatch`] if `bits.len() != self.len()`.
    pub fn load_bits(&mut self, bits: &[bool]) -> Result<()> {
        if bits.len() != self.data.len() {
            return Err(RmError::LengthMismatch {
                expected: self.data.len(),
                actual: bits.len(),
            });
        }
        self.data = PackedBits::from_bools(bits);
        Ok(())
    }

    fn port_logical_pos(&self, port: usize) -> Result<usize> {
        self.ports.get(port).copied().ok_or(RmError::PortIndex {
            index: port,
            count: self.ports.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_wire_is_zeroed() {
        let w = Nanowire::new(32, &[0]);
        assert_eq!(w.len(), 32);
        assert!(w.to_bits().iter().all(|&b| !b));
        assert_eq!(w.offset(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one access port")]
    fn new_requires_ports() {
        let _ = Nanowire::new(8, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_bad_port_position() {
        let _ = Nanowire::new(8, &[8]);
    }

    #[test]
    #[should_panic(expected = "duplicate port position")]
    fn new_rejects_duplicate_ports() {
        let _ = Nanowire::new(8, &[0, 4, 0]);
    }

    #[test]
    fn even_ports_are_spread() {
        let w = Nanowire::with_even_ports(64, 4);
        assert_eq!(w.port_count(), 4);
        // Port 0 at 0, port 1 at 16, etc.
        assert_eq!(w.aligned_index(1).unwrap(), 16);
        assert_eq!(w.aligned_index(3).unwrap(), 48);
    }

    #[test]
    #[should_panic(expected = "collapse to position 0")]
    fn even_ports_reject_more_ports_than_domains() {
        let _ = Nanowire::with_even_ports(4, 5);
    }

    #[test]
    fn even_ports_at_capacity_is_one_port_per_domain() {
        let w = Nanowire::with_even_ports(4, 4);
        assert_eq!(w.port_count(), 4);
        assert_eq!(w.aligned_index(3).unwrap(), 3);
    }

    #[test]
    fn shift_then_port_sees_shifted_domain() {
        let mut w = Nanowire::new(16, &[4]);
        w.poke(2, true).unwrap();
        // Shift right by 2: domain 2 moves to where domain 4 was → under port.
        w.shift(ShiftDir::Right, 2).unwrap();
        assert!(w.read_port(0).unwrap());
    }

    #[test]
    fn shift_respects_overhead() {
        let mut w = Nanowire::new(16, &[0]); // overhead = 16
        w.shift(ShiftDir::Right, 16).unwrap();
        let err = w.shift(ShiftDir::Right, 1).unwrap_err();
        assert_eq!(
            err,
            RmError::ShiftOutOfRange {
                requested: 1,
                available: 0
            }
        );
        // Opposite direction has the full range again.
        w.shift(ShiftDir::Left, 32).unwrap();
        assert_eq!(w.offset(), -16);
    }

    #[test]
    fn failed_shift_leaves_wire_unchanged() {
        let mut w = Nanowire::new(8, &[0, 4]); // overhead = 4
        w.shift(ShiftDir::Right, 3).unwrap();
        let before = w.clone();
        assert!(w.shift(ShiftDir::Right, 5).is_err());
        assert_eq!(w.offset(), before.offset());
        assert_eq!(w.to_bits(), before.to_bits());
    }

    #[test]
    fn shift_counters_accumulate() {
        let mut w = Nanowire::new(16, &[0]);
        w.shift(ShiftDir::Right, 3).unwrap();
        w.shift(ShiftDir::Left, 3).unwrap();
        let c = w.counters();
        assert_eq!(c.shifts, 2);
        assert_eq!(c.shift_distance, 6);
        w.reset_counters();
        assert_eq!(w.counters().shifts, 0);
    }

    #[test]
    fn bulk_faulty_shift_matches_the_per_step_loop() {
        let mut bulk = Nanowire::new(256, &[0, 64, 128, 192]);
        let mut looped = bulk.clone();
        let mut fm_bulk = ShiftFaultModel::new(0.2, 0.1, 2024);
        let mut fm_loop = fm_bulk.clone();
        let injected = bulk
            .shift_bulk_with_faults(ShiftDir::Right, 1, 30, &mut fm_bulk)
            .unwrap();
        let mut loop_injected = 0;
        for _ in 0..30 {
            let o = looped
                .shift_with_faults(ShiftDir::Right, 1, &mut fm_loop)
                .unwrap();
            loop_injected += o.is_fault() as u64;
        }
        assert_eq!(bulk, looped);
        assert_eq!(injected, loop_injected);
        assert_eq!(fm_bulk.faults_injected(), fm_loop.faults_injected());
        assert_eq!(fm_bulk.shifts_sampled(), fm_loop.shifts_sampled());
    }

    #[test]
    fn align_moves_minimum_distance() {
        let mut w = Nanowire::new(64, &[32]);
        let moved = w.align(0, 30).unwrap();
        assert_eq!(moved, 2);
        assert_eq!(w.aligned_index(0).unwrap(), 30);
        // Aligning to the same domain costs nothing.
        assert_eq!(w.align(0, 30).unwrap(), 0);
    }

    #[test]
    fn align_round_trip_reads_written_bit() {
        let mut w = Nanowire::new(64, &[16]);
        w.align(0, 5).unwrap();
        w.write_port(0, true).unwrap();
        w.align(0, 50).unwrap();
        w.write_port(0, true).unwrap();
        w.align(0, 5).unwrap();
        assert!(w.read_port(0).unwrap());
        assert_eq!(w.to_bits().iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn read_overhead_domain_is_error() {
        let mut w = Nanowire::new(8, &[0, 4]); // overhead = 4
        w.shift(ShiftDir::Left, 2).unwrap(); // port 0 now over "domain -2"... i.e. 2
                                             // port 0 at logical 0 - offset(-2) = 2 → fine. Shift more:
        w.shift(ShiftDir::Right, 4).unwrap(); // offset = 2, port0 sees -2 → overhead
        assert!(w.read_port(0).is_err());
    }

    #[test]
    fn transverse_read_counts_ones() {
        let mut w = Nanowire::new(16, &[0]);
        for i in [1, 2, 5, 7] {
            w.poke(i, true).unwrap();
        }
        assert_eq!(w.transverse_read(0, 8).unwrap(), 4);
        assert_eq!(w.transverse_read(0, 2).unwrap(), 1);
        assert_eq!(w.counters().transverse_reads, 2);
    }

    #[test]
    fn transverse_write_round_trips_with_transverse_read() {
        let mut w = Nanowire::new(16, &[0]);
        let bits = [true, false, true, true];
        w.transverse_write(0, &bits).unwrap();
        assert_eq!(w.transverse_read(0, 4).unwrap(), 3);
        assert_eq!(&w.to_bits()[..4], &bits);
        // One combined op, not four writes.
        assert_eq!(w.counters().writes, 1);
    }

    #[test]
    fn transverse_write_rejects_bad_span() {
        let mut w = Nanowire::new(8, &[0]);
        assert!(w.transverse_write(0, &[]).is_err());
        assert!(w.transverse_write(0, &[true; 9]).is_err());
    }

    #[test]
    fn transverse_read_rejects_bad_span() {
        let mut w = Nanowire::new(16, &[0]);
        assert!(w.transverse_read(0, 0).is_err());
        assert!(w.transverse_read(0, 17).is_err());
    }

    #[test]
    fn load_bits_round_trip() {
        let mut w = Nanowire::new(8, &[0]);
        let bits = vec![true, false, true, true, false, false, true, false];
        w.load_bits(&bits).unwrap();
        assert_eq!(w.to_bits(), bits);
        assert!(w.load_bits(&[true]).is_err());
    }

    #[test]
    fn transverse_write_packed_matches_bool_version() {
        let mut a = Nanowire::new(32, &[0]);
        let mut b = Nanowire::new(32, &[0]);
        let bits: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        a.transverse_write(0, &bits).unwrap();
        b.transverse_write_packed(0, &PackedBits::from_bools(&bits))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reversed_direction() {
        assert_eq!(ShiftDir::Left.reversed(), ShiftDir::Right);
        assert_eq!(ShiftDir::Right.reversed(), ShiftDir::Left);
        assert_eq!(ShiftDir::Left.sign(), -1);
    }
}
