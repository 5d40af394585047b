//! Property-based tests for the racetrack-memory substrate.

use proptest::prelude::*;
use rm_core::reference::{ScalarMat, ScalarNanowire};
use rm_core::{Mat, Nanowire, PackedBits, ShiftDir, ShiftFaultModel, Subarray};

/// One random nanowire operation for the packed-vs-scalar differential run.
#[derive(Debug, Clone)]
enum WireOp {
    Shift(ShiftDir, usize),
    ShiftFaults(ShiftDir, usize),
    Align(usize, usize),
    AlignNearest(usize),
    ReadPort(usize),
    WritePort(usize, bool),
    TransverseRead(usize, usize),
    TransverseWrite(usize, Vec<bool>),
    Peek(usize),
    Poke(usize, bool),
}

fn dir() -> impl Strategy<Value = ShiftDir> {
    prop_oneof![Just(ShiftDir::Left), Just(ShiftDir::Right)]
}

fn wire_op() -> impl Strategy<Value = WireOp> {
    prop_oneof![
        (dir(), 0usize..6).prop_map(|(d, n)| WireOp::Shift(d, n)),
        (dir(), 0usize..6).prop_map(|(d, n)| WireOp::ShiftFaults(d, n)),
        (0usize..4, 0usize..70).prop_map(|(p, i)| WireOp::Align(p, i)),
        (0usize..70).prop_map(WireOp::AlignNearest),
        (0usize..5).prop_map(WireOp::ReadPort),
        (0usize..5, any::<bool>()).prop_map(|(p, b)| WireOp::WritePort(p, b)),
        (0usize..70, 0usize..20).prop_map(|(s, l)| WireOp::TransverseRead(s, l)),
        (0usize..5, proptest::collection::vec(any::<bool>(), 0..20))
            .prop_map(|(p, bits)| WireOp::TransverseWrite(p, bits)),
        (0usize..70).prop_map(WireOp::Peek),
        (0usize..70, any::<bool>()).prop_map(|(i, b)| WireOp::Poke(i, b)),
    ]
}

/// One random mat operation for the bit-plane-vs-scalar differential run.
#[derive(Debug, Clone)]
enum MatOp {
    WriteRow(usize, u8, u8),
    ReadRow(usize),
    AlignRow(usize),
    CopyToTransfer(usize),
    ShiftOutTransfer(usize),
    ShiftOutSave(usize),
    ShiftInRow(usize, u8, u8),
}

fn mat_op() -> impl Strategy<Value = MatOp> {
    // Rows up to 70 on a 64-row mat so error paths are exercised too.
    prop_oneof![
        (0usize..70, any::<u8>(), any::<u8>()).prop_map(|(r, lo, hi)| MatOp::WriteRow(r, lo, hi)),
        (0usize..70).prop_map(MatOp::ReadRow),
        (0usize..70).prop_map(MatOp::AlignRow),
        (0usize..70).prop_map(MatOp::CopyToTransfer),
        (0usize..70).prop_map(MatOp::ShiftOutTransfer),
        (0usize..70).prop_map(MatOp::ShiftOutSave),
        (0usize..70, any::<u8>(), any::<u8>()).prop_map(|(r, lo, hi)| MatOp::ShiftInRow(r, lo, hi)),
    ]
}

proptest! {
    /// Logical data is invariant under shifts: shifting moves the frame,
    /// never the bit pattern.
    #[test]
    fn shifts_never_corrupt_data(
        bits in proptest::collection::vec(any::<bool>(), 32),
        moves in proptest::collection::vec((any::<bool>(), 0usize..4), 0..32),
    ) {
        let mut wire = Nanowire::new(32, &[0, 16]);
        wire.load_bits(&bits).unwrap();
        for (right, dist) in moves {
            let dir = if right { ShiftDir::Right } else { ShiftDir::Left };
            let _ = wire.shift(dir, dist); // out-of-range shifts are rejected, not destructive
        }
        prop_assert_eq!(wire.to_bits(), bits);
    }

    /// A shift right by `d` followed by a shift left by `d` restores the
    /// offset exactly.
    #[test]
    fn shift_round_trip_restores_offset(d in 0usize..16) {
        let mut wire = Nanowire::new(32, &[16]);
        let before = wire.offset();
        wire.shift(ShiftDir::Right, d).unwrap();
        wire.shift(ShiftDir::Left, d).unwrap();
        prop_assert_eq!(wire.offset(), before);
    }

    /// Writing then reading any domain through any port round-trips.
    #[test]
    fn port_write_read_round_trip(
        index in 0usize..64,
        bit in any::<bool>(),
    ) {
        let mut wire = Nanowire::with_even_ports(64, 4);
        let (port, _) = wire.align_nearest(index).unwrap();
        wire.write_port(port, bit).unwrap();
        // Wander off and come back.
        wire.align_nearest((index + 13) % 64).unwrap();
        let (port, _) = wire.align_nearest(index).unwrap();
        prop_assert_eq!(wire.read_port(port).unwrap(), bit);
    }

    /// Transverse read equals the popcount of the span, for any data.
    #[test]
    fn transverse_read_is_popcount(
        bits in proptest::collection::vec(any::<bool>(), 64),
        len in 1usize..32,
    ) {
        let mut wire = Nanowire::new(64, &[0]);
        wire.load_bits(&bits).unwrap();
        let expect = bits[..len].iter().filter(|&&b| b).count() as u32;
        prop_assert_eq!(wire.transverse_read(0, len).unwrap(), expect);
    }

    /// Mat rows round-trip for arbitrary contents and row order.
    #[test]
    fn mat_rows_round_trip(
        rows in proptest::collection::vec((0usize..64, any::<u8>(), any::<u8>()), 1..20),
    ) {
        let mut mat = Mat::new(16, 16, 64, 4);
        let mut model = std::collections::HashMap::new();
        for (row, lo, hi) in rows {
            mat.write_row(row, &[lo, hi]).unwrap();
            model.insert(row, vec![lo, hi]);
        }
        for (row, data) in model {
            prop_assert_eq!(mat.read_row(row).unwrap(), data);
        }
    }

    /// The non-destructive read path returns the row and preserves it.
    #[test]
    fn non_destructive_read_preserves_row(
        row in 0usize..64,
        lo in any::<u8>(),
        hi in any::<u8>(),
    ) {
        let mut mat = Mat::new(16, 8, 64, 4);
        mat.write_row(row, &[lo, hi]).unwrap();
        mat.copy_row_to_transfer(row).unwrap();
        let out = mat.shift_out_transfer_row(row).unwrap();
        prop_assert_eq!(out, vec![lo, hi]);
        prop_assert_eq!(mat.read_row(row).unwrap(), vec![lo, hi]);
    }

    /// Subarray byte spans round-trip at arbitrary offsets and lengths.
    #[test]
    fn subarray_span_round_trip(
        offset in 0usize..200,
        data in proptest::collection::vec(any::<u8>(), 1..50),
    ) {
        let mut sub = Subarray::new(2, 1, 16, 16, 64, 4);
        prop_assume!(offset + data.len() <= sub.capacity_bytes());
        sub.write_bytes(offset, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        sub.read_bytes(offset, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Differential: the lane copy's aligned slice-`memcpy` fast path, the
    /// word-at-a-time reference, and a per-lane scalar model all produce
    /// bit-identical destinations for arbitrary alignments and lengths —
    /// including spans crossing many word boundaries and zero-length copies.
    #[test]
    fn wide_copy_matches_word_and_scalar_references(
        src_bits in proptest::collection::vec(any::<bool>(), 1..700),
        dst_bits in proptest::collection::vec(any::<bool>(), 1..700),
        dst_start in 0usize..700,
        src_start in 0usize..700,
        len in 0usize..700,
    ) {
        let src = PackedBits::from_bools(&src_bits);
        let src_start = src_start % src_bits.len();
        let dst_start = dst_start % dst_bits.len();
        let len = len
            .min(src_bits.len() - src_start)
            .min(dst_bits.len() - dst_start);
        let mut fast = PackedBits::from_bools(&dst_bits);
        let mut by_words = PackedBits::from_bools(&dst_bits);
        let mut model = dst_bits.clone();
        fast.copy_range_from(dst_start, &src, src_start, len);
        by_words.copy_range_from_by_words(dst_start, &src, src_start, len);
        model[dst_start..dst_start + len]
            .copy_from_slice(&src_bits[src_start..src_start + len]);
        prop_assert_eq!(fast.to_bools(), model.clone());
        prop_assert_eq!(by_words.to_bools(), model);
        prop_assert_eq!(fast.words(), by_words.words());
    }

    /// Differential: the word-packed nanowire behaves bit-for-bit like the
    /// retained scalar reference under arbitrary op sequences, including
    /// fault injection from the same RNG seed — identical results, errors,
    /// fault outcomes, counters, and post-state.
    #[test]
    fn packed_nanowire_matches_scalar_reference(
        init in proptest::collection::vec(any::<bool>(), 64),
        seed in any::<u64>(),
        ops in proptest::collection::vec(wire_op(), 1..60),
    ) {
        let mut packed = Nanowire::with_even_ports(64, 4);
        let mut scalar = ScalarNanowire::with_even_ports(64, 4);
        packed.load_bits(&init).unwrap();
        scalar.load_bits(&init).unwrap();
        let mut faults_p = ShiftFaultModel::new(0.3, 0.3, seed);
        let mut faults_s = ShiftFaultModel::new(0.3, 0.3, seed);
        for op in ops {
            match op {
                WireOp::Shift(d, n) => {
                    prop_assert_eq!(packed.shift(d, n), scalar.shift(d, n));
                }
                WireOp::ShiftFaults(d, n) => {
                    prop_assert_eq!(
                        packed.shift_with_faults(d, n, &mut faults_p),
                        scalar.shift_with_faults(d, n, &mut faults_s)
                    );
                }
                WireOp::Align(p, i) => {
                    prop_assert_eq!(packed.align(p, i), scalar.align(p, i));
                }
                WireOp::AlignNearest(i) => {
                    prop_assert_eq!(packed.align_nearest(i), scalar.align_nearest(i));
                }
                WireOp::ReadPort(p) => {
                    prop_assert_eq!(packed.read_port(p), scalar.read_port(p));
                }
                WireOp::WritePort(p, b) => {
                    prop_assert_eq!(packed.write_port(p, b), scalar.write_port(p, b));
                }
                WireOp::TransverseRead(s, l) => {
                    prop_assert_eq!(packed.transverse_read(s, l), scalar.transverse_read(s, l));
                }
                WireOp::TransverseWrite(p, ref bits) => {
                    prop_assert_eq!(
                        packed.transverse_write(p, bits),
                        scalar.transverse_write(p, bits)
                    );
                }
                WireOp::Peek(i) => {
                    prop_assert_eq!(packed.peek(i), scalar.peek(i));
                }
                WireOp::Poke(i, b) => {
                    prop_assert_eq!(packed.poke(i, b), scalar.poke(i, b));
                }
            }
            prop_assert_eq!(packed.offset(), scalar.offset());
            prop_assert_eq!(packed.counters(), scalar.counters());
        }
        prop_assert_eq!(packed.to_bits(), scalar.to_bits());
    }

    /// Differential: the bit-plane mat behaves exactly like the retained
    /// per-wire scalar reference — identical row data, errors, and
    /// `OpCounters` across random op sequences.
    #[test]
    fn bitplane_mat_matches_scalar_reference(
        ops in proptest::collection::vec(mat_op(), 1..50),
    ) {
        let mut packed = Mat::new(16, 8, 64, 4);
        let mut scalar = ScalarMat::new(16, 8, 64, 4);
        for op in ops {
            match op {
                MatOp::WriteRow(r, lo, hi) => {
                    prop_assert_eq!(packed.write_row(r, &[lo, hi]), scalar.write_row(r, &[lo, hi]));
                }
                MatOp::ReadRow(r) => {
                    prop_assert_eq!(packed.read_row(r), scalar.read_row(r));
                }
                MatOp::AlignRow(r) => {
                    prop_assert_eq!(packed.align_row(r), scalar.align_row(r));
                }
                MatOp::CopyToTransfer(r) => {
                    prop_assert_eq!(packed.copy_row_to_transfer(r), scalar.copy_row_to_transfer(r));
                }
                MatOp::ShiftOutTransfer(r) => {
                    prop_assert_eq!(
                        packed.shift_out_transfer_row(r),
                        scalar.shift_out_transfer_row(r)
                    );
                }
                MatOp::ShiftOutSave(r) => {
                    prop_assert_eq!(packed.shift_out_save_row(r), scalar.shift_out_save_row(r));
                }
                MatOp::ShiftInRow(r, lo, hi) => {
                    prop_assert_eq!(
                        packed.shift_in_row(r, &[lo, hi]),
                        scalar.shift_in_row(r, &[lo, hi])
                    );
                }
            }
            prop_assert_eq!(packed.counters(), scalar.counters());
        }
        // Full sweep: every row reads back identically at the end.
        for r in 0..64 {
            prop_assert_eq!(packed.read_row(r), scalar.read_row(r));
        }
    }
}
